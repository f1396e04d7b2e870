"""Autotuner: cache persistence, hysteresis, never-slower guarantee."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import Autotuner, AutotuneCache, TunedChoice
from repro.backends.autotune import default_cache_path
from repro.engine import AbftConfig
from repro.telemetry import MetricsRegistry


@pytest.fixture
def cache(tmp_path) -> AutotuneCache:
    return AutotuneCache(tmp_path / "autotune.json")


CHOICE = TunedChoice(
    backend="blocked", tile=64, per_call_s=0.5, baseline_per_call_s=1.0
)


class TestCache:
    def test_round_trip_through_disk(self, cache):
        cache.put("k1", CHOICE)
        reloaded = AutotuneCache(cache.path)
        assert reloaded.get("k1") == CHOICE
        assert reloaded.keys() == ["k1"]
        assert len(reloaded) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert AutotuneCache(tmp_path / "nope.json").get("k") is None

    def test_corrupt_file_reads_empty(self, cache):
        cache.path.write_text("{not json")
        assert cache.get("k") is None
        # ...and stays writable: the corrupt file is replaced atomically.
        cache.put("k", CHOICE)
        assert json.loads(cache.path.read_text())["entries"]["k"][
            "backend"
        ] == "blocked"

    def test_unwritable_path_degrades_to_memory(self, tmp_path):
        target = tmp_path / "not-a-dir.json" / "cache.json"
        tmp_path.joinpath("not-a-dir.json").write_text("a file, not a dir")
        cache = AutotuneCache(target)
        cache.put("k", CHOICE)  # must not raise
        assert cache.get("k") == CHOICE  # held in memory

    def test_clear_removes_file(self, cache):
        cache.put("k", CHOICE)
        assert cache.path.exists()
        cache.clear()
        assert not cache.path.exists() and len(cache) == 0

    def test_null_tile_survives_round_trip(self, cache):
        none_tile = TunedChoice(
            backend="numpy", tile=None, per_call_s=1.0, baseline_per_call_s=1.0
        )
        cache.put("k", none_tile)
        assert AutotuneCache(cache.path).get("k").tile is None

    def test_env_var_overrides_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AABFT_AUTOTUNE_CACHE", str(tmp_path / "env.json"))
        assert default_cache_path() == tmp_path / "env.json"


class TestAutotuner:
    def test_key_covers_shape_dtype_and_config(self, cache):
        tuner = Autotuner(cache, repeats=1)
        config = AbftConfig(block_size=32, p=3, scheme="sea")
        key = tuner.key(10, 20, 30, np.float32, config)
        assert key == "10x20x30/float32/sea/bs32/p3"

    def test_tune_persists_and_lookup_serves_cache(self, cache):
        reg = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=reg)
        config = AbftConfig()
        choice = tuner.tune(96, 96, 48, config=config)
        assert isinstance(choice, TunedChoice)
        hit = tuner.lookup(96, 96, 48, np.float64, config)
        assert hit == choice
        counter = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert counter.labels(event="tuned").get() == 1.0
        assert counter.labels(event="cache_hit").get() == 1.0

    def test_lookup_miss_is_counted_not_timed(self, cache):
        reg = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=reg)
        assert tuner.lookup(7, 7, 7, np.float64, AbftConfig()) is None
        counter = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert counter.labels(event="cache_miss").get() == 1.0

    def test_winner_never_slower_than_numpy_baseline(self, cache):
        tuner = Autotuner(cache, repeats=2)
        choice = tuner.tune(128, 96, 64)
        if choice.backend == "numpy":
            assert choice.per_call_s == choice.baseline_per_call_s
        else:
            # Hysteresis: a non-numpy winner must beat the reference.
            assert choice.per_call_s < choice.baseline_per_call_s
        assert choice.speedup >= 1.0

    def test_total_hysteresis_always_keeps_numpy(self, cache):
        # hysteresis -> 1 means nothing can beat the reference margin.
        tuner = Autotuner(cache, repeats=1, hysteresis=0.999)
        choice = tuner.tune(96, 64, 64)
        assert choice.backend == "numpy"

    def test_cached_winner_skips_timing_unless_forced(self, cache):
        tuner = Autotuner(cache, repeats=1)
        planted = TunedChoice(
            backend="numpy", tile=None, per_call_s=123.0,
            baseline_per_call_s=123.0,
        )
        cache.put(tuner.key(64, 64, 64, np.float64, AbftConfig()), planted)
        assert tuner.tune(64, 64, 64) == planted  # served, not re-timed
        retuned = tuner.tune(64, 64, 64, force=True)
        assert retuned.per_call_s < 123.0

    def test_candidate_tiles_subdivide_the_encoded_result(self, cache):
        tuner = Autotuner(cache, repeats=1)
        tiles = tuner.candidate_tiles(256, 256, 64)
        assert tiles and all(t < 256 + 256 // 64 for t in tiles)
        assert tuner.candidate_tiles(64, 64, 64) == [64]

    def test_validation(self, cache):
        with pytest.raises(ValueError):
            Autotuner(cache, repeats=0)
        with pytest.raises(ValueError):
            Autotuner(cache, hysteresis=1.5)


class TestOlderCacheFiles:
    """Cache files written while the autotuner also chose between a fused
    tile loop and the separate check carry four more keys per entry
    (``fusion``, ``fused_tile_blocks``, ``fused_per_call_s``,
    ``separate_check_s``); they load, and negotiate the same backend and
    tile."""

    ENTRIES = {
        "70x40x50/float64/aabft/bs64/p2": {
            "backend": "numpy", "tile": None, "per_call_s": 1e-4,
            "baseline_per_call_s": 1e-4, "fusion": "fused",
            "fused_tile_blocks": 2, "fused_per_call_s": 9e-5,
            "separate_check_s": 3e-5,
        },
        "150x40x96/float64/aabft/bs64/p2": {
            "backend": "blocked", "tile": 64, "per_call_s": 1e-4,
            "baseline_per_call_s": 2e-4, "fusion": "fused",
            "fused_tile_blocks": None, "fused_per_call_s": 1.5e-4,
            "separate_check_s": 4e-5,
        },
    }

    @pytest.fixture
    def tuner(self, tmp_path, monkeypatch):
        monkeypatch.delenv("AABFT_BACKEND", raising=False)
        path = tmp_path / "autotune.json"
        path.write_text(json.dumps({"version": 1, "entries": self.ENTRIES}))
        return Autotuner(AutotuneCache(path))

    def test_negotiation_and_bytes_match_the_entries(self, tuner):
        from repro.backends import get_backend, negotiate
        from repro.engine import MatmulEngine

        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (70, 40))
        b = rng.uniform(-1, 1, (40, 50))
        wide = rng.uniform(-1, 1, (150, 40))
        tall = rng.uniform(-1, 1, (40, 96))
        cfg = AbftConfig()
        sel = negotiate(cfg, 70, 40, 50, np.float64, autotuner=tuner)
        assert (sel.backend, sel.tile, sel.source) == ("numpy", None, "default")
        sel = negotiate(cfg, 150, 40, 96, np.float64, autotuner=tuner)
        assert (sel.backend, sel.tile, sel.source) == (
            "blocked", 64, "autotuned"
        )
        with MatmulEngine(autotuner=tuner) as engine:
            one = engine.matmul(a, b)
            two = engine.matmul(wide, tall)
        assert one.backend == "numpy" and one.backend_fallback is None
        assert one.c.tobytes() == np.matmul(a, b).tobytes()
        assert not one.detected
        assert two.backend == "blocked" and two.backend_fallback is None
        tiled = get_backend("numpy").matmul(wide, tall, tile=64)
        assert two.c.tobytes() == tiled.tobytes()
        assert not two.detected

    def test_rewrite_drops_the_retired_keys(self, tuner):
        tuner.cache.put("k", CHOICE)
        payload = json.loads(tuner.cache.path.read_text())
        assert set(payload["entries"]) == set(self.ENTRIES) | {"k"}
        for entry in payload["entries"].values():
            assert set(entry) == {
                "backend", "tile", "per_call_s", "baseline_per_call_s"
            }
