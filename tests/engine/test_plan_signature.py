"""The signature-keyed plan cache: negotiation is cached, never stale."""

import numpy as np
import pytest

from repro.backends.autotune import Autotuner, AutotuneCache, TunedChoice
from repro.backends.blocked import BlockedBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import ENV_BACKEND, BackendRegistry
from repro.engine import AbftConfig, MatmulEngine
from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry


@pytest.fixture
def operands():
    rng = np.random.default_rng(7)
    return rng.uniform(-1, 1, (70, 40)), rng.uniform(-1, 1, (40, 50))


@pytest.fixture
def engine(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    monkeypatch.delenv("AABFT_FUSION", raising=False)
    reg = MetricsRegistry()
    backends = BackendRegistry()  # private: tests register into it
    backends.register("numpy", NumpyBackend)
    backends.register("blocked", BlockedBackend)
    tuner = Autotuner(
        AutotuneCache(tmp_path / "autotune.json"),
        registry=backends,
        metrics_registry=reg,
    )
    with MatmulEngine(registry=reg, backends=backends, autotuner=tuner) as eng:
        yield eng


class Unavailable(BlockedBackend):
    """A registered backend whose availability probe always fails."""

    def availability(self):
        return False, "no device"


def counter(engine, name, **labels):
    metric = engine.registry.counter(name, labelnames=tuple(labels))
    return metric.labels(**labels).get()


class TestSignatureKey:
    def test_env_backend_pin_reroutes_the_next_call(
        self, engine, operands, monkeypatch
    ):
        a, b = operands
        assert engine.matmul(a, b).backend == "numpy"
        monkeypatch.setenv(ENV_BACKEND, "blocked")
        rerouted = engine.matmul(a, b)
        assert rerouted.backend == "blocked"
        assert np.array_equal(rerouted.c, np.matmul(a, b))
        monkeypatch.delenv(ENV_BACKEND)
        assert engine.matmul(a, b).backend == "numpy"
        # Each environment state is its own signature; the return to the
        # first state hits its plan.
        stats = engine.stats()
        assert (stats.plan_misses, stats.plan_hits) == (2, 1)

    def test_retired_fusion_env_var_keys_nothing(
        self, engine, operands, monkeypatch
    ):
        a, b = operands
        first = engine.matmul(a, b)
        monkeypatch.setenv("AABFT_FUSION", "fused")
        second = engine.matmul(a, b)
        assert engine.stats().plan_misses == 1
        assert np.array_equal(first.c, np.matmul(a, b))
        assert first.c.tobytes() == second.c.tobytes()
        for x, y in ((first.report.column_disc, second.report.column_disc),
                     (first.report.row_disc, second.report.row_disc)):
            assert x.tobytes() == y.tobytes()

    def test_dtypes_and_shapes_key_separately(self, engine, operands):
        a, b = operands
        engine.matmul(a, b)
        engine.matmul(a.astype(np.float32), b)  # same compute dtype
        engine.matmul(a[:60], b)
        engine.matmul(a, b)
        stats = engine.stats()
        assert (stats.plan_misses, stats.plan_hits) == (3, 1)

    def test_autotune_put_invalidates_the_cached_negotiation(
        self, engine, operands
    ):
        a, b = operands
        cfg = engine.config
        assert engine.matmul(a, b).backend == "numpy"
        tuner = engine.autotuner
        tuner.cache.put(
            tuner.key(70, 40, 50, np.float64, cfg),
            TunedChoice(
                backend="blocked", tile=32, per_call_s=1.0,
                baseline_per_call_s=2.0,
            ),
        )
        tuned = engine.matmul(a, b)
        assert tuned.backend == "blocked"
        assert np.array_equal(tuned.c, np.matmul(a, b))
        tuner.cache.clear()
        assert engine.matmul(a, b).backend == "numpy"
        assert engine.stats().plan_misses == 3

    def test_engine_autotune_invalidates_the_cached_negotiation(
        self, engine, operands
    ):
        a, b = operands
        engine.matmul(a, b)
        engine.matmul(a, b)
        assert engine.stats().plan_misses == 1
        engine.autotune(70, 40, 50, force=True)
        engine.matmul(a, b)
        assert engine.stats().plan_misses == 2

    def test_autotune_lookups_count_per_plan_build(self, engine, operands):
        a, b = operands
        for _ in range(3):
            engine.matmul(a, b)
        assert counter(
            engine, "abft_backend_autotune_total", event="cache_miss"
        ) == 1.0  # one backend lookup, at the one build

    def test_registering_a_backend_invalidates_the_cached_negotiation(
        self, engine, operands
    ):
        a, b = operands
        cfg = AbftConfig(backend="late")
        assert engine.matmul(a, b, config=cfg).backend_fallback is not None
        engine.backends.register("late", BlockedBackend)
        assert engine.matmul(a, b, config=cfg).backend_fallback is None

    def test_clear_plans_drops_the_entry(self, engine, operands, monkeypatch):
        a, b = operands
        monkeypatch.setenv(ENV_BACKEND, "blocked")
        engine.matmul(a, b)
        assert engine.plan_cache_size == 1
        engine.clear_plans()
        assert engine.plan_cache_size == 0
        assert engine.matmul(a, b).backend == "blocked"
        assert engine.stats().plan_misses == 2


class TestFallbacksReplayed:
    def test_unviable_pin_counts_a_selection_fallback_every_call(
        self, engine, operands
    ):
        a, b = operands
        engine.backends.register("offline", Unavailable)
        cfg = AbftConfig(backend="offline")
        for calls in range(1, 4):
            result = engine.matmul(a, b, config=cfg)
            assert result.backend == "numpy"
            assert "no device" in result.backend_fallback
            assert counter(
                engine, "abft_backend_fallbacks_total",
                backend="offline", reason="selection",
            ) == calls
        stats = engine.stats()
        assert (stats.plan_misses, stats.plan_hits) == (1, 2)

    def test_unviable_pin_counts_in_batches_too(self, engine, operands):
        a, b = operands
        engine.backends.register("offline", Unavailable)
        cfg = AbftConfig(backend="offline")
        for _ in range(2):
            results = engine.execute_batch([(a, b), (a, b)], config=cfg)
            assert all(r.backend_fallback is not None for r in results)
        assert counter(
            engine, "abft_backend_fallbacks_total",
            backend="offline", reason="selection",
        ) == 2.0  # once per batch: one plan lookup each

    def test_errors_cache_nothing(self, engine, operands):
        a, b = operands
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                engine.matmul(a.astype(np.float16), b)
        assert engine.plan_cache_size == 0
        assert engine.stats().plan_misses == 0
