"""The signature-keyed plan cache: one plan per call signature."""

import json

import numpy as np
import pytest

from repro.engine import MatmulEngine
from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry


@pytest.fixture
def operands():
    rng = np.random.default_rng(7)
    return rng.uniform(-1, 1, (70, 40)), rng.uniform(-1, 1, (40, 50))


@pytest.fixture
def engine():
    with MatmulEngine(registry=MetricsRegistry()) as eng:
        yield eng


class TestSignatureKey:
    def test_retired_fusion_env_var_keys_nothing(
        self, operands, monkeypatch, tmp_path
    ):
        # The retired GEMM-selection inputs: the fusion and backend pins
        # and an autotune cache file whose winner names a tiled backend.
        # None of them may reach the plan key or the product's bytes.
        a, b = operands
        cache = tmp_path / "autotune.json"
        cache.write_text(json.dumps({
            "version": 1,
            "entries": {
                "70x40x50/float64/aabft/bs64/p2": {
                    "backend": "blocked", "tile": 16,
                    "per_call_s": 1e-6, "baseline_per_call_s": 1.0,
                },
            },
        }))
        monkeypatch.setenv("AABFT_AUTOTUNE_CACHE", str(cache))
        with MatmulEngine(registry=MetricsRegistry()) as engine:
            first = engine.matmul(a, b)
            monkeypatch.setenv("AABFT_FUSION", "fused")
            monkeypatch.setenv("AABFT_BACKEND", "blocked")
            second = engine.matmul(a, b)
            assert engine.stats().plan_misses == 1
        assert np.array_equal(first.c, np.matmul(a, b))
        assert first.c.tobytes() == np.matmul(a, b).tobytes()
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

    def test_clear_plans_drops_the_entry(self, engine, operands):
        a, b = operands
        engine.matmul(a, b)
        assert engine.plan_cache_size == 1
        engine.clear_plans()
        assert engine.plan_cache_size == 0
        assert engine.matmul(a, b).c.tobytes() == np.matmul(a, b).tobytes()
        assert engine.stats().plan_misses == 2


class TestFallbacksReplayed:
    def test_errors_cache_nothing(self, engine, operands):
        a, b = operands
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                engine.matmul(a.astype(np.float16), b)
        assert engine.plan_cache_size == 0
        assert engine.stats().plan_misses == 0
