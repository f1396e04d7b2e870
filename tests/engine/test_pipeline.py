"""The batch executor behind execute_batch: bitwise identity, policy,
telemetry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.engine.fused import fused_supported
from repro.engine.stats import StageCosts
from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry

DEFAULT = ExecutionPolicy()
FUSED = ExecutionPolicy(mode="fused")


def fresh_engine(**kwargs) -> MatmulEngine:
    kwargs.setdefault("registry", MetricsRegistry())
    return MatmulEngine(**kwargs)


def assert_bitwise_equal(results, reference):
    assert len(results) == len(reference)
    for got, ref in zip(results, reference):
        assert got.c.tobytes() == ref.c.tobytes()
        assert got.c_fc.tobytes() == ref.c_fc.tobytes()
        assert got.detected == ref.detected
        assert got.report.num_checks == ref.report.num_checks
        assert np.array_equal(got.report.column_disc, ref.report.column_disc)
        assert np.array_equal(got.report.row_disc, ref.report.row_disc)


class TestBitwiseIdentity:
    """The hard invariant: batched results are bitwise identical to
    sequential matmul calls — including padded edge blocks, float32 and
    the per-pair fallback when the stacked-GEMM probe fails."""

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(1, 120),
        n=st.integers(2, 96),  # inner dim >= p (the default top-p is 2)
        q=st.integers(1, 80),
        k=st.integers(2, 5),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_fused_matches_serial_property(self, m, n, q, k, dtype):
        rng = np.random.default_rng(m * 1000 + n * 10 + q + k)
        a = rng.uniform(-1, 1, (m, n)).astype(dtype)
        bs = [rng.uniform(-1, 1, (n, q)).astype(dtype) for _ in range(k)]
        engine = fresh_engine()
        reference = [MatmulEngine().matmul(a, b) for b in bs]
        results = engine.execute_batch([(a, b) for b in bs], policy=DEFAULT)
        assert_bitwise_equal(results, reference)

    def test_distinct_left_operands_stay_bitwise(self):
        rng = np.random.default_rng(23)
        pairs = [
            (rng.uniform(-1, 1, (64, 64)), rng.uniform(-1, 1, (64, 16)))
            for _ in range(4)
        ]
        reference = [MatmulEngine().matmul(a, b) for a, b in pairs]
        engine = fresh_engine()
        results = engine.execute_batch(pairs, policy=FUSED)
        assert_bitwise_equal(results, reference)

    def test_mixed_shapes_fall_back_and_stay_bitwise(self):
        rng = np.random.default_rng(24)
        a = rng.uniform(-1, 1, (64, 64))
        b1 = rng.uniform(-1, 1, (64, 8))
        b2 = rng.uniform(-1, 1, (64, 16))
        assert not fused_supported([a, a], [b1, b2], AbftConfig())
        engine = fresh_engine()
        results = engine.execute_batch([(a, b1), (a, b2)], policy=FUSED)
        reference = [MatmulEngine().matmul(a, b) for b in (b1, b2)]
        assert_bitwise_equal(results, reference)
        fallbacks = engine.registry.counter(
            "abft_pipeline_fallbacks_total", labelnames=("reason",)
        )
        assert fallbacks.labels(reason="unsupported").get() == 1

    def test_probe_pinned_signature_stays_bitwise_on_repeat(self):
        # Whatever verdict the first group's dual-compute probe reaches,
        # later batches of the same signature must reuse it and stay
        # bitwise — run the same batch twice through one engine.
        rng = np.random.default_rng(25)
        a = rng.uniform(-1, 1, (64, 48))
        bs = [rng.uniform(-1, 1, (48, 40)) for _ in range(4)]
        reference = [MatmulEngine().matmul(a, b) for b in bs]
        engine = fresh_engine()
        for _ in range(2):
            results = engine.execute_batch([(a, b) for b in bs], policy=DEFAULT)
            assert_bitwise_equal(results, reference)

    def test_injected_fault_detected_through_fused_provider(self):
        from repro.abft.checking import check_partitioned

        rng = np.random.default_rng(26)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(3)]
        engine = fresh_engine()
        results = engine.execute_batch([(a, b) for b in bs], policy=DEFAULT)
        res = results[2]
        assert not res.detected
        res.c_fc[3, 5] += 1.0
        report = check_partitioned(
            res.c_fc, res.row_layout, res.col_layout, res.provider
        )
        assert report.error_detected
        assert (3, 5) in report.located_errors


class TestExecutionPolicy:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExecutionPolicy(mode="turbo")

    def test_retired_pipelined_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExecutionPolicy(mode="pipelined")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            ExecutionPolicy(backend="blocked")  # retired field
        with pytest.raises(TypeError, match="fusion"):
            ExecutionPolicy(fusion="separate")  # retired field

    def test_replace_revalidates(self):
        policy = ExecutionPolicy()
        assert policy.replace(mode="fused").mode == "fused"
        with pytest.raises(ConfigurationError):
            policy.replace(mode="nope")

    def test_execute_batch_rejects_non_policy(self):
        engine = fresh_engine()
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            engine.execute_batch([], policy={"mode": "auto"})


class TestTelemetry:
    def test_mode_counter_tracks_auto_resolution(self):
        rng = np.random.default_rng(28)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(2)]
        engine = fresh_engine()
        engine.execute_batch([(a, b) for b in bs])  # auto -> fused
        engine.execute_batch([(a, bs[0])])  # single pair -> serial
        modes = engine.registry.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="fused").get() == 1
        assert modes.labels(mode="serial").get() == 1

    def test_stage_costs_in_stats(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(-1, 1, (64, 64))
        engine = fresh_engine()
        engine.matmul(a, a)
        costs = engine.stats().stage_costs
        assert isinstance(costs, StageCosts)
        for cost in (costs.encode, costs.multiply, costs.check):
            assert cost.observations >= 1
            assert cost.seconds > 0
            assert cost.mean == pytest.approx(
                cost.seconds / cost.observations
            )
        assert costs.mean_total() > 0

    def test_reset_stats_clears_pipeline_metrics(self):
        rng = np.random.default_rng(30)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(3)]
        engine = fresh_engine()
        engine.execute_batch([(a, b) for b in bs], policy=DEFAULT)
        engine.execute_batch([(a, b) for b in bs[:2]] + [(bs[2].T, a)],
                             policy=FUSED)  # mixed shapes: counted fallback
        reg = engine.registry
        fallbacks = reg.counter(
            "abft_pipeline_fallbacks_total", labelnames=("reason",)
        )
        assert fallbacks.labels(reason="unsupported").get() == 1
        engine.reset_stats()
        assert fallbacks.labels(reason="unsupported").get() == 0
        modes = reg.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="fused").get() == 0
        assert modes.labels(mode="serial").get() == 0
