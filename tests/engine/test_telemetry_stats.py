"""EngineStats-from-registry equivalence and concurrent-metering safety."""

from __future__ import annotations

import numpy as np
import pytest

from repro.abft.checking import check_partitioned
from repro.abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_rows,
    pad_to_block_multiple,
)
from repro.abft.providers import AABFTEpsilonProvider
from repro.bounds.probabilistic import ProbabilisticBound
from repro.bounds.upper_bound import top_p_of_columns, top_p_of_rows
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.fp.constants import format_for_dtype
from repro.kernels.sideproduct import (
    assemble_full_checksum,
    block_checksums,
    side_products,
)
from repro.telemetry import MetricsRegistry


@pytest.fixture
def config() -> AbftConfig:
    return AbftConfig(block_size=32, p=2)


def reference_matmul(a, b, block_size=32, p=2):
    """The pre-engine per-call path, re-derived from the primitives."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_pad, _ = pad_to_block_multiple(a, block_size, axis=0)
    b_pad, _ = pad_to_block_multiple(b, block_size, axis=1)
    a_cc, row_layout = encode_partitioned_columns(a_pad, block_size)
    b_rc, col_layout = encode_partitioned_rows(b_pad, block_size)
    # The side-product definition: the raw product plus thin checksum
    # GEMMs, assembled into the full-checksum layout.
    products = side_products(
        a,
        block_checksums(a, "a", block_size),
        b,
        block_checksums(b, "b", block_size),
    )
    c_fc = assemble_full_checksum(products, row_layout, col_layout)
    provider = AABFTEpsilonProvider(
        scheme=ProbabilisticBound(
            omega=3.0, fma=False, fmt=format_for_dtype(c_fc.dtype)
        ),
        row_tops=top_p_of_rows(a_cc, p),
        col_tops=top_p_of_columns(b_rc, p),
        row_layout=row_layout,
        col_layout=col_layout,
        inner_dim=a_pad.shape[1],
    )
    report = check_partitioned(c_fc, row_layout, col_layout, provider)
    return products.c, report


class TestStatsEquivalence:
    """stats() derived from registry metrics matches the old direct counters."""

    def test_counts_match_scripted_workload(self, config, small_pair):
        a, b = small_pair
        engine = MatmulEngine(config, max_workers=1)
        engine.matmul(a, b)
        engine.matmul(a, b)
        handle = engine.encode(a, side="a")
        engine.matmul(handle, b)
        engine.execute_batch(
            [(a, b)] * 3, policy=ExecutionPolicy(mode="serial")
        )

        stats = engine.stats()
        assert stats.calls == 6
        assert stats.batched_calls == 1
        # one explicit handle reuse + six batch reuses: the serial batch
        # dedups *both* repeated operands (`a` and `b` each appear three
        # times), pre-encodes each once and reuses it per pair.
        assert stats.encode_reuses == 7
        assert stats.detections == 0
        assert stats.plan_misses == 1
        assert stats.plan_hits == 5

    def test_seconds_are_registry_counters_bitwise(self, config, small_pair):
        a, b = small_pair
        engine = MatmulEngine(config, max_workers=1)
        for _ in range(3):
            engine.matmul(a, b)
        stats = engine.stats()
        reg = engine.registry
        stage = reg.counter("abft_engine_stage_seconds_total", labelnames=("stage",))
        assert stats.encode_seconds == stage.labels(stage="encode").get()
        assert stats.multiply_seconds == stage.labels(stage="multiply").get()
        assert stats.check_seconds == stage.labels(stage="check").get()
        assert stats.total_seconds == pytest.approx(
            stats.encode_seconds + stats.multiply_seconds + stats.check_seconds
        )
        hist = reg.histogram("abft_engine_stage_seconds", labelnames=("stage",))
        assert hist.labels(stage="multiply").count == 3

    def test_results_bitwise_identical_to_reference(self, config, small_pair):
        a, b = small_pair
        engine = MatmulEngine(config, max_workers=1)
        result = engine.matmul(a, b)
        ref_c, ref_report = reference_matmul(a, b)
        assert np.array_equal(result.c, ref_c)
        assert result.detected == ref_report.error_detected

    def test_reset_stats_zeroes_registry_metrics(self, config, small_pair):
        a, b = small_pair
        engine = MatmulEngine(config, max_workers=1)
        engine.matmul(a, b)
        engine.reset_stats()
        stats = engine.stats()
        assert stats.calls == 0
        assert stats.encode_seconds == 0.0
        assert stats.plan_hits == 0
        hist = engine.registry.histogram(
            "abft_engine_stage_seconds", labelnames=("stage",)
        )
        assert hist.labels(stage="encode").count == 0

    def test_stats_refreshes_plan_gauges(self, config, small_pair):
        a, b = small_pair
        engine = MatmulEngine(config, max_workers=1)
        engine.matmul(a, b)
        engine.matmul(a, b)
        engine.stats()
        gauge = engine.registry.gauge(
            "abft_engine_plan_cache", labelnames=("event",)
        )
        assert gauge.labels(event="hit").get() == 1
        assert gauge.labels(event="miss").get() == 1
        assert gauge.labels(event="cached").get() == 1


class TestSharedRegistry:
    def test_engine_accepts_external_registry(self, config, small_pair):
        a, b = small_pair
        reg = MetricsRegistry()
        engine = MatmulEngine(config, max_workers=1, registry=reg)
        engine.matmul(a, b)
        assert engine.registry is reg
        snap = reg.snapshot()
        assert snap["abft_engine_calls_total"]["values"][0]["value"] == 1.0

    def test_prometheus_scrape_agrees_with_stats(self, config, small_pair):
        a, b = small_pair
        reg = MetricsRegistry()
        engine = MatmulEngine(config, max_workers=1, registry=reg)
        engine.matmul(a, b)
        engine.matmul(a, b)
        assert engine.stats().calls == 2
        assert "abft_engine_calls_total 2.0" in reg.prometheus_text()


class TestConcurrentMetering:
    """Registry counters stay exact under threaded serial batches."""

    def test_concurrent_serial_batch(self, config, rng):
        pairs = 12
        a_items = [rng.uniform(-1, 1, (64, 64)) for _ in range(pairs)]
        b_items = [rng.uniform(-1, 1, (64, 64)) for _ in range(pairs)]
        serial = ExecutionPolicy(mode="serial")

        threaded = MatmulEngine(config, max_workers=4)
        results = threaded.execute_batch(
            list(zip(a_items, b_items)), policy=serial
        )
        stats = threaded.stats()
        assert stats.calls == pairs
        assert stats.batched_calls == 1
        assert stats.detections == 0
        hist = threaded.registry.histogram(
            "abft_engine_stage_seconds", labelnames=("stage",)
        )
        assert hist.labels(stage="check").count == pairs

        sequential = MatmulEngine(config, max_workers=1)
        expected = sequential.execute_batch(
            list(zip(a_items, b_items)), policy=serial
        )
        for res, exp in zip(results, expected):
            assert np.array_equal(res.c, exp.c)
