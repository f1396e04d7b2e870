"""Fused execute_batch: bitwise identity with the serial path, fallbacks,
metrics, and the serving layer's default route through it."""

import numpy as np
import pytest

from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.engine.fused import fused_supported
from repro.errors import ShapeError
from repro.serve import MatmulServer, ServeConfig, VerificationStatus
from repro.telemetry import MetricsRegistry

FUSED = ExecutionPolicy(mode="fused")


@pytest.fixture
def engine():
    return MatmulEngine()


def assert_results_bitwise_equal(fused, serial):
    for got, ref in zip(fused, serial):
        assert np.array_equal(got.c, ref.c)
        assert np.array_equal(got.c_fc, ref.c_fc)
        assert got.detected == ref.detected
        assert got.report.num_checks == ref.report.num_checks


class TestBitwiseIdentity:
    def test_shared_left_operand(self, engine):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(4)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        fused = engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        assert_results_bitwise_equal(fused, serial)

    def test_distinct_pairs(self, engine):
        rng = np.random.default_rng(1)
        pairs = [
            (rng.uniform(-1, 1, (64, 64)), rng.uniform(-1, 1, (64, 8)))
            for _ in range(3)
        ]
        serial = [MatmulEngine().matmul(a, b) for a, b in pairs]
        fused = engine.execute_batch(pairs, policy=FUSED)
        assert_results_bitwise_equal(fused, serial)

    def test_padded_shapes(self, engine):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (100, 130))  # non-multiples of block size
        bs = [rng.uniform(-1, 1, (130, 70)) for _ in range(3)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        fused = engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        assert_results_bitwise_equal(fused, serial)

    def test_float32_batch(self, engine):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (64, 64)).astype(np.float32)
        bs = [rng.uniform(-1, 1, (64, 8)).astype(np.float32) for _ in range(3)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        fused = engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        assert fused[0].c.dtype == np.float32
        assert_results_bitwise_equal(fused, serial)

    def test_epsilon_floor_respected(self, engine):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        cfg = AbftConfig(epsilon_floor=1e-10)
        serial = [MatmulEngine().matmul(a, b, config=cfg) for b in bs]
        fused = engine.execute_batch(
            [(a, b) for b in bs], policy=FUSED, config=cfg
        )
        assert_results_bitwise_equal(fused, serial)

    def test_encoded_handles_reused(self, engine):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        handle = engine.encode(a, side="a")
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        before = engine.stats().encode_reuses
        fused = engine.execute_batch([(handle, b) for b in bs], policy=FUSED)
        assert_results_bitwise_equal(fused, serial)
        assert engine.stats().encode_reuses - before == 3

    def test_detection_matches_serial(self, engine):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        fused = engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        assert all(not r.detected for r in fused)
        # inject into a fused result; its provider must still locate it
        from repro.abft.checking import check_partitioned

        res = fused[1]
        res.c_fc[3, 5] += 1.0
        report = check_partitioned(
            res.c_fc, res.row_layout, res.col_layout, res.provider
        )
        assert report.error_detected
        assert (3, 5) in report.located_errors


class TestFallbacks:
    def test_sea_scheme_falls_back_to_serial(self, engine):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        cfg = AbftConfig(scheme="sea")
        results = engine.execute_batch(
            [(a, b) for b in bs], policy=FUSED, config=cfg
        )
        serial = [MatmulEngine().matmul(a, b, config=cfg) for b in bs]
        assert_results_bitwise_equal(results, serial)

    def test_heterogeneous_shapes_fall_back(self, engine):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (64, 64))
        b1 = rng.uniform(-1, 1, (64, 8))
        b2 = rng.uniform(-1, 1, (64, 16))
        cfg = engine.config
        assert not fused_supported([a, a], [b1, b2], cfg)
        results = engine.execute_batch([(a, b1), (a, b2)], policy=FUSED)
        assert results[0].c.shape == (64, 8)
        assert results[1].c.shape == (64, 16)

    def test_single_pair_falls_back(self, engine):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        assert not fused_supported([a], [b], engine.config)
        results = engine.execute_batch([(a, b)], policy=FUSED)
        assert len(results) == 1 and not results[0].detected

    def test_mixed_precision_pairs_fall_back(self, engine):
        # an all-float32 pair resolves to float32 while the batch as a
        # whole resolves to float64 -> per-pair dtypes diverge, no fusing
        rng = np.random.default_rng(10)
        a64 = rng.uniform(-1, 1, (64, 64))
        b64 = rng.uniform(-1, 1, (64, 8))
        a32 = a64.astype(np.float32)
        b32 = b64.astype(np.float32)
        assert not fused_supported([a32, a64], [b32, b64], engine.config)
        results = engine.execute_batch([(a32, b32), (a64, b64)], policy=FUSED)
        assert results[0].c.dtype == np.float32
        assert results[1].c.dtype == np.float64

    def test_uniform_promotion_still_fuses(self, engine):
        # float32 right operands against a float64 left operand promote
        # uniformly to float64 -> the fused path applies and stays bitwise
        rng = np.random.default_rng(14)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)).astype(np.float32) for _ in range(2)]
        assert fused_supported([a, a], bs, engine.config)
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        fused = engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        assert_results_bitwise_equal(fused, serial)

    def test_malformed_request_raises(self, engine):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        with pytest.raises(ShapeError):
            engine.execute_batch([(a, b), (a, b, b)], policy=FUSED)


class TestMetrics:
    def test_fused_counts_calls_and_reuses(self, engine):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(4)]
        engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        stats = engine.stats()
        assert stats.calls == 4
        assert stats.batched_calls == 1
        # the shared A is encoded once, reused for the other three pairs
        assert stats.encode_reuses == 3

    def test_stage_timers_accumulate(self, engine):
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        engine.execute_batch([(a, b) for b in bs], policy=FUSED)
        stats = engine.stats()
        assert stats.encode_seconds > 0
        assert stats.multiply_seconds > 0
        assert stats.check_seconds > 0


class TestStackReuse:
    """The encode's side-by-side stack is the stacked GEMM's operand."""

    def stacked_args(self, monkeypatch, pairs):
        from repro.engine import fused

        seen = []
        real = fused.group_products

        def spy(engine, plan, enc_a, enc_bs, stacked_b=None):
            seen.append(stacked_b)
            return real(engine, plan, enc_a, enc_bs, stacked_b)

        monkeypatch.setattr(fused, "group_products", spy)
        results = MatmulEngine().execute_batch(pairs, policy=FUSED)
        serial = [MatmulEngine().matmul(a, b) for a, b in pairs]
        assert_results_bitwise_equal(results, serial)
        return seen

    def test_distinct_right_operands_reuse_the_stack(self, monkeypatch):
        rng = np.random.default_rng(19)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(4)]
        (stacked,) = self.stacked_args(monkeypatch, [(a, b) for b in bs])
        assert np.array_equal(stacked, np.hstack(bs))

    def test_repeated_right_operand_does_not(self, monkeypatch):
        rng = np.random.default_rng(20)
        a = rng.uniform(-1, 1, (64, 64))
        b0, b1 = (rng.uniform(-1, 1, (64, 16)) for _ in range(2))
        seen = self.stacked_args(monkeypatch, [(a, b0), (a, b1), (a, b0)])
        assert seen == [None]


class TestServingDefault:
    def test_default_server_runs_a_full_batch_fused(self):
        rng = np.random.default_rng(18)
        w = rng.uniform(-1, 1, (256, 256))
        xs = [rng.uniform(-1, 1, (256, 16)) for _ in range(32)]
        server = MatmulServer(
            ServeConfig(), registry=MetricsRegistry(), auto_start=False
        )
        futs = [server.submit(w, x) for x in xs]
        server.start()
        server.stop(drain=True)
        server.engine.close()
        responses = [f.result() for f in futs]
        modes = server.engine.registry.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="fused").get() == 1
        assert modes.labels(mode="serial").get() == 0
        assert all(r.batch_size == 32 for r in responses)
        serial = MatmulEngine()
        for x, r in zip(xs, responses):
            ref = serial.matmul(w, x)
            assert r.status is VerificationStatus.FULL
            assert r.c.tobytes() == ref.c.tobytes()
            assert r.report.num_checks == ref.report.num_checks
            assert np.array_equal(r.report.column_disc, ref.report.column_disc)
            assert np.array_equal(r.report.row_disc, ref.report.row_disc)
