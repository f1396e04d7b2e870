"""The side-product multiply: reference equivalence, routes and top-p.

The engine multiplies the raw operands once (``C = A @ B``) and checks
block sums of ``C`` against the thin checksum GEMMs ``R = EA @ B``,
``K = A @ EB`` and ``X = EA @ EB``.  These tests pin that primitive:

* its report equals the scalar reference check of the assembled
  full-checksum matrix, clean and with a bit flipped in any of the four
  products, for every scheme;
* ``c`` is ``np.matmul``'s bytes;
* no engine route pads, interleaves or strips an operand or result;
* every route agrees bitwise (single calls, serial and fused batches);
* a rank-1 product never raises (``p`` clamps to the inner length);
* ``top_p_arrays`` is Algorithm 1's literal scan.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abft import encoding
from repro.abft.checking import check_partitioned
from repro.bounds import upper_bound
from repro.bounds.upper_bound import SEARCH_BLOCK, top_p_arrays
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.kernels import encode_fused, sideproduct
from repro.models.runner import ModelRunner
from repro.models.spec import LayerSpec, ModelSpec
from repro.serve.config import ServeConfig
from repro.serve.server import MatmulServer
from repro.telemetry import MetricsRegistry, get_registry

SCHEMES = {
    "aabft": dict(scheme="aabft"),
    "sea": dict(scheme="sea"),
    "adaptive": dict(scheme="adaptive"),
    "fixed": dict(scheme="fixed", fixed_epsilon=1e-6),
}


def fresh_engine(config=None, **kwargs) -> MatmulEngine:
    return MatmulEngine(config, registry=MetricsRegistry(), **kwargs)


def assert_reports_equal(got, ref):
    assert np.array_equal(got.column_disc, ref.column_disc, equal_nan=True)
    assert np.array_equal(got.row_disc, ref.row_disc, equal_nan=True)
    assert got.findings == ref.findings
    assert got.located_errors == ref.located_errors
    assert got.num_checks == ref.num_checks


class TestReportEqualsScalarReference:
    """The side-product check is the scalar check of the assembled matrix."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        bs=st.sampled_from([16, 32, 64]),
        m=st.integers(1, 90),
        q=st.integers(1, 90),
        k_frac=st.floats(0.0, 1.0),
        dtype=st.sampled_from([np.float64, np.float32]),
        scheme=st.sampled_from(sorted(SCHEMES)),
        target=st.sampled_from(["none", "c", "r", "k", "x"]),
        bit=st.integers(0, 22),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clean_and_flipped(
        self, bs, m, q, k_frac, dtype, scheme, target, bit, seed
    ):
        cfg = AbftConfig(block_size=bs, **SCHEMES[scheme])
        k = cfg.p + int(k_frac * (2 * bs - cfg.p))
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m, k)).astype(dtype)
        b = rng.uniform(-1, 1, (k, q)).astype(dtype)
        engine = fresh_engine(cfg)
        if target != "none":
            engine.set_chaos_hook(_flip_hook(target, bit, rng, m, q, bs))
        result = engine.matmul(a, b)
        ref = check_partitioned(
            result.c_fc, result.row_layout, result.col_layout,
            result.provider, use_grids=False,
        )
        assert_reports_equal(result.report, ref)


def _flip_hook(target, bit, rng, m, q, bs):
    """Flip one mantissa bit of an element of C, R, K or X in ``C_fc``."""

    def hook(event, **kwargs):
        if event != "result":
            return
        c_fc = kwargs["c_fc"]
        row = int(rng.integers(m))
        col = int(rng.integers(q))
        r = row // bs * (bs + 1) + row % bs
        c = col // bs * (bs + 1) + col % bs
        if target in ("r", "x"):
            r = row // bs * (bs + 1) + bs
        if target in ("k", "x"):
            c = col // bs * (bs + 1) + bs
        cell = c_fc[r, c : c + 1]
        view = cell.view(np.uint64 if cell.dtype == np.float64 else np.uint32)
        view ^= type(view[0])(1 << bit)

    return hook


class TestChunkedPaths:
    """The cache-sized chunk loops agree with the references.

    Shrinking ``CHUNK_BYTES`` cuts even small results and operands into
    many chunks; the 512x512 cases cross the real chunk size.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        bs=st.sampled_from([16, 32]),
        m=st.integers(1, 150),
        q=st.integers(1, 150),
        dtype=st.sampled_from([np.float64, np.float32]),
        scheme=st.sampled_from(sorted(SCHEMES)),
        target=st.sampled_from(["none", "c", "r", "k", "x"]),
        chunk_bytes=st.sampled_from([64, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_with_tiny_chunks(
        self, bs, m, q, dtype, scheme, target, chunk_bytes, seed
    ):
        cfg = AbftConfig(block_size=bs, **SCHEMES[scheme])
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m, 40)).astype(dtype)
        b = rng.uniform(-1, 1, (40, q)).astype(dtype)
        engine = fresh_engine(cfg)
        if target != "none":
            engine.set_chaos_hook(_flip_hook(target, 20, rng, m, q, bs))
        with mock.patch.object(upper_bound, "CHUNK_BYTES", chunk_bytes):
            result = engine.matmul(a, b)
        ref = check_partitioned(
            result.c_fc, result.row_layout, result.col_layout,
            result.provider, use_grids=False,
        )
        assert_reports_equal(result.report, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_report_at_512(self, dtype):
        rng = np.random.default_rng(512)
        a = rng.uniform(-1, 1, (512, 512)).astype(dtype)
        b = rng.uniform(-1, 1, (512, 500)).astype(dtype)
        assert a.nbytes > upper_bound.CHUNK_BYTES
        result = fresh_engine().matmul(a, b)
        ref = check_partitioned(
            result.c_fc, result.row_layout, result.col_layout,
            result.provider, use_grids=False,
        )
        assert_reports_equal(result.report, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_encode_at_512(self, dtype, side):
        rng = np.random.default_rng(7)
        shape = (500, 512) if side == "a" else (512, 500)
        x = rng.uniform(-1, 1, shape).astype(dtype)
        x[3, 5] = x[3, 6] = x[4, 5] = 2.0  # ties on both axes
        axis = 0 if side == "a" else 1
        res = encode_fused.fused_encode(x, side, 64, p=3)
        padded, _ = encoding.pad_to_block_multiple(x, 64, axis=axis)
        if side == "a":
            ref, _ = encoding.encode_partitioned_columns_reference(padded, 64)
            vectors = ref
        else:
            ref, _ = encoding.encode_partitioned_rows_reference(padded, 64)
            vectors = ref.T
        assert res.encoded.tobytes() == ref.tobytes()
        ref_vals, ref_idx = sorted_top_p(vectors, 3)
        assert np.array_equal(res.top_values, ref_vals)
        assert np.array_equal(res.top_indices, ref_idx)


def _padded_block_sums(x3, bs, dtype):
    """The reference: every trailing partial block zero-padded to ``bs``."""
    rows, items, q = x3.shape
    full = q // bs
    tail = np.zeros((rows, items, bs), dtype=dtype)
    tail[:, :, : q - full * bs] = x3[:, :, full * bs :]
    return np.add.reduce(tail, axis=2)


def _special_entries(rng, shape, dtype):
    """Values of every magnitude plus ±0, ±Inf, NaN and subnormals."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    info = np.finfo(dtype)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan,
         float(info.smallest_subnormal), -3 * float(info.smallest_subnormal)]
    )
    mask = rng.random(shape) < 0.15
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    # Some rows hold only negative zeros: their block sums are exactly 0.
    x[rng.random(shape[:-1]) < 0.1] = -0.0
    return x.astype(dtype)


def _assert_bitwise(got, ref):
    """Bit for bit, NaN payloads and the sign of zero included.

    A padded and an unpadded block could only differ in the sign of an
    exactly-zero sum (padding adds +0), but numpy's add reduction starts
    from +0, so an all-negative-zero block sums to +0 either way.
    """
    uint = np.dtype(f"u{got.itemsize}")
    assert np.array_equal(
        np.ascontiguousarray(got).view(uint),
        np.ascontiguousarray(ref).view(uint),
    )


class TestNarrowBlockSums:
    """A partial block summed over :func:`sideproduct.pairwise_span` terms
    equals the zero-padded full-block sum at every partial width."""

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.integers(1, 33),
        rows=st.integers(1, 9),
        full=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_zero_padded_reference(self, items, rows, full, seed):
        rng = np.random.default_rng(seed)
        with np.errstate(invalid="ignore", over="ignore"):
            self._check_every_width(rng, items, rows, full)

    @staticmethod
    def _check_every_width(rng, items, rows, full):
        for bs in (16, 32, 64):
            for width in range(1, bs):
                q = full * bs + width
                nb = full + 1
                for dtype in (np.float32, np.float64):
                    x = _special_entries(rng, (rows, items * q), dtype)
                    x3 = x.reshape(rows, items, q)
                    # Row sums of every column block, float64 (the checks).
                    out = np.empty((rows, items * nb))
                    sideproduct._col_block_sums(x, bs, nb, items, out)
                    ref = _padded_block_sums(x3, bs, np.float64)
                    _assert_bitwise(out.reshape(rows, items, nb)[:, :, -1], ref)
                    # The right operand's EB in its own dtype, item by item
                    # as fused_encode's stacked encode lays it out.
                    eb = sideproduct.block_checksums(
                        x.reshape(rows * items, q), "b", bs
                    )
                    ref = _padded_block_sums(
                        x.reshape(rows * items, 1, q), bs, dtype
                    )
                    assert eb.dtype == dtype
                    _assert_bitwise(eb[:, -1], ref[:, 0])

    def test_span(self):
        spans = [sideproduct.pairwise_span(w, 64) for w in range(1, 64)]
        assert spans[:3] == [1, 2, 3]
        assert spans[3:8] == [8] * 5
        assert spans[15] == 16 and spans[16] == 24
        assert sideproduct.pairwise_span(17, 20) == 20


def sorted_top_p(vectors, p):
    """Top-p of every row by a stable sort: the first occurrence of equal
    absolute values ranks first, NaN ranks last."""
    work = np.abs(vectors.astype(np.float64))
    work[np.isnan(work)] = -np.inf
    idx = np.argsort(-work, axis=1, kind="stable")[:, :p]
    return np.take_along_axis(work, idx, axis=1), idx


class TestEncodeSnapshot:
    def test_handle_ignores_later_changes_to_the_operand(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (70, 50))
        b = rng.uniform(-1, 1, (50, 30))
        engine = fresh_engine()
        handle = engine.encode(a, side="a")
        expected = np.matmul(a, b)
        a *= 3.0
        result = engine.matmul(handle, b)
        assert not result.detected
        assert result.c.tobytes() == expected.tobytes()
        assert not handle.data.flags.writeable


class TestResultBytes:
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_c_is_np_matmul_at_gemm_large_classes(self, n, dtype):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, (n, n)).astype(dtype)
        b = rng.uniform(-1, 1, (n, n)).astype(dtype)
        result = fresh_engine().matmul(a, b)
        assert result.c.tobytes() == np.matmul(a, b).tobytes()

    def test_c_is_np_matmul_at_the_serving_shape(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(-1, 1, (256, 256))
        bs = [rng.uniform(-1, 1, (256, 16)) for _ in range(8)]
        engine = fresh_engine()
        for b in bs:
            assert engine.matmul(a, b).c.tobytes() == np.matmul(a, b).tobytes()
        batch = engine.execute_batch([(a, b) for b in bs])
        for b, result in zip(bs, batch):
            assert result.c.tobytes() == np.matmul(a, b).tobytes()


class TestRankOneProducts:
    """``p`` clamps to the inner length, so k=1 returns a result."""

    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (128, 1))
        bs = [rng.uniform(-1, 1, (1, 128)) for _ in range(3)]
        return a, bs

    def test_matmul(self, operands):
        a, bs = operands
        result = fresh_engine().matmul(a, bs[0])
        assert result.c.tobytes() == np.matmul(a, bs[0]).tobytes()

    @pytest.mark.parametrize("mode", ["serial", "fused"])
    def test_execute_batch(self, operands, mode):
        a, bs = operands
        results = fresh_engine().execute_batch(
            [(a, b) for b in bs], policy=ExecutionPolicy(mode=mode)
        )
        for b, result in zip(bs, results):
            assert result.c.tobytes() == np.matmul(a, b).tobytes()

    def test_matmul_server(self, operands):
        a, bs = operands
        with MatmulServer(
            ServeConfig(batch_window_s=0.0), registry=MetricsRegistry()
        ) as server:
            futures = [server.submit(a, b) for b in bs]
            responses = [f.result(timeout=30) for f in futures]
        for b, response in zip(bs, responses):
            assert response.c is not None
            assert np.array_equal(response.c, np.matmul(a, b))


class TestGridFallbackCounted:
    def test_raising_epsilon_grids_advances_the_counter(self):
        rng = np.random.default_rng(3)
        result = fresh_engine().matmul(
            rng.uniform(-1, 1, (40, 30)), rng.uniform(-1, 1, (30, 20))
        )

        class RaisingGrids:
            def __init__(self, inner):
                self.inner = inner

            def column_epsilon(self, block_row, encoded_col):
                return self.inner.column_epsilon(block_row, encoded_col)

            def row_epsilon(self, encoded_row, block_col):
                return self.inner.row_epsilon(encoded_row, block_col)

            def epsilon_grids(self, row_layout, col_layout):
                raise FloatingPointError("grid form rejected the input")

        counter = get_registry().counter(
            "abft_check_grid_fallbacks_total", labelnames=("reason",)
        ).labels(reason="FloatingPointError")
        before = counter.get()
        report = check_partitioned(
            result.c_fc, result.row_layout, result.col_layout,
            RaisingGrids(result.provider),
        )
        assert counter.get() == before + 1
        assert_reports_equal(report, result.report)


#: Interleaved-layout helpers no engine route may call.
FORBIDDEN = {
    encoding: (
        "pad_to_block_multiple",
        "encode_partitioned_columns",
        "encode_partitioned_rows",
        "encode_partitioned_columns_reference",
        "encode_partitioned_rows_reference",
        "strip_encoding",
        "strip_data_rows",
        "strip_data_columns",
    ),
    encode_fused: ("interleave_operand",),
    sideproduct: ("assemble_full_checksum", "scatter_full_checksum"),
}


@pytest.fixture
def no_interleaved_layout(monkeypatch):
    """Make every pad / interleave / strip entry point raise, wherever
    a ``repro`` module imported it."""
    originals = {
        getattr(module, name): name
        for module, names in FORBIDDEN.items()
        for name in names
    }
    originals[np.pad] = "np.pad"

    def forbid(name):
        def call(*_args, **_kwargs):
            raise AssertionError(f"{name} called on an engine route")

        return call

    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in originals:
                monkeypatch.setattr(module, attr, forbid(originals[value]))
    monkeypatch.setattr(np, "pad", forbid("np.pad"))


class TestNoInterleavedLayout:
    def test_no_route_pads_interleaves_or_strips(self, no_interleaved_layout):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (70, 50))
        bs = [rng.uniform(-1, 1, (50, 30)) for _ in range(4)]
        engine = fresh_engine()
        engine.matmul(a, bs[0])
        handle_a = engine.encode(a, side="a")
        handle_b = engine.encode(bs[0], side="b")
        engine.matmul(handle_a, handle_b)
        for mode in ("serial", "fused"):
            engine.execute_batch(
                [(a, b) for b in bs], policy=ExecutionPolicy(mode=mode)
            )
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, activation="none") for i in range(3)
        )
        run = ModelRunner(fresh_engine()).run(ModelSpec("chain", 32, layers))
        assert run.reuse_count == 2


def _route_results(a, bs, dtype_cfg):
    """Every route's results for the same pairs."""
    serial = [fresh_engine(dtype_cfg).matmul(a, b) for b in bs]
    routes = {"serial": serial}
    for mode in ("serial", "fused"):
        routes[f"batch-{mode}"] = fresh_engine(dtype_cfg).execute_batch(
            [(a, b) for b in bs], policy=ExecutionPolicy(mode=mode)
        )
    return routes


class TestCrossRouteBitwise:
    @settings(max_examples=12, deadline=None)
    @given(
        m=st.integers(1, 80),
        k=st.integers(2, 70),
        q=st.integers(1, 80),
        count=st.integers(2, 4),
        dtype=st.sampled_from([np.float64, np.float32]),
        bs=st.sampled_from([16, 32]),
    )
    def test_every_route_agrees(self, m, k, q, count, dtype, bs):
        rng = np.random.default_rng(m * 7919 + k * 31 + q)
        a = rng.uniform(-1, 1, (m, k)).astype(dtype)
        bs_ = [rng.uniform(-1, 1, (k, q)).astype(dtype) for _ in range(count)]
        routes = _route_results(a, bs_, AbftConfig(block_size=bs))
        reference = routes.pop("serial")
        for name, results in routes.items():
            for got, ref in zip(results, reference):
                assert got.c.tobytes() == ref.c.tobytes(), name
                assert got.c_fc.tobytes() == ref.c_fc.tobytes(), name
                assert np.array_equal(
                    got.report.column_disc, ref.report.column_disc
                ), name
                assert np.array_equal(
                    got.report.row_disc, ref.report.row_disc
                ), name


def literal_top_p(vector, p):
    """Algorithm 1's max search, literally: ``p`` rounds of a strict ``>``
    scan from index 0, with NaN losing every comparison."""
    work = [
        -np.inf if np.isnan(v) else abs(float(v)) for v in np.asarray(vector)
    ]
    vals, ids = [], []
    for _ in range(p):
        best = 0
        for j in range(1, len(work)):
            if work[j] > work[best]:
                best = j
        vals.append(work[best])
        ids.append(best)
        work[best] = -np.inf
    return np.array(vals), np.array(ids, dtype=np.intp)


special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf])


class TestTopPIsTheLiteralScan:
    @settings(max_examples=200, deadline=None)
    @given(
        length=st.sampled_from(
            [1, 2, 3, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1,
             2 * SEARCH_BLOCK + 5]
        ),
        vectors=st.integers(1, 5),
        p_frac=st.floats(0.0, 1.0),
        axis=st.sampled_from([0, 1]),
        dtype=st.sampled_from([np.float64, np.float32]),
        two_level=st.booleans(),
        chunk_bytes=st.sampled_from([64, upper_bound.CHUNK_BYTES]),
        data=st.data(),
    )
    def test_matches_literal_scan(
        self, length, vectors, p_frac, axis, dtype, two_level, chunk_bytes,
        data,
    ):
        p = 1 + int(p_frac * (length - 1))
        values = data.draw(
            st.lists(
                st.one_of(special, st.integers(-3, 3).map(float)),
                min_size=length * vectors,
                max_size=length * vectors,
            )
        )
        vecs = np.array(values, dtype=dtype).reshape(vectors, length)
        matrix = vecs if axis == 1 else np.ascontiguousarray(vecs.T)
        snapshot = matrix.copy()
        # Small matrices take the transposed column route; zeroing its
        # threshold forces the two-level search, and a tiny chunk size
        # forces the chunked passes.
        transpose_bytes = 0 if two_level else upper_bound._TRANSPOSE_BYTES
        with mock.patch.object(
            upper_bound, "_TRANSPOSE_BYTES", transpose_bytes
        ), mock.patch.object(upper_bound, "CHUNK_BYTES", chunk_bytes):
            vals, idx = top_p_arrays(matrix, p, axis=axis)
        assert vals.dtype == np.float64
        for v, vec in enumerate(vecs):
            ref_vals, ref_idx = literal_top_p(vec, p)
            assert np.array_equal(vals[v], ref_vals)
            assert np.array_equal(idx[v], ref_idx)
        assert np.array_equal(matrix, snapshot, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_zero_vectors(self, axis):
        zeros = np.zeros((SEARCH_BLOCK + 3, 4))
        matrix = np.ascontiguousarray(zeros.T) if axis == 1 else zeros
        vals, idx = top_p_arrays(matrix, 3, axis=axis)
        assert np.array_equal(vals, np.zeros((4, 3)))
        assert np.array_equal(idx, np.tile(np.arange(3), (4, 1)))

