"""Raw operands against pre-encoded handles: the same bytes on every route.

A small raw pair is encoded in one stacked top-p search over both operands
(:func:`~repro.kernels.encode_fused.fused_encode_pair`) and checked through
the one-buffer tolerance and discrepancy grids of :mod:`repro.abft.grids`.
Pre-encoded handles take the per-operand encode.  Both must produce the
same result bytes, discrepancy grids, tolerance grids and verdict — or
raise the same error — including on operands holding NaN or +-Inf.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abft.grids import CheckGrids, aabft_tolerance_grids
from repro.engine import AbftConfig, MatmulEngine
from repro.kernels.encode_fused import fused_encode, fused_encode_pair
from repro.kernels.encode_fused import pair_search_order

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BS = 16
CONFIG = AbftConfig(block_size=BS)

#: Dimensions that are not block multiples.
dims = st.integers(1, 3 * BS).filter(lambda d: d % BS)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _outcome(run):
    """``("ok", result)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", run())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), str(exc))


def _findings(report):
    return [
        (f.axis, f.block_row, f.block_col, f.encoded_row, f.encoded_col,
         _bits(np.float64(f.discrepancy)), _bits(np.float64(f.epsilon)))
        for f in report.findings
    ]


def assert_same(x, y) -> None:
    assert x[0] == y[0], (x, y)
    if x[0] == "raised":
        assert x[1:] == y[1:]
        return
    rx, ry = x[1], y[1]
    assert rx.c.dtype == ry.c.dtype
    assert _bits(rx.c) == _bits(ry.c)
    assert _bits(rx.report.column_disc) == _bits(ry.report.column_disc)
    assert _bits(rx.report.row_disc) == _bits(ry.report.row_disc)
    gx = rx.provider.epsilon_grids(rx.row_layout, rx.col_layout)
    gy = ry.provider.epsilon_grids(ry.row_layout, ry.col_layout)
    assert _bits(gx[0]) == _bits(gy[0]) and _bits(gx[1]) == _bits(gy[1])
    assert rx.detected == ry.detected
    assert _findings(rx.report) == _findings(ry.report)
    assert rx.report.located_errors == ry.report.located_errors


@st.composite
def operand_pairs(draw):
    m = draw(dims)
    k = draw(st.integers(1, 2 * BS))
    q = draw(st.one_of(st.just(1), dims))
    a_dtype, b_dtype = draw(st.sampled_from([
        (np.float64, np.float64),
        (np.float32, np.float32),
        (np.float32, np.float64),
    ]))
    seed = draw(st.integers(0, 2**32 - 1))
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    # Memory order of the right operand: C, Fortran, or the transpose of
    # a C-order weight (``x @ w.T``).  Block sums over a strided operand
    # accumulate in a different order unless made C-contiguous first.
    order = draw(st.sampled_from(["C", "F", "T"]))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, k))
    b = rng.uniform(-1, 1, (k, q))
    if special is not None:
        if draw(st.booleans()):
            a[draw(st.integers(0, m - 1))] = special
        else:
            b[:, draw(st.integers(0, q - 1))] = special
    b = b.astype(b_dtype)
    if order == "F":
        b = np.asfortranarray(b)
    elif order == "T":
        b = np.ascontiguousarray(b.T).T
    return a.astype(a_dtype), b


def _handles(engine, a, b):
    dtype = np.result_type(a, b)
    return (
        engine.encode(a, dtype=dtype),
        engine.encode(b, side="b", dtype=dtype),
    )


class TestRawMatchesHandles:
    @settings(max_examples=80, deadline=None)
    @given(pair=operand_pairs())
    def test_matmul(self, pair):
        a, b = pair
        engine = MatmulEngine(CONFIG)
        raw = _outcome(lambda: engine.matmul(a, b))
        encoded = _outcome(lambda: engine.matmul(*_handles(engine, a, b)))
        assert_same(raw, encoded)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_weight_block_sums(self, dtype):
        # One full column block plus a partial one: numpy sums such blocks
        # of a strided operand in a different order than of a C-order one.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 29)).astype(dtype)
        w = rng.standard_normal((BS + 5, 29)).astype(dtype)
        engine = MatmulEngine(CONFIG)
        raw = _outcome(lambda: engine.matmul(x, w.T))
        encoded = _outcome(lambda: engine.matmul(*_handles(engine, x, w.T)))
        assert_same(raw, encoded)

    @settings(max_examples=40, deadline=None)
    @given(pair=operand_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_execute_batch(self, pair, seed):
        a, b = pair
        b2 = np.random.default_rng(seed).uniform(-1, 1, b.shape).astype(b.dtype)
        engine = MatmulEngine(CONFIG)
        batched = _outcome(lambda: engine.execute_batch([(a, b), (a, b2)]))
        singles = [
            _outcome(lambda y=y: engine.matmul(*_handles(engine, a, y)))
            for y in (b, b2)
        ]
        if batched[0] == "raised":
            assert any(s[0] == "raised" for s in singles)
            assert batched[1] in {s[1] for s in singles if s[0] == "raised"}
            return
        for result, single in zip(batched[1], singles):
            assert_same(("ok", result), single)


class TestPairEncode:
    @pytest.mark.parametrize("m,k,q,order", [
        (1, 1, 1, "C"), (17, 5, 1, "C"), (40, 33, 23, "C"),
        (40, 33, BS + 3, "F"), (5, 29, BS + 8, "T"), (5, 29, 8, "T"),
    ])
    def test_bitwise_two_single_encodes(self, m, k, q, order):
        rng = np.random.default_rng(m * k * q)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, q))
        a[0, 0] = np.nan
        if order == "F":
            b = np.asfortranarray(b)
        elif order == "T":
            b = np.ascontiguousarray(b.T).T
        p = min(2, k)
        one_a = fused_encode(a, "a", BS, p=p)
        one_b = fused_encode(np.ascontiguousarray(b), "b", BS, p=p)
        order = pair_search_order(m, k, q, a.dtype, BS)
        pair_a, pair_b = fused_encode_pair(a, b, BS, p=p, order=order)
        for one, two in ((one_a, pair_a), (one_b, pair_b)):
            assert two.layout == one.layout
            assert _bits(two.checksums) == _bits(one.checksums)
            assert _bits(two.top_values) == _bits(one.top_values)
            assert _bits(two.top_indices) == _bits(one.top_indices)

    def test_p_beyond_inner_length_raises_like_top_p_arrays(self):
        a, b = np.ones((3, 2)), np.ones((2, 3))
        order = pair_search_order(3, 2, 3, a.dtype, BS)
        with pytest.raises(ValueError, match=r"p must be in 1\.\.2"):
            fused_encode_pair(a, b, BS, p=3, order=order)

    def test_large_pairs_are_searched_one_by_one(self):
        assert pair_search_order(200, 128, 1, np.float64, BS) is not None
        assert pair_search_order(200, 128, 64, np.float64, BS) is None


class TestToleranceGrids:
    @pytest.mark.parametrize("m,q,items", [(5, 1, 1), (40, 23, 1), (300, 300, 1),
                                           (40, 23, 3)])
    def test_stacked_grids_match_each_product(self, m, q, items):
        rng = np.random.default_rng(m + q)
        engine = MatmulEngine(CONFIG)
        a = rng.standard_normal((m, 8))
        bs = [rng.standard_normal((8, q)) for _ in range(items)]
        results = [engine.matmul(a, b) for b in bs]
        prov = [r.provider for r in results]
        stacked = aabft_tolerance_grids(
            prov[0].scheme,
            *prov[0]._stacked_tops()[:2],
            np.concatenate([p._stacked_tops()[2] for p in prov]),
            np.concatenate([p._stacked_tops()[3] for p in prov]),
            results[0].row_layout, results[0].col_layout, 8, 0.0,
            items=items,
        )
        assert isinstance(stacked, CheckGrids)
        for j, result in enumerate(results):
            col, row = stacked.item(j, items)
            ref = result.provider.epsilon_grids(
                result.row_layout, result.col_layout
            )
            assert _bits(col) == _bits(ref[0]) and _bits(row) == _bits(ref[1])
