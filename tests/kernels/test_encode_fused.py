"""Bitwise identity of the fused encode / vectorised check fast paths.

The engine's hot path runs :func:`repro.kernels.fused_encode` plus the
grid-based check; the per-block loop kernels
(``encode_partitioned_*_reference``) and the scalar tolerance loop
(``check_partitioned(..., use_grids=False)``) stay in the tree as the
oracles.  These property tests pin the fast paths to the oracles bit for
bit across shapes, block sizes and dtypes — including non-divisible
(padded) edge blocks — and to the literal Algorithm 1 listing for a
single block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abft.checking import check_partitioned
from repro.abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_columns_reference,
    encode_partitioned_rows,
    encode_partitioned_rows_reference,
    pad_to_block_multiple,
)
from repro.abft.providers import AABFTEpsilonProvider
from repro.bounds.probabilistic import ProbabilisticBound
from repro.bounds.upper_bound import top_p_of_columns, top_p_of_rows
from repro.engine.plan import WorkspacePool
from repro.errors import ConfigurationError
from repro.fp.constants import format_for_dtype
from repro.kernels import fused_encode
from repro.kernels.encode_reference import algorithm1_reference

shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
block_sizes = st.integers(1, 16)
dtypes = st.sampled_from([np.float64, np.float32])
seeds = st.integers(0, 2**32 - 1)


def _operand(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-4, 4, shape).astype(dtype)


class TestFusedEncodeBitwise:
    @settings(max_examples=120, deadline=None)
    @given(shapes, block_sizes, dtypes, seeds)
    def test_a_side_matches_reference(self, shape, bs, dtype, seed):
        a = _operand(shape, dtype, seed)
        a_pad, _ = pad_to_block_multiple(a, bs, axis=0)
        res = fused_encode(a_pad, "a", bs, p=1)
        ref, ref_layout = encode_partitioned_columns_reference(a_pad, bs)
        assert res.encoded.dtype == ref.dtype
        assert np.array_equal(res.encoded, ref)
        assert res.layout == ref_layout

    @settings(max_examples=120, deadline=None)
    @given(shapes, block_sizes, dtypes, seeds)
    def test_b_side_matches_reference(self, shape, bs, dtype, seed):
        b = _operand(shape, dtype, seed)
        b_pad, _ = pad_to_block_multiple(b, bs, axis=1)
        res = fused_encode(b_pad, "b", bs, p=1)
        ref, ref_layout = encode_partitioned_rows_reference(b_pad, bs)
        assert res.encoded.dtype == ref.dtype
        assert np.array_equal(res.encoded, ref)
        assert res.layout == ref_layout

    @settings(max_examples=60, deadline=None)
    @given(shapes, block_sizes, st.integers(1, 4), seeds)
    def test_top_p_matches_per_vector_path(self, shape, bs, p, seed):
        a = _operand(shape, np.float64, seed)
        a_pad, _ = pad_to_block_multiple(a, bs, axis=0)
        p = min(p, a_pad.shape[1])
        res = fused_encode(a_pad, "a", bs, p=p)
        tops = top_p_of_rows(res.encoded, p)
        for k, top in enumerate(tops):
            assert np.array_equal(res.top_values[k], top.values)
            assert np.array_equal(res.top_indices[k], top.indices)

    def test_pooled_buffers_identical(self, rng):
        pool = WorkspacePool()
        a = rng.uniform(-1, 1, (96, 40))
        cold = fused_encode(a, "a", 32, p=2)
        warm = fused_encode(a, "a", 32, p=2, pool=pool)
        again = fused_encode(a, "a", 32, p=2, pool=pool)
        assert pool.hits > 0  # the pool recycled the top-p workspace
        for res in (warm, again):
            assert np.array_equal(res.encoded, cold.encoded)
            assert np.array_equal(res.top_values, cold.top_values)
            assert np.array_equal(res.top_indices, cold.top_indices)

    def test_sea_norms(self, rng):
        b = rng.uniform(-1, 1, (40, 96))
        res = fused_encode(b, "b", 32, norms=True)
        assert res.top_values is None
        assert np.array_equal(res.norms, np.linalg.norm(res.encoded, axis=0))

    def test_validation(self, rng):
        m = rng.uniform(-1, 1, (32, 32))
        with pytest.raises(ConfigurationError):
            fused_encode(m, "c", 32)
        with pytest.raises(ConfigurationError):
            fused_encode(m, "a", 32, p=2, norms=True)


class TestAlgorithm1SingleBlock:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 4), seeds)
    def test_matches_literal_listing(self, bs, num_max, seed):
        """One BS x BS block: fused encode == the paper's Algorithm 1."""
        num_max = min(num_max, bs)
        block = _operand((bs, bs), np.float64, seed)
        ref = algorithm1_reference(block, num_max)
        res = fused_encode(block, "a", bs, p=num_max)
        # Checksum row (encoded row BS) == the per-thread column sums.
        assert np.array_equal(res.encoded[bs], ref.checksums)
        # Per data row: the numMax candidates and their column ids.
        assert np.array_equal(res.top_values[:bs], ref.max_values)
        assert np.array_equal(res.top_indices[:bs], ref.max_ids)
        # The checksum row's own candidates (maxReduce over |checksums|).
        assert np.array_equal(res.top_values[bs], ref.checksum_max_values)
        assert np.array_equal(res.top_indices[bs], ref.checksum_max_ids)


class TestVectorisedCheckBitwise:
    def _check_both(self, a, b, bs, p):
        a_pad, _ = pad_to_block_multiple(np.asarray(a, dtype=np.float64), bs, axis=0)
        b_pad, _ = pad_to_block_multiple(np.asarray(b, dtype=np.float64), bs, axis=1)
        a_cc, row_layout = encode_partitioned_columns(a_pad, bs)
        b_rc, col_layout = encode_partitioned_rows(b_pad, bs)
        c_fc = a_cc @ b_rc
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
        grid = check_partitioned(c_fc, row_layout, col_layout, provider)
        scalar = check_partitioned(
            c_fc, row_layout, col_layout, provider, use_grids=False
        )
        return c_fc, row_layout, col_layout, provider, grid, scalar

    @staticmethod
    def assert_reports_identical(grid, scalar):
        assert np.array_equal(grid.column_disc, scalar.column_disc)
        assert np.array_equal(grid.row_disc, scalar.row_disc)
        assert grid.findings == scalar.findings
        assert grid.located_errors == scalar.located_errors
        assert grid.num_checks == scalar.num_checks

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 12),
        st.integers(1, 3),
        seeds,
    )
    def test_grid_check_matches_scalar_loop(self, m, n, q, bs, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-4, 4, (m, n))
        b = rng.uniform(-4, 4, (n, q))
        p = min(p, n)
        # No false-positive assertion here: at degenerate sizes the raw
        # probabilistic bound (no epsilon floor) can flag rounding noise on
        # both paths alike — identity is the property under test.
        *_, grid, scalar = self._check_both(a, b, bs, p)
        self.assert_reports_identical(grid, scalar)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 8), seeds)
    def test_injected_faults_agree(self, n, bs, seed):
        """Corrupted results produce identical findings on both paths."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-4, 4, (n, n))
        b = rng.uniform(-4, 4, (n, n))
        c_fc, row_layout, col_layout, provider, *_ = self._check_both(a, b, bs, 1)
        faulty = c_fc.copy()
        i = int(rng.integers(0, c_fc.shape[0]))
        j = int(rng.integers(0, c_fc.shape[1]))
        faulty[i, j] += 1.0
        grid = check_partitioned(faulty, row_layout, col_layout, provider)
        scalar = check_partitioned(
            faulty, row_layout, col_layout, provider, use_grids=False
        )
        self.assert_reports_identical(grid, scalar)
        assert grid.error_detected
