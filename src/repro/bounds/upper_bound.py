"""Runtime determination of the upper bound ``y`` (paper Section IV-E).

The probabilistic model needs, for every checked element ``c_{i,j}``, an
upper bound ``y >= |a_{i,k} * b_{k,j}|`` on every intermediate product.  The
autonomous scheme pre-computes, during encoding, the ``p`` elements with the
largest absolute values (and their indices) of every row of ``A`` and every
column of ``B``.  At check time ``y`` is the **maximum of three cases**:

1. shared indices ``S = A_idx ∩ B_idx ≠ ∅``: candidate ``max_{s∈S} |a_s b_s|``
   — two large values actually meet;
2. the largest ``|a|`` pairs with some element outside ``B``'s top-p, which
   is at most ``min_{s∈B_idx} |b_s|``: candidate ``max|a| * min_top|b|``;
3. symmetrically ``max|b| * min_top|a|``.

Cases 2 and 3 are always valid bounds for products whose index is missing
from one of the top-p sets, so the overall ``y`` is the maximum of all
candidates.  Larger ``p`` tightens cases 2/3 (the ``min`` shrinks) at higher
pre-processing cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TopP",
    "top_p_of_rows",
    "top_p_of_columns",
    "top_p_arrays",
    "top_p_row_stack",
    "determine_upper_bound",
    "upper_bound_grid_arrays",
    "exact_upper_bound",
]


@dataclass(frozen=True)
class TopP:
    """The ``p`` largest absolute values (descending) and their indices
    for one vector.

    ``values[0]`` is the global maximum of the vector's absolute values;
    ``values[-1]`` is the ``p``-th largest (the ``min`` of cases 2/3).
    """

    values: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.indices.shape:
            raise ValueError("values and indices must have matching shapes")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("TopP requires a non-empty 1-D value array")

    @property
    def p(self) -> int:
        return int(self.values.size)

    @property
    def max(self) -> float:
        return float(self.values[0])

    @property
    def min(self) -> float:
        return float(self.values[-1])


#: Vector length of one block of the two-level top-p search.
SEARCH_BLOCK = 16

#: Operand bytes one chunk of a multi-pass kernel keeps cache-resident:
#: the passes run chunk by chunk, so each chunk is read from memory once
#: however many passes touch it.
CHUNK_BYTES = 1 << 19

#: Column searches of matrices up to this size run as a row search of the
#: transpose.  Its fixed cost is a quarter of the two-level search's, and
#: its transpose copy is cheap below this size (2-CPU x86 host, p=2:
#: 17 vs 72 us at 64x8 float64, 157 vs 206 us at 256x256 float64); above
#: it the copy dominates (33 vs 8 ms at 2048x2048 float64).
_TRANSPOSE_BYTES = 1 << 19


def top_p_arrays(
    matrix: np.ndarray, p: int, axis: int, *, pool=None
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked top-p values and indices of every vector along ``axis``.

    Returns ``(values, indices)`` of shape ``(k, p)`` where ``k`` is the
    number of vectors (rows for ``axis=1``, columns for ``axis=0``) and each
    row holds the vector's ``p`` largest absolute values in descending order
    (as float64).  This is the array form of :func:`top_p_of_rows` /
    :func:`top_p_of_columns`; the engine's vectorised checking path consumes
    it directly without materialising per-vector :class:`TopP` objects.

    The result is that of ``p`` rounds of Algorithm 1's strict maximum
    search: ties in absolute value resolve to the *lowest* index, NaN is
    never selected (it loses every ``>`` comparison), and a selected entry
    is excluded from later rounds.  The search runs in the operand's own
    floating dtype, with no float64 upcast.  Rows
    (``axis=1``) take ``p`` rounds of a contiguous ``argmax``, a
    cache-sized chunk of rows at a time.  Columns (``axis=0``) are
    searched in two levels: every column is cut into blocks of
    :data:`SEARCH_BLOCK` entries, one chunked pass takes the block maxima
    of ``|x|``, and each round picks the first block holding the column's
    maximum, then the first entry inside it that holds it.  That is the
    first occurrence of the maximum overall, so both axes agree bitwise
    with the literal scan.  A column search of a matrix of up to 512 KiB
    writes ``|x|`` transposed into the scratch buffer and runs the row
    search instead, which costs fewer calls at that size; larger matrices
    are never transposed.

    ``pool``, when given, must provide ``take(shape, dtype)`` / ``give(buf)``
    (see :class:`repro.engine.plan.WorkspacePool`); the absolute-value
    scratch buffer is then recycled instead of allocated per call.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if matrix.dtype.kind != "f":
        matrix = matrix.astype(np.float64)
    length = matrix.shape[axis]
    if not 1 <= p <= length:
        raise ValueError(f"p must be in 1..{length}, got {p}")
    if axis == 0 and matrix.nbytes <= _TRANSPOSE_BYTES:
        k = matrix.shape[1]
        vals = np.empty((k, p))
        idx = np.empty((k, p), dtype=np.intp)
        work = _take(pool, (k, length), matrix.dtype)
        np.abs(matrix.T, out=work)
        _top_p_rows(work, p, vals, idx)
        _give(pool, work)
        return vals, idx
    if axis == 1:
        m = matrix.shape[0]
        vals = np.empty((m, p))
        idx = np.empty((m, p), dtype=np.intp)
        step = _chunk_rows(matrix, 1)
        work = _take(pool, (min(step, m), length), matrix.dtype)
        for r0 in range(0, m, step):
            rows = slice(r0, r0 + step)
            chunk = work[: min(step, m - r0)]
            np.abs(matrix[rows], out=chunk)
            _top_p_rows(chunk, p, vals[rows], idx[rows])
        _give(pool, work)
        return vals, idx
    matrix = np.ascontiguousarray(matrix)
    found = _top_p_columns(matrix, p, absolute=False)
    if found is None:
        # NaN present: search a copy of |values| with NaN masked to -inf.
        work = _take(pool, matrix.shape, matrix.dtype)
        np.abs(matrix, out=work)
        work[np.isnan(work)] = -np.inf
        found = _top_p_columns(work, p, absolute=True)
        _give(pool, work)
    return found


def top_p_row_stack(
    groups, p: int, *, pool=None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-p of every row of ``groups`` stacked, each group of matrices
    followed by one zero row (what a padding vector holds).

    Bitwise :func:`top_p_arrays` of each part along ``axis=1``: every
    part's ``|values|`` is written into one scratch stack and one row
    search covers them all (rows never influence each other).  Parts may
    be transposed views, so an operand's columns and another's rows share
    one search when they have the same length.
    """
    parts = [part for group in groups for part in group]
    length = parts[0].shape[1]
    if not 1 <= p <= length:
        raise ValueError(f"p must be in 1..{length}, got {p}")
    dtype = np.result_type(*parts)
    if dtype.kind != "f":
        dtype = np.dtype(np.float64)
    total = sum(part.shape[0] for part in parts) + len(groups)
    work = _take(pool, (total, length), dtype)
    r0 = 0
    for group in groups:
        for part in group:
            np.abs(part, out=work[r0 : r0 + part.shape[0]])
            r0 += part.shape[0]
        work[r0] = 0
        r0 += 1
    vals = np.empty((total, p))
    idx = np.empty((total, p), dtype=np.intp)
    _top_p_rows(work, p, vals, idx)
    _give(pool, work)
    return vals, idx


def _chunk_rows(matrix: np.ndarray, multiple: int) -> int:
    """Rows per cache-sized chunk of ``matrix``, a multiple of ``multiple``."""
    row_bytes = max(1, matrix.shape[1] * matrix.itemsize)
    return max(multiple, CHUNK_BYTES // row_bytes // multiple * multiple)


def _top_p_rows(
    work: np.ndarray, p: int, vals: np.ndarray, idx: np.ndarray
) -> None:
    """``p`` rounds of a first-occurrence row ``argmax`` over ``|values|``."""
    k, length = work.shape
    flat = work.reshape(-1)
    starts = np.arange(k) * length
    best = work.argmax(axis=1)
    at = starts + best
    if np.isnan(flat[at]).any():
        # np.argmax picks NaN first; Algorithm 1's ``>`` never does.
        work[np.isnan(work)] = -np.inf
        best = work.argmax(axis=1)
        at = starts + best
    for j in range(p):
        if j:
            best = work.argmax(axis=1)
            at = starts + best
        idx[:, j] = best
        vals[:, j] = flat[at]
        if j + 1 < p:
            flat[at] = -np.inf


def _top_p_columns(
    matrix: np.ndarray, p: int, *, absolute: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Two-level search down the columns of a C-contiguous matrix.

    ``absolute=False`` searches ``|matrix|`` without materialising it:
    block maxima of ``|x|`` are ``max(max x, -min x)`` and only the blocks
    a round searches are gathered and made absolute.  It returns ``None``
    when a NaN makes those maxima unusable.  ``absolute=True`` searches a
    matrix that already holds ``|x|`` (NaN masked to ``-inf``).
    """
    s = SEARCH_BLOCK
    length, k = matrix.shape
    full, blocks = length // s, -(-length // s)
    block_max = np.empty((blocks, k), dtype=matrix.dtype)
    reductions = (np.max,) if absolute else (np.max, np.min)
    extremes = [np.empty((blocks, k), dtype=matrix.dtype) for _ in reductions]
    step = _chunk_rows(matrix, s)
    for r0 in range(0, length, step):
        chunk = matrix[r0 : min(r0 + step, full * s)]
        b0, nb = r0 // s, chunk.shape[0] // s
        for reduce, out in zip(reductions, extremes):
            if nb:
                reduce(
                    chunk.reshape(nb, s, k), axis=1, out=out[b0 : b0 + nb]
                )
            if full < blocks and r0 + step >= length:
                reduce(matrix[full * s :], axis=0, out=out[full])
    if absolute:
        block_max = extremes[0]
    else:
        hi, lo = extremes
        if np.isnan(hi).any() or np.isnan(lo).any():
            return None
        np.negative(lo, out=lo)
        np.maximum(hi, lo, out=block_max)
    # Column-major views keep every per-column search on a contiguous row.
    block_max = np.ascontiguousarray(block_max.T)
    bm_flat = block_max.reshape(-1)
    vals = np.empty((k, p))
    idx = np.empty((k, p), dtype=np.intp)
    flat = matrix.reshape(-1)
    cols = np.arange(k)
    # Flat offsets of column c's entries in a block, relative to the
    # block's first row: one 1-D take gathers every column's block.
    within = cols[:, None] + np.arange(s) * k
    tail = length - full * s  # valid rows of a partial last block
    taken: list[np.ndarray] = []
    for j in range(p):
        blk = np.argmax(block_max, axis=1)
        seg = np.take(flat, within + (blk * (s * k))[:, None], mode="clip")
        if not absolute:
            np.abs(seg, out=seg)
        if tail:
            # Rows past the end of the matrix (clipped reads) never win.
            seg[blk == full, tail:] = -np.inf
        seg_flat = seg.reshape(-1)
        for prev in taken:
            same = prev // s == blk
            seg_flat[(cols * s + prev % s)[same]] = -np.inf
        off = np.argmax(seg, axis=1)
        at = cols * s + off
        idx[:, j] = blk * s + off
        vals[:, j] = seg_flat[at]
        if j + 1 < p:
            seg_flat[at] = -np.inf
            bm_flat[cols * blocks + blk] = np.max(seg, axis=1)
            taken.append(idx[:, j].copy())
    return vals, idx


def _take(pool, shape: tuple[int, int], dtype) -> np.ndarray:
    if pool is None:
        return np.empty(shape, dtype=dtype)
    return pool.take(shape, dtype)


def _give(pool, buffer: np.ndarray) -> None:
    if pool is not None:
        pool.give(buffer)


def _top_p_along(matrix: np.ndarray, p: int, axis: int) -> list[TopP]:
    vals, idx = top_p_arrays(matrix, p, axis)
    return [TopP(values=v, indices=i) for v, i in zip(vals, idx)]


def top_p_of_rows(matrix: np.ndarray, p: int) -> list[TopP]:
    """Top-p absolute values of every row (for the rows of ``A``)."""
    return _top_p_along(matrix, p, axis=1)


def top_p_of_columns(matrix: np.ndarray, p: int) -> list[TopP]:
    """Top-p absolute values of every column (for the columns of ``B``)."""
    return _top_p_along(matrix, p, axis=0)


def determine_upper_bound(row_top: TopP, col_top: TopP) -> float:
    """The three-case maximum ``y`` for one (row of A, column of B) pair."""
    # Cases 2 and 3 are valid bounds regardless of the intersection.
    candidates = [row_top.max * col_top.min, col_top.max * row_top.min]
    # Case 1: indices present in both top-p sets pair their actual values.
    shared, a_pos, b_pos = np.intersect1d(
        row_top.indices, col_top.indices, return_indices=True
    )
    if shared.size:
        candidates.append(float(np.max(row_top.values[a_pos] * col_top.values[b_pos])))
    return max(candidates)


def upper_bound_grid_arrays(
    row_vals: np.ndarray,
    row_idx: np.ndarray,
    col_vals: np.ndarray,
    col_idx: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised three-case ``y`` for every (row, column) pair.

    Array form of :func:`determine_upper_bound`: ``row_vals``/``row_idx`` are
    the stacked ``(k_rows, p)`` top-p data of the row vectors (as produced by
    :func:`top_p_arrays`), ``col_vals``/``col_idx`` of the column vectors.
    Returns the ``(k_rows, k_cols)`` grid of upper bounds, bitwise equal to
    calling :func:`determine_upper_bound` on every pair.  ``out``, when
    given, receives the grid in place (it must be float64 of the right
    shape); two scratch arrays are reused across all ``p x p`` rounds of
    the shared-index case instead of allocating three per round.
    """
    shape = (row_vals.shape[0], col_vals.shape[0])
    if out is None:
        out = np.empty(shape)
    # Cases 2 and 3: max of one side times the p-th largest of the other.
    np.multiply(row_vals[:, 0][:, None], col_vals[:, -1][None, :], out=out)
    np.maximum(out, row_vals[:, -1][:, None] * col_vals[:, 0][None, :], out=out)
    # Case 1: shared indices pair their actual values.  ``where=match``
    # leaves non-matching entries untouched — bitwise the old
    # ``np.where(match, candidate, -inf)`` masking without its temporary.
    candidate = np.empty(shape)
    match = np.empty(shape, dtype=bool)
    for ri in range(row_vals.shape[1]):
        for ci in range(col_vals.shape[1]):
            # No ``match.any()`` skip: index matches are common, and the
            # test costs more than the two operations it would save.
            np.equal(row_idx[:, ri][:, None], col_idx[:, ci][None, :], out=match)
            np.multiply(
                row_vals[:, ri][:, None], col_vals[:, ci][None, :],
                out=candidate,
            )
            np.maximum(out, candidate, out=out, where=match)
    return out


def exact_upper_bound(a_row: np.ndarray, b_col: np.ndarray) -> float:
    """Ground truth ``max_k |a_k * b_k|`` for validating the three-case rule."""
    a_row = np.asarray(a_row, dtype=np.float64).ravel()
    b_col = np.asarray(b_col, dtype=np.float64).ravel()
    if a_row.shape != b_col.shape:
        raise ValueError("vectors must have equal length")
    return float(np.max(np.abs(a_row * b_col)))
