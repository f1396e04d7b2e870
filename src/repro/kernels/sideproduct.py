"""Side-product checksums: the raw product plus thin checksum GEMMs.

The classic partitioned encoding multiplies interleaved operands
``A_cc @ B_rc``, which pads both operands to block multiples, copies them
into encoded buffers and strips the result afterwards.  The Huang/Abraham
*side-product* form computes the same full-checksum blocks without
widening the operands.  With ``EA`` (``nb_r x k``) the column sums of
every ``BS``-row block of ``A`` and ``EB`` (``k x nb_c``) the row sums of
every ``BS``-column block of ``B``::

    C = A  @ B     (m    x q)     the result itself
    R = EA @ B     (nb_r x q)     checksum rows
    K = A  @ EB    (m    x nb_c)  checksum columns
    X = EA @ EB    (nb_r x nb_c)  checksum corners

``C`` is one ordinary GEMM of the raw operands; the other three cost about
``2/BS`` of its flops.  The check compares block sums of ``C`` against
``R`` and ``K``, and block sums of ``K`` and ``R`` against ``X``.  Its
discrepancy grids are laid out in the *encoded* coordinates of the
interleaved full-checksum matrix (padded positions hold 0), so providers,
tolerance grids, report building and correction are layout-agnostic.

Bitwise contract: the grids equal
:func:`~repro.abft.checking.column_discrepancies` /
:func:`~repro.abft.checking.row_discrepancies` of the assembled matrix
(:func:`assemble_full_checksum`).  Column checks sum each block's rows
sequentially, row checks sum each block's ``BS`` columns with numpy's
pairwise reduction as if the block were zero-padded, and both accumulate
in float64 without a float64 copy of the result.

A *stack* of right operands of equal width ``q`` side by side (the
shared-left batch) runs through the same functions with ``items > 1``:
column blocks never straddle two items, and item ``j``'s grids are slices
of the stacked grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..bounds import upper_bound
from ..errors import ShapeError

__all__ = [
    "SideProducts",
    "block_checksums",
    "side_products",
    "side_discrepancies",
    "interleave_rows",
    "assemble_full_checksum",
    "scatter_full_checksum",
]

@dataclass
class SideProducts:
    """The four products of one protected multiplication (or stack).

    ``c`` is ``m x (items*q)``, ``r`` is ``nb_r x (items*q)``, ``k`` is
    ``m x (items*nb_c)`` and ``x`` is ``nb_r x (items*nb_c)``.
    """

    c: np.ndarray
    r: np.ndarray
    k: np.ndarray
    x: np.ndarray

    def item(self, j: int, items: int) -> "SideProducts":
        """Views of item ``j``'s products inside a stack of ``items``."""
        q = self.c.shape[1] // items
        nb = self.k.shape[1] // items
        return SideProducts(
            c=self.c[:, j * q : (j + 1) * q],
            r=self.r[:, j * q : (j + 1) * q],
            k=self.k[:, j * nb : (j + 1) * nb],
            x=self.x[:, j * nb : (j + 1) * nb],
        )


def block_checksums(data: np.ndarray, side: str, block_size: int) -> np.ndarray:
    """The thin block-checksum matrix of one operand.

    ``side="a"`` returns ``EA`` (``nb x k``): the column sums of every
    ``block_size``-row block of ``data``.  ``side="b"`` returns ``EB``
    (``k x nb``): the row sums of every ``block_size``-column block.  A
    trailing partial block is summed as if zero-padded to a full block
    (for ``"b"`` only as far as :func:`pairwise_span` needs), so every
    element is bitwise the checksum the interleaved encoding
    (:func:`~repro.abft.encoding.encode_partitioned_columns` /
    ``_rows`` of the padded operand) computes.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {data.shape}")
    bs = block_size
    if side == "a":
        m, k = data.shape
        full, nb = m // bs, -(-m // bs)
        out = np.empty((nb, k), dtype=data.dtype)
        if full:
            np.sum(data[: full * bs].reshape(full, bs, k), axis=1, out=out[:full])
        if full < nb:
            tail = np.zeros((bs, k), dtype=data.dtype)
            tail[: m - full * bs] = data[full * bs :]
            np.sum(tail.reshape(1, bs, k), axis=1, out=out[full:])
        return out
    k, q = data.shape
    full, nb = q // bs, -(-q // bs)
    out = np.empty((k, nb), dtype=data.dtype)
    if full:
        np.sum(
            data[:, : full * bs].reshape(k, full, bs), axis=2, out=out[:, :full]
        )
    if full < nb:
        np.add.reduce(
            _pad_tail(data[:, full * bs :], bs, data.dtype), axis=1,
            out=out[:, full],
        )
    return out


def pairwise_span(width: int, block_size: int) -> int:
    """How many terms a ``width``-term partial block is summed over.

    numpy's pairwise sum adds a contiguous run in eight interleaved
    accumulators; zeros appended past the next multiple of 8 only add 0 to
    each of them.  So summing the partial block zero-padded to that
    multiple groups its terms exactly as summing the whole zero-padded
    ``block_size`` block does, and three or fewer terms add in order
    either way.  ``TestNarrowBlockSums`` in ``tests/engine/
    test_sideproduct.py`` pins this bitwise at every partial width.
    """
    if width <= 3:
        return width
    return min(block_size, -(-width // 8) * 8)


def _pad_tail(x: np.ndarray, bs: int, dtype) -> np.ndarray:
    """``x`` (the partial blocks along the last axis) padded for summing.

    Returns ``x`` itself when no padding is needed, else a zero-padded
    ``dtype`` copy spanning :func:`pairwise_span` terms.
    """
    width = x.shape[-1]
    span = pairwise_span(width, bs)
    if span == width:
        return x
    tail = np.zeros(x.shape[:-1] + (span,), dtype=dtype)
    tail[..., :width] = x
    return tail


def side_products(
    a: np.ndarray, ea: np.ndarray, b: np.ndarray, eb: np.ndarray
) -> SideProducts:
    """``C``, ``R``, ``K`` and ``X``, each one ``np.matmul`` call."""
    return SideProducts(
        c=np.matmul(a, b), r=np.matmul(ea, b),
        k=np.matmul(a, eb), x=np.matmul(ea, eb),
    )


def _row_block_sums(x: np.ndarray, bs: int, out: np.ndarray) -> None:
    """float64 sums of every ``bs``-row block into ``out``, rows in order."""
    rows, cols = x.shape
    full = rows // bs
    if cols == 1:
        # A single column would make numpy's reduction pairwise; the
        # accumulate is sequential at every width.
        padded = np.zeros((out.shape[0] * bs, 1))
        padded[:rows] = x
        out[:] = np.add.accumulate(padded.reshape(-1, bs), axis=1)[:, -1:]
        return
    if full:
        np.add.reduce(
            x[: full * bs].reshape(full, bs, cols),
            axis=1, dtype=np.float64, out=out[:full],
        )
    if full < out.shape[0]:
        np.add.reduce(x[full * bs :], axis=0, dtype=np.float64, out=out[full])


def _col_block_sums(
    x: np.ndarray, bs: int, nb: int, items: int, out: np.ndarray
) -> None:
    """float64 sums of every ``bs``-column block of each of ``items``.

    Each block reduces ``bs`` contiguous terms (a trailing partial block
    only as many as :func:`pairwise_span` needs), so numpy's pairwise
    grouping is that of the interleaved layout's block.  ``out`` is
    ``rows x (items * nb)``.
    """
    rows = x.shape[0]
    q = x.shape[1] // items
    full = q // bs
    out3 = out.reshape(rows, items, nb)
    x3 = x.reshape(rows, items, q)
    if full:
        np.add.reduce(
            x3[:, :, : full * bs].reshape(rows, items, full, bs),
            axis=3, dtype=np.float64, out=out3[:, :, :full],
        )
    if full < nb:
        np.add.reduce(
            _pad_tail(x3[:, :, full * bs :], bs, np.float64),
            axis=2, dtype=np.float64, out=out3[:, :, full],
        )


def interleave_rows(
    data: np.ndarray,
    checksums: np.ndarray,
    layout: PartitionedLayout,
    *,
    items: int = 1,
    fill=0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Interleave data rows and checksum rows along axis 0.

    ``data`` holds ``items`` stacked groups of ``m`` rows (``m`` need not
    be a block multiple), ``checksums`` one row per block of each group;
    ``layout`` is the per-group layout.  Rows past ``m`` inside a group's
    last block receive ``fill``.  Extra trailing axes are carried along, so
    the same helper lays out operands, result blocks and per-vector top-p
    or norm arrays.
    """
    tail_shape = data.shape[1:]
    bs, nb = layout.block_size, layout.num_blocks
    m = data.shape[0] // items
    full = m // bs
    if out is None:
        out = np.empty(
            (items * layout.encoded_rows,) + tail_shape,
            dtype=np.result_type(data, checksums),
        )
    view = out.reshape((items, nb, bs + 1) + tail_shape)
    if not np.may_share_memory(view, out):
        raise ShapeError("out cannot be split into blocks without a copy")
    d = data.reshape((items, m) + tail_shape)
    if full:
        view[:, :full, :bs] = d[:, : full * bs].reshape(
            (items, full, bs) + tail_shape
        )
    if full < nb:
        t = m - full * bs
        view[:, full, :t] = d[:, full * bs :]
        view[:, full, t:bs] = fill
    view[:, :, bs] = checksums.reshape((items, nb) + tail_shape)
    return out


def side_discrepancies(
    sp: SideProducts,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    *,
    items: int = 1,
    col_out: np.ndarray | None = None,
    row_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Column and row discrepancy grids in encoded coordinates.

    Returns ``(col_disc, row_disc)`` of shapes ``(nb_r, items*q_enc)`` and
    ``(m_enc, items*nb_c)`` where ``q_enc``/``m_enc`` are the encoded
    extents of ``col_layout``/``row_layout``; positions of padding rows or
    columns hold 0.  ``col_out``/``row_out`` receive the grids in place
    (any float64 views of the right shapes).
    """
    bs_r, nb_r = row_layout.block_size, row_layout.num_blocks
    bs_c, nb_c = col_layout.block_size, col_layout.num_blocks
    m, width = sp.c.shape
    # Block-row sums of C beside K feed the column checks; block-column
    # sums of C above R feed the row checks.
    col_sums = np.empty((nb_r, width + sp.k.shape[1]))
    row_sums = np.empty((m + nb_r, sp.k.shape[1]))
    # Both passes over C run chunk by chunk of whole row blocks, so each
    # chunk is read from memory once; a narrower result is cast to float64
    # once per chunk (exactly) instead of once per pass.
    step = bs_r * max(
        1, upper_bound.CHUNK_BYTES // (bs_r * width * sp.c.itemsize)
    )
    stage = None
    if sp.c.dtype != np.float64:
        stage = np.empty((min(step, m), width))
    for r0 in range(0, m, step):
        chunk = sp.c[r0 : r0 + step]
        if stage is not None:
            chunk = stage[: chunk.shape[0]]
            np.copyto(chunk, sp.c[r0 : r0 + step])
        b0 = r0 // bs_r
        nb = -(-chunk.shape[0] // bs_r)
        _row_block_sums(chunk, bs_r, col_sums[b0 : b0 + nb, :width])
        _col_block_sums(
            chunk, bs_c, nb_c, items, row_sums[r0 : r0 + chunk.shape[0]]
        )
    _row_block_sums(sp.k, bs_r, col_sums[:, width:])
    _col_block_sums(sp.r, bs_c, nb_c, items, row_sums[m:])
    # Column checks: C against R, K against X; row checks: C against K,
    # R against X.
    col_sums[:, :width] -= sp.r
    col_sums[:, width:] -= sp.x
    row_sums[:m] -= sp.k
    row_sums[m:] -= sp.x
    np.abs(col_sums, out=col_sums)
    np.abs(row_sums, out=row_sums)
    if col_out is None:
        col_out = np.empty((nb_r, items * col_layout.encoded_rows))
    interleave_rows(
        col_sums[:, :width].T, col_sums[:, width:].T, col_layout,
        items=items, out=col_out.T,
    )
    row_disc = interleave_rows(
        row_sums[:m], row_sums[m:], row_layout, out=row_out
    )
    return col_out, row_disc


def assemble_full_checksum(
    sp: SideProducts,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
) -> np.ndarray:
    """The interleaved full-checksum matrix ``C_fc`` (a contiguous copy).

    Padding rows and columns are 0.  This is the matrix the classic
    ``A_cc @ B_rc`` layout produces, up to the rounding of its checksum
    rows and columns, which here are the thin products.
    """
    rows_c = interleave_rows(sp.c, sp.r, row_layout)
    rows_k = interleave_rows(sp.k, sp.x, row_layout)
    out = np.empty(
        (row_layout.encoded_rows, col_layout.encoded_rows), dtype=rows_c.dtype
    )
    interleave_rows(rows_c.T, rows_k.T, col_layout, out=out.T)
    return out


def scatter_full_checksum(
    c_fc: np.ndarray,
    sp: SideProducts,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
) -> None:
    """Copy an assembled ``C_fc`` back into ``C``, ``R``, ``K`` and ``X``.

    The inverse of :func:`assemble_full_checksum` on every position it
    takes from the products; padding positions are dropped.
    """
    m, q = sp.c.shape
    rows = row_layout.all_data_indices()[:m]
    cs_rows = row_layout.all_checksum_indices()
    cols = col_layout.all_data_indices()[:q]
    cs_cols = col_layout.all_checksum_indices()
    sp.c[...] = c_fc[np.ix_(rows, cols)]
    sp.r[...] = c_fc[np.ix_(cs_rows, cols)]
    sp.k[...] = c_fc[np.ix_(rows, cs_cols)]
    sp.x[...] = c_fc[np.ix_(cs_rows, cs_cols)]
