"""Check grids: both grids of one check side by side in one buffer.

The partitioned check compares two grids per product, each against a
tolerance grid of the same shape: the column checks
(``nb_r x q_enc`` — one per block row and encoded column) and the row
checks (``m_enc x nb_c`` — one per encoded row and block column).
:class:`CheckGrids` lays both in one flat float64 buffer, column grid
first, so the tolerance builder validates, floors and evaluates the
bound once, and the check compares discrepancies against tolerances in
one pass.  A stack of ``items`` right operands (the shared-left batch)
has grids ``items`` times as wide, item after item; :meth:`CheckGrids.item`
slices one item out.

This module owns the layout: :func:`aabft_tolerance_grids` builds the
A-ABFT tolerance grids for the single-call and the batch routes alike,
and :func:`check_reports` turns a discrepancy/tolerance pair into
:class:`~repro.abft.checking.CheckReport` objects.
"""

from __future__ import annotations

import numpy as np

from ..bounds.upper_bound import upper_bound_grid_arrays
from .checking import CheckReport, build_report
from .encoding import PartitionedLayout

__all__ = ["CheckGrids", "aabft_tolerance_grids", "check_reports"]


class CheckGrids(tuple):
    """The ``(column, row)`` grid pair, backed by one flat buffer.

    Unpacks like the ``(col, row)`` tuple every ``epsilon_grids`` method
    returns; ``buffer`` is the flat float64 array both grids view.
    """

    buffer: np.ndarray

    def __new__(cls, buffer: np.ndarray, col_shape: tuple, row_shape: tuple):
        split = col_shape[0] * col_shape[1]
        self = super().__new__(
            cls,
            (buffer[:split].reshape(col_shape), buffer[split:].reshape(row_shape)),
        )
        self.buffer = buffer
        return self

    @classmethod
    def empty(
        cls,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        *,
        items: int = 1,
        pool=None,
    ) -> "CheckGrids":
        """Uninitialised grids; ``pool`` (a :class:`~repro.engine.plan.
        WorkspacePool`) supplies the buffer when given."""
        col_shape = (row_layout.num_blocks, items * col_layout.encoded_rows)
        row_shape = (row_layout.encoded_rows, items * col_layout.num_blocks)
        size = col_shape[0] * col_shape[1] + row_shape[0] * row_shape[1]
        buffer = np.empty(size) if pool is None else pool.take((size,))
        return cls(buffer, col_shape, row_shape)

    @classmethod
    def pack(cls, col: np.ndarray, row: np.ndarray, row_layout, col_layout):
        """Copy a separately allocated grid pair into one buffer."""
        grids = cls.empty(row_layout, col_layout)
        np.copyto(grids.col, col)
        np.copyto(grids.row, row)
        return grids

    @property
    def col(self) -> np.ndarray:
        return self[0]

    @property
    def row(self) -> np.ndarray:
        return self[1]

    def item(self, j: int, items: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of item ``j``'s ``(col, row)`` grids in a stack of ``items``."""
        w = self.col.shape[1] // items
        nb = self.row.shape[1] // items
        return (
            self.col[:, j * w : (j + 1) * w],
            self.row[:, j * nb : (j + 1) * nb],
        )


def aabft_tolerance_grids(
    scheme,
    row_vals: np.ndarray,
    row_idx: np.ndarray,
    col_vals: np.ndarray,
    col_idx: np.ndarray,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    inner_dim: int,
    epsilon_floor: float = 0.0,
    *,
    items: int = 1,
    pool=None,
) -> CheckGrids:
    """Both A-ABFT tolerance grids of one product, or of a stack.

    ``row_vals``/``row_idx`` are the ``(m_enc, p)`` top-p data of every
    encoded row of the left operand, ``col_vals``/``col_idx`` that of
    every encoded column of ``items`` right operands, item after item.
    The upper bounds ``y`` of both grids land in one pooled buffer, so
    ``scheme.epsilon_array`` validates and evaluates them in one call and
    the floor applies once.  Every entry is an elementwise function of
    one (row, column) top-p pair, so the grids are bitwise the per-pair
    scalar tolerances.
    """
    y = CheckGrids.empty(row_layout, col_layout, items=items, pool=pool)
    # Checksum vectors sit at every (BS+1)-th encoded position, so the
    # strided views select them without a gather (items stack whole
    # blocks, so the stride runs across them too).
    cs_r = slice(row_layout.block_size, None, row_layout.stride)
    cs_c = slice(col_layout.block_size, None, col_layout.stride)
    upper_bound_grid_arrays(
        row_vals[cs_r], row_idx[cs_r], col_vals, col_idx, out=y.col
    )
    upper_bound_grid_arrays(
        row_vals, row_idx, col_vals[cs_c], col_idx[cs_c], out=y.row
    )
    eps = scheme.epsilon_array(inner_dim, y.buffer)
    if pool is not None:
        pool.give(y.buffer)
    if epsilon_floor > 0.0:
        np.maximum(eps, epsilon_floor, out=eps)
    return CheckGrids(eps, y.col.shape, y.row.shape)


def check_reports(
    disc: CheckGrids,
    eps: CheckGrids,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    *,
    items: int = 1,
) -> list[CheckReport]:
    """One report per item, from one comparison over both grids.

    A comparison fails when the discrepancy exceeds its tolerance or is
    non-finite (:func:`~repro.abft.checking.build_report`'s rule).
    Only when the comparison flags something do the reports go through
    :func:`~repro.abft.checking.build_report` for their findings; a clean
    report carries its discrepancy views and nothing else.
    """
    bad = np.greater(disc.buffer, eps.buffer)
    bad |= ~np.isfinite(disc.buffer)
    flagged = bad.any()
    reports = []
    for j in range(items):
        col_disc, row_disc = disc.item(j, items)
        if flagged:
            col_eps, row_eps = eps.item(j, items)
            report = build_report(
                col_disc, col_eps, row_disc, row_eps, row_layout, col_layout
            )
        else:
            report = CheckReport(
                num_checks=col_disc.size + row_disc.size,
                column_disc=col_disc,
                row_disc=row_disc,
            )
        reports.append(report)
    return reports
