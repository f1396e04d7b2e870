"""Online-ABFT fused into the tiled GEMM: per-tile checksums, early abort.

The separate execution path computes the four side products ``C``, ``R``,
``K`` and ``X`` (:mod:`repro.kernels.sideproduct`) and then streams ``C``
twice more for the column and row block sums.  Following the
online-fault-tolerance GEMM literature (Wu/Zhai et al., PAPERS.md), this
kernel folds the checksum comparison into the tile loop itself: each tile
of ``C`` is computed together with its slices of ``R``, ``K`` and ``X``
and checked against its tolerance slice while its bytes are still hot, so
a corrupted tile is flagged — and recomputed — *before* the remaining
tiles run.

Bitwise reconciliation
----------------------
Fused tiles are **block-aligned**: a tile spans whole ``BS`` blocks of
rows and columns, so it owns its checksum rows and columns outright.  A
tile's discrepancy reduction is the exact per-element accumulation the
full-result reduction performs on that slice, so the per-tile grids
assemble bitwise into the full grids of the tile products.  In the
degenerate single-tile mode (``tile_blocks=None``) the products run
through :func:`~repro.kernels.matmul_tiled.tiled_matmul` over the canonical
tile list, so result bytes and grids equal the separate path's.  Both
properties are hypothesis-tested.

Abort semantics
---------------
Tiles are checked in row-major plan order.  A failing tile is recomputed
in place up to ``max_recomputes`` times (a transient strike heals and the
run continues clean).  A *persistent* failure aborts checking: the kernel
records the failed tile, finishes the remaining GEMM tiles unchecked (the
caller still needs the full product for the canonical report/correction
path) and returns ``early_abort=True`` so the caller rebuilds the full
report with the separate-path oracle.  Nothing is ever dropped silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..errors import ShapeError
from .matmul_tiled import tiled_matmul
from .sideproduct import SideProducts, side_discrepancies, side_products

__all__ = ["OnlineFusedOutcome", "online_fused_matmul", "plan_fused_tiles"]

# An inject hook receives (tile_index, attempt, tile_view) and may mutate
# the tile of C in place — the chaos/fault-campaign seam.
InjectHook = Callable[[int, int, np.ndarray], None]


def plan_fused_tiles(
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    tile_blocks: int | None,
) -> list[tuple[int, int, int, int]]:
    """Block-aligned tile decomposition of the result.

    Returns ``(block_row_start, block_row_end, block_col_start,
    block_col_end)`` per tile in row-major order; each tile spans
    ``tile_blocks`` whole blocks per axis (edge tiles are clipped) and
    owns its checksum rows and columns.  ``tile_blocks=None`` yields the
    single full-result tile — the degenerate fused mode whose result
    bytes and discrepancy grids are bitwise equal to the separate path.
    """
    nb_r = row_layout.num_blocks
    nb_c = col_layout.num_blocks
    if tile_blocks is None:
        return [(0, nb_r, 0, nb_c)]
    if tile_blocks < 1:
        raise ValueError(f"tile_blocks must be >= 1, got {tile_blocks}")
    return [
        (i0, min(i0 + tile_blocks, nb_r), j0, min(j0 + tile_blocks, nb_c))
        for i0 in range(0, nb_r, tile_blocks)
        for j0 in range(0, nb_c, tile_blocks)
    ]


@dataclass
class OnlineFusedOutcome:
    """What :func:`online_fused_matmul` did, besides the products themselves.

    ``col_disc`` / ``row_disc`` hold the full discrepancy grids in the
    clean case (``early_abort=False``); after an early abort only the
    tiles up to and including the failed one were checked, so the caller
    must rebuild the grids with the separate-path oracle before reporting.
    """

    products: SideProducts
    col_disc: np.ndarray
    row_disc: np.ndarray
    tiles: list[tuple[int, int, int, int]]
    tiles_total: int
    tiles_checked: int = 0
    failed_tile: int | None = None
    early_abort: bool = False
    recomputed_tiles: list[int] = field(default_factory=list)
    check_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return self.failed_tile is None


def online_fused_matmul(
    a: np.ndarray,
    ea: np.ndarray,
    b: np.ndarray,
    eb: np.ndarray,
    *,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    col_eps: np.ndarray,
    row_eps: np.ndarray,
    tile_blocks: int | None = None,
    gemm_tile: int | None = None,
    pool=None,
    executor=None,
    abort_on_failure: bool = True,
    max_recomputes: int = 2,
    inject_hook: InjectHook | None = None,
) -> OnlineFusedOutcome:
    """The side products of ``a @ b`` with the check fused into the tiles.

    Parameters
    ----------
    a, ea, b, eb:
        The raw operands and their block-checksum matrices
        (:func:`~repro.kernels.sideproduct.block_checksums`).
    col_eps / row_eps:
        Dense tolerance grids from the provider's ``epsilon_grids`` —
        computed *before* the multiply, which is what makes the in-loop
        comparison possible.
    tile_blocks:
        Fused tile edge in whole blocks per axis (:func:`plan_fused_tiles`);
        ``None`` is the degenerate single-tile mode.
    gemm_tile:
        The plan's canonical GEMM tile edge, honoured **only** in the
        degenerate single-fused-tile mode: the products then run
        :func:`~repro.kernels.matmul_tiled.tiled_matmul` over the canonical
        tile list, so result bytes are identical to the separate path for
        *every* plan tile geometry.  Multi-tile fused plans own their
        geometry and ignore it (the documented byte change, exactly like
        changing ``gemm_tile`` itself).
    pool:
        Optional :class:`~repro.engine.plan.WorkspacePool` for tile
        staging buffers.
    executor:
        Optional ``concurrent.futures``-style executor.  When given, the
        next tile's GEMMs are speculatively submitted while the current
        tile is being checked (one-tile lookahead); tile writes are
        disjoint so the bytes are unchanged, and check order — hence
        abort order — stays serial.
    abort_on_failure:
        ``False`` checks every tile but never recomputes or aborts (the
        autotuner's timing mode).
    max_recomputes:
        Recompute attempts per failing tile before declaring the failure
        persistent and aborting.
    inject_hook:
        ``(tile_index, attempt, tile_view) -> None`` called after each
        tile's GEMMs (and after each recompute, with the attempt number
        incremented) with the tile's view of ``C`` — the fault-campaign /
        chaos injection seam.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("online_fused_matmul operands must be 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    m, q = a.shape[0], b.shape[1]
    bs_r, bs_c = row_layout.block_size, col_layout.block_size
    if -(-m // bs_r) != row_layout.num_blocks or -(-q // bs_c) != col_layout.num_blocks:
        raise ShapeError(
            f"result {m}x{q} does not match layouts "
            f"({row_layout.data_rows} x {col_layout.data_rows})"
        )
    m_enc, q_enc = row_layout.encoded_rows, col_layout.encoded_rows
    if col_eps.shape != (row_layout.num_blocks, q_enc):
        raise ShapeError(
            f"col_eps has shape {col_eps.shape}, expected "
            f"{(row_layout.num_blocks, q_enc)}"
        )
    if row_eps.shape != (m_enc, col_layout.num_blocks):
        raise ShapeError(
            f"row_eps has shape {row_eps.shape}, expected "
            f"{(m_enc, col_layout.num_blocks)}"
        )

    tiles = plan_fused_tiles(row_layout, col_layout, tile_blocks)
    dtype = np.result_type(a, b)
    if len(tiles) == 1:
        # Degenerate mode: the separate path's exact GEMMs (canonical tile
        # list, same staging) — bitwise identical bytes.
        def gemm(x, y):
            return tiled_matmul(x, y, tile=gemm_tile, pool=pool, executor=executor)

        products = None
    else:
        products = SideProducts(
            c=np.empty((m, q), dtype=dtype),
            r=np.empty((ea.shape[0], q), dtype=dtype),
            k=np.empty((m, eb.shape[1]), dtype=dtype),
            x=np.empty((ea.shape[0], eb.shape[1]), dtype=dtype),
        )
    outcome = OnlineFusedOutcome(
        products=products,
        col_disc=np.empty((row_layout.num_blocks, q_enc)),
        row_disc=np.empty((m_enc, col_layout.num_blocks)),
        tiles=tiles,
        tiles_total=len(tiles),
    )
    s_r, s_c = row_layout.stride, col_layout.stride

    def run_gemm_tile(bounds: tuple[int, int, int, int]):
        """Compute one tile's products; returns ``(hot, buf)``.

        ``hot`` holds the tile's ``C`` bytes — the staging buffer while it
        is still cache-hot from the GEMM, which is what makes the in-loop
        check cheaper than the separate path's full-matrix passes.
        ``buf`` is the pool buffer to recycle once the tile is checked
        (``None`` without staging).
        """
        if len(tiles) == 1:
            outcome.products = side_products(a, ea, b, eb, gemm)
            return outcome.products.c, None
        br0, br1, bc0, bc1 = bounds
        rows = slice(br0 * bs_r, min(br1 * bs_r, m))
        cols = slice(bc0 * bs_c, min(bc1 * bs_c, q))
        sp = products
        np.matmul(ea[br0:br1], b[:, cols], out=sp.r[br0:br1, cols])
        np.matmul(a[rows], eb[:, bc0:bc1], out=sp.k[rows, bc0:bc1])
        np.matmul(ea[br0:br1], eb[:, bc0:bc1], out=sp.x[br0:br1, bc0:bc1])
        dst = sp.c[rows, cols]
        if pool is not None:
            buf = pool.take(dst.shape, dtype)
            np.matmul(a[rows], b[:, cols], out=buf)
            dst[...] = buf
            return buf, buf
        np.matmul(a[rows], b[:, cols], out=dst)
        return dst, None

    def tile_bad(hot: np.ndarray, bounds: tuple[int, int, int, int]) -> bool:
        """Check one tile; record its grid slices; report failure."""
        br0, br1, bc0, bc1 = bounds
        sp = outcome.products
        rows = slice(br0 * bs_r, br0 * bs_r + hot.shape[0])
        cols = slice(bc0 * bs_c, bc0 * bs_c + hot.shape[1])
        tile = SideProducts(
            c=hot,
            r=sp.r[br0:br1, cols],
            k=sp.k[rows, bc0:bc1],
            x=sp.x[br0:br1, bc0:bc1],
        )
        enc_rows = slice(br0 * s_r, br1 * s_r)
        enc_cols = slice(bc0 * s_c, bc1 * s_c)
        cd, rd = side_discrepancies(
            tile,
            PartitionedLayout((br1 - br0) * bs_r, bs_r),
            PartitionedLayout((bc1 - bc0) * bs_c, bs_c),
            col_out=outcome.col_disc[br0:br1, enc_cols],
            row_out=outcome.row_disc[enc_rows, bc0:bc1],
        )
        ce = col_eps[br0:br1, enc_cols]
        re = row_eps[enc_rows, bc0:bc1]
        return bool(
            ((cd > ce) | ~np.isfinite(cd)).any()
            or ((rd > re) | ~np.isfinite(rd)).any()
        )

    aborted = False
    lookahead = None  # (index, future) of the speculatively running tile
    for idx, bounds in enumerate(tiles):
        if lookahead is not None and lookahead[0] == idx:
            hot, buf = lookahead[1].result()
            lookahead = None
        else:
            hot, buf = run_gemm_tile(bounds)
        if aborted:
            if buf is not None:
                pool.give(buf)
            continue  # finish the product unchecked after an early abort

        if executor is not None and idx + 1 < len(tiles):
            lookahead = (
                idx + 1, executor.submit(run_gemm_tile, tiles[idx + 1])
            )

        attempt = 0
        while True:
            if inject_hook is not None:
                # Faults are injected into the result view, so the check
                # must read the result view too, not the staging copy.
                br0, _br1, bc0, _bc1 = bounds
                hot = outcome.products.c[
                    br0 * bs_r : br0 * bs_r + hot.shape[0],
                    bc0 * bs_c : bc0 * bs_c + hot.shape[1],
                ]
                inject_hook(idx, attempt, hot)
            t0 = time.perf_counter()
            bad = tile_bad(hot, bounds)
            outcome.check_seconds += time.perf_counter() - t0
            if not bad or not abort_on_failure:
                break
            if attempt >= max_recomputes:
                outcome.failed_tile = idx
                outcome.early_abort = True
                aborted = True
                break
            if buf is not None:
                pool.give(buf)
            hot, buf = run_gemm_tile(bounds)
            if idx not in outcome.recomputed_tiles:
                outcome.recomputed_tiles.append(idx)
            attempt += 1
        if buf is not None:
            pool.give(buf)
        outcome.tiles_checked += 1
    if lookahead is not None:
        hot, buf = lookahead[1].result()
        if buf is not None:
            pool.give(buf)
    return outcome
