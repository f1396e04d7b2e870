"""The batch executor: same-shape protected multiplications in one pass.

``execute_batch`` runs a batch of ``(a_i, b_i)`` products whose shapes,
dtypes and config all agree through this module (mode ``fused``, which
mode ``auto`` picks whenever :func:`fused_supported` holds) instead of
``k`` independent calls:

* **operand dedup** — operands appearing in several pairs (the serving
  pattern: one weight matrix against many activations) are encoded once
  and reused everywhere; distinct raw right operands are checksummed and
  searched in one pass over their side-by-side stack;
* **one product per shared left operand** — the pairs sharing a left
  operand become *one* ``C`` GEMM over their right operands stacked side
  by side (the stack the encode built, when it holds exactly the group),
  plus per-pair thin checksum products (:mod:`repro.kernels.sideproduct`)
  and one discrepancy pass over the stacked products, sliced per pair;
* **batched tolerance grids** — the tolerance grids of all pairs sharing
  a left operand are built by one
  :func:`~repro.abft.grids.aabft_tolerance_grids` call over the
  concatenated column top-p data, and compared against the group's
  discrepancy grids in one pass;
* **single dispatch** — one plan lookup (which carries the negotiated
  config) and one set of stage timers for the whole batch.

Results — data, full-checksum matrices, reports, tolerances — are
**bitwise identical** to sequential :meth:`~repro.engine.MatmulEngine.
matmul` calls (asserted by ``tests/serve/test_batch.py``).  Checksums,
top-p data, discrepancies and tolerance grids are per-column or per-block
computations, so slices of the stacked results are the per-pair results.
A stacked GEMM is *not* guaranteed to slice into the per-pair GEMM bytes
(BLAS kernel selection depends on operand shapes), so the first stacked
call of every ``(plan, width)`` signature is dual-computed along the
stacked and the per-pair path and every product and discrepancy compared
(:func:`group_products`).  Only a byte-identical probe enables the
stacked call for that signature; a mismatch pins it to per-pair products,
counted in ``abft_pipeline_fallbacks_total{reason="bitwise_probe"}``.
The thin ``R``/``K``/``X`` products stay per pair: stacked 2-D thin GEMMs
do not slice bitwise into the per-pair ones.

Batches that do not meet the preconditions (non-``aabft`` scheme, an
explicit storage dtype, heterogeneous shapes or dtypes, fewer than two
pairs) run on the serial thread-fanned path of
:meth:`~repro.engine.MatmulEngine.execute_batch`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..abft.grids import CheckGrids, aabft_tolerance_grids, check_reports
from ..abft.providers import AABFTEpsilonProvider
from ..abft.result import AbftResult
from ..kernels.encode_fused import fused_encode
from ..kernels.sideproduct import SideProducts, side_discrepancies

__all__ = [
    "GroupProducts",
    "encode_stack",
    "fused_supported",
    "group_products",
    "group_reports",
    "group_tolerances",
    "run_fused",
]


def fused_supported(a_items, b_items, cfg) -> bool:
    """Whether the fused fast path applies to this expanded batch."""
    from .engine import EncodedOperand, _operand_dtype, _resolve_dtype

    if cfg.scheme != "aabft" or len(a_items) < 2:
        return False
    # Explicit storage dtypes resolve through _resolve_storage_compute
    # (and may quantise results); the serial path owns that logic.
    if cfg.dtype is not None:
        return False

    def shape_of(item):
        if isinstance(item, EncodedOperand):
            return item.shape
        arr = np.asarray(item)
        return arr.shape if arr.ndim == 2 else None

    a_shapes = {shape_of(x) for x in a_items}
    b_shapes = {shape_of(x) for x in b_items}
    if len(a_shapes) != 1 or len(b_shapes) != 1:
        return False
    a_shape = next(iter(a_shapes))
    b_shape = next(iter(b_shapes))
    if a_shape is None or b_shape is None or a_shape[1] != b_shape[0]:
        return False
    # The computation dtype must resolve identically for every pair.
    dtypes = [_operand_dtype(x) for x in a_items + b_items]
    resolved = _resolve_dtype(*dtypes)
    return all(
        _resolve_dtype(_operand_dtype(a), _operand_dtype(b)) == resolved
        for a, b in zip(a_items, b_items)
    )


def encode_stack(plan, cfg, arrays) -> tuple[np.ndarray, list]:
    """Encode raw right operands of one shape in one pass over their stack.

    Returns ``(stacked, handles)``: the operands side by side (what a
    stacked ``C`` GEMM reads) and one handle per operand whose checksums
    and top-p data are the stack's slices.  A handle's data is
    the operand itself and its checksums a contiguous copy, so a per-pair
    product multiplies the very bytes, in the very memory layout, that a
    single call would (BLAS may round a strided operand differently).
    """
    from .engine import EncodedOperand

    count = len(arrays)
    stack = fused_encode(
        np.hstack(arrays) if count > 1 else arrays[0],
        "b",
        cfg.block_size,
        p=cfg.top_p(arrays[0].shape[0]),
        pool=plan.pool,
        items=count,
    )
    nb = stack.layout.num_blocks
    w = stack.layout.encoded_rows
    handles = [
        EncodedOperand(
            side="b",
            data=arr,
            checksums=np.ascontiguousarray(
                stack.checksums[:, j * nb : (j + 1) * nb]
            ),
            layout=stack.layout,
            config=cfg,
            top_values=stack.top_values[j * w : (j + 1) * w],
            top_indices=stack.top_indices[j * w : (j + 1) * w],
        )
        for j, arr in enumerate(arrays)
    ]
    return stack.data, handles


@dataclass
class GroupProducts:
    """Side products of right operands sharing one left operand.

    ``stack`` holds the stacked products when one stacked call served the
    group (``None`` on the per-pair path); ``items`` the per-pair products
    (views of the stack, or each pair's own); ``backend`` / ``fallback``
    the one dispatch that computed them.
    """

    stack: SideProducts | None
    items: list
    backend: str
    fallback: str | None


#: Smallest per-pair result a stacked ``C`` may serve.  A stacked GEMM
#: can round differently from the per-pair one, and the probe compares
#: values: on a tiny result a different kernel could agree by chance.
_STACK_MIN_ELEMENTS = 64


def group_products(engine, plan, enc_a, enc_bs, stacked_b=None) -> GroupProducts:
    """The side products of ``enc_a`` against every handle of ``enc_bs``.

    ``C`` — the one large product — is computed by one GEMM over the right
    operands stacked side by side once the bitwise probe of the group's
    ``(plan, width)`` signature passed; the thin checksum products are
    per pair (their per-pair and stacked GEMMs use different BLAS kernels).
    The first group of a signature runs the probe (returning the per-pair
    reference products); a failed probe keeps the signature on per-pair
    products, as do results too small for a probe to be conclusive.
    ``stacked_b`` holds the right operands side by side when the caller
    already built it.  The ``result`` chaos event fires per pair on the products
    it returns.
    """
    count = len(enc_bs)
    m, q = enc_a.data.shape[0], enc_bs[0].data.shape[1]
    verdict = False
    if count > 1 and m > 1 and q > 1 and m * q >= _STACK_MIN_ELEMENTS:
        with engine._stacked_lock:
            verdict = engine._stacked_ok.get((plan.key, count))
    if verdict is not False and stacked_b is None:
        stacked_b = np.hstack([eb.data for eb in enc_bs])

    def compute(gemm):
        a, ea = enc_a.data, enc_a.checksums
        thin = [
            (gemm(ea, eb.data), gemm(a, eb.checksums), gemm(ea, eb.checksums))
            for eb in enc_bs
        ]
        per_pair = stacked = None
        if verdict is not True:
            per_pair = [
                SideProducts(c=gemm(a, eb.data), r=r, k=k, x=x)
                for eb, (r, k, x) in zip(enc_bs, thin)
            ]
        if verdict is not False:
            stacked = SideProducts(
                c=gemm(a, stacked_b),
                r=np.hstack([r for r, _k, _x in thin]),
                k=np.hstack([k for _r, k, _x in thin]),
                x=np.hstack([x for _r, _k, x in thin]),
            )
        return per_pair, stacked

    (per_pair, stacked), used, fallback = engine._dispatch(plan, compute)
    if verdict is None:
        ok = _probe(plan, stacked, per_pair)
        with engine._stacked_lock:
            engine._stacked_ok[(plan.key, count)] = ok
        if not ok:
            engine._m_pipe_fallbacks.labels(reason="bitwise_probe").inc()
    if verdict is True:
        group = GroupProducts(
            stacked, [stacked.item(j, count) for j in range(count)],
            used, fallback,
        )
    else:
        group = GroupProducts(None, per_pair, used, fallback)
    for sp in group.items:
        engine._result_hook(used, sp, plan)
    return group


def _probe(plan, stacked: SideProducts, items: list) -> bool:
    """Whether the stacked products slice into the per-pair ones, bitwise."""
    count = len(items)
    for j, ref in enumerate(items):
        got = stacked.item(j, count)
        if not all(
            np.array_equal(x, y)
            for x, y in zip((got.c, got.r, got.k, got.x),
                            (ref.c, ref.r, ref.k, ref.x))
        ):
            return False
    # Identical bytes must also slice into identical discrepancies.
    col_cat, row_cat = side_discrepancies(
        stacked, plan.row_layout, plan.col_layout, items=count
    )
    w = plan.col_layout.encoded_rows
    nb = plan.col_layout.num_blocks
    for j, ref in enumerate(items):
        col, row = side_discrepancies(ref, plan.row_layout, plan.col_layout)
        if not (
            np.array_equal(col, col_cat[:, j * w : (j + 1) * w])
            and np.array_equal(row, row_cat[:, j * nb : (j + 1) * nb])
        ):
            return False
    return True


def group_tolerances(plan, cfg, enc_a, enc_bs) -> CheckGrids:
    """The tolerance grids of every pair of one group, item after item."""
    count = len(enc_bs)
    col_vals = enc_bs[0].top_values
    col_idx = enc_bs[0].top_indices
    if count > 1:
        col_vals = np.concatenate([eb.top_values for eb in enc_bs])
        col_idx = np.concatenate([eb.top_indices for eb in enc_bs])
    return aabft_tolerance_grids(
        plan.scheme,
        enc_a.top_values, enc_a.top_indices, col_vals, col_idx,
        plan.row_layout, plan.col_layout, plan.n, cfg.epsilon_floor,
        items=count, pool=plan.pool,
    )


def group_reports(engine, plan, cfg, enc_a, enc_bs, group: GroupProducts):
    """Check reports of one group: one tolerance build, one discrepancy
    buffer and one comparison for all of its pairs."""
    count = len(enc_bs)
    eps = group_tolerances(plan, cfg, enc_a, enc_bs)
    disc = CheckGrids.empty(plan.row_layout, plan.col_layout, items=count)
    if group.stack is not None:
        side_discrepancies(
            group.stack, plan.row_layout, plan.col_layout, items=count,
            col_out=disc.col, row_out=disc.row,
        )
    else:
        for j, sp in enumerate(group.items):
            col_out, row_out = disc.item(j, count)
            side_discrepancies(
                sp, plan.row_layout, plan.col_layout,
                col_out=col_out, row_out=row_out,
            )
    reports = check_reports(
        disc, eps, plan.row_layout, plan.col_layout, items=count
    )
    # Reports keep only discrepancy views; the tolerance buffer recycles.
    plan.pool.give(eps.buffer)
    return reports


def make_result(engine, plan, cfg, enc_a, enc_b, sp, report, backend,
                fallback, fused, fused_fallback, *, copy_c: bool):
    """One pair's :class:`AbftResult` (``copy_c`` for views of a stack)."""
    provider = AABFTEpsilonProvider.from_arrays(
        scheme=plan.scheme,
        row_values=enc_a.top_values,
        row_indices=enc_a.top_indices,
        col_values=enc_b.top_values,
        col_indices=enc_b.top_indices,
        row_layout=plan.row_layout,
        col_layout=plan.col_layout,
        inner_dim=plan.n,
        epsilon_floor=cfg.epsilon_floor,
    )
    engine._m_calls.inc()
    if report.error_detected:
        engine._m_detections.inc()
    return AbftResult(
        c=np.ascontiguousarray(sp.c) if copy_c else sp.c,
        c_fc=None,
        report=report,
        row_layout=plan.row_layout,
        col_layout=plan.col_layout,
        provider=provider,
        backend=backend,
        backend_fallback=fallback,
        fused=fused,
        fused_fallback=fused_fallback,
        products=sp,
    )


def run_fused(engine, a_items, b_items, cfg) -> list:
    """Execute the expanded batch through the batch executor.

    Preconditions (:func:`fused_supported`) must hold.
    """
    from .engine import EncodedOperand

    first_a, first_b = (
        x if isinstance(x, EncodedOperand) else np.asarray(x)
        for x in (a_items[0], b_items[0])
    )
    # Every pair resolves to the same computation dtype (fused_supported),
    # so the first pair's signature carries the batch's plan.
    plan = engine._plan(
        cfg, first_a.dtype, first_b.dtype, first_a.shape, first_b.shape
    )
    cfg, dtype = plan.config, plan.dtype
    selection_fallback, fused_fallback = (
        plan.selection_fallback, plan.fused_fallback
    )

    # --- encode (deduplicated; distinct right operands stacked) ---------
    t0 = time.perf_counter()
    enc_a, _ = _resolve_side(engine, a_items, "a", cfg, plan, dtype)
    enc_b, stack = _resolve_side(engine, b_items, "b", cfg, plan, dtype)
    engine._add_seconds("encode", time.perf_counter() - t0)

    fused_online = cfg.fusion == "fused"
    outputs: list = [None] * len(a_items)
    groups: dict[int, list[int]] = {}
    for i, ea in enumerate(enc_a):
        groups.setdefault(id(ea), []).append(i)
    if fused_online:
        # --- fused online multiply+check, one tile loop per pair --------
        t0 = time.perf_counter()
        check_s = 0.0
        for idx in groups.values():
            t1 = time.perf_counter()
            eps = group_tolerances(
                plan, cfg, enc_a[idx[0]], [enc_b[i] for i in idx]
            )
            check_s += time.perf_counter() - t1  # grid build is check work
            for j, i in enumerate(idx):
                ce, re_ = eps.item(j, len(idx))
                outcome, used, fallback = engine._fused_online(
                    plan, cfg, enc_a[i], enc_b[i], ce, re_
                )
                t1 = time.perf_counter()
                report = engine._fused_report(outcome, ce, re_, plan)
                check_s += outcome.check_seconds + (time.perf_counter() - t1)
                outputs[i] = (outcome.products, report, used, fallback, False)
            plan.pool.give(eps.buffer)
        engine._add_seconds(
            "multiply", max(0.0, time.perf_counter() - t0 - check_s)
        )
        engine._add_seconds("check", check_s)
    else:
        # --- multiply: one side-product call per shared left operand ----
        t0 = time.perf_counter()
        stacked_b, stack_handles = stack or (None, ())
        products = []
        for idx in groups.values():
            group_b = [enc_b[i] for i in idx]
            # The encode's stack is the group's C operand when it holds
            # exactly the group's right operands, in order.
            reuse = len(group_b) == len(stack_handles) and all(
                x is y for x, y in zip(group_b, stack_handles)
            )
            products.append(
                group_products(
                    engine, plan, enc_a[idx[0]], group_b,
                    stacked_b if reuse else None,
                )
            )
        engine._add_seconds("multiply", time.perf_counter() - t0)
        # --- check (tolerance grids and discrepancies batched) ----------
        t0 = time.perf_counter()
        for idx, group in zip(groups.values(), products):
            reports = group_reports(
                engine, plan, cfg, enc_a[idx[0]], [enc_b[i] for i in idx],
                group,
            )
            for j, i in enumerate(idx):
                outputs[i] = (
                    group.items[j], reports[j], group.backend,
                    group.fallback, group.stack is not None,
                )
        engine._add_seconds("check", time.perf_counter() - t0)

    return [
        make_result(
            engine, plan, cfg, ea, eb, sp, report, used,
            selection_fallback or fallback, fused_online, fused_fallback,
            copy_c=copy_c,
        )
        for ea, eb, (sp, report, used, fallback, copy_c) in zip(
            enc_a, enc_b, outputs
        )
    ]


def _resolve_side(engine, items, side, cfg, plan, dtype) -> list:
    """Encoded operands for one side: dedupe, validate handles, encode.

    Distinct raw right operands are encoded in one pass over their stack
    (:func:`encode_stack`).  Returns ``(encoded, stack)``: one handle per
    item, and ``(stacked, handles)`` from :func:`encode_stack` (``None``
    when it did not run).
    """
    from .engine import EncodedOperand, encode_operand

    encoded: dict[int, object] = {}
    raw_ids: list[int] = []
    raw_arrays: list[np.ndarray] = []
    for item in items:
        key = id(item)
        if key in encoded:
            continue
        if isinstance(item, EncodedOperand):
            engine._check_handle(item, side, cfg, dtype)
            encoded[key] = item
        else:
            encoded[key] = None  # placeholder, filled below
            raw_ids.append(key)
            raw_arrays.append(np.asarray(item).astype(dtype, copy=False))

    stack = None
    if raw_arrays:
        if side == "b":
            stack = encode_stack(plan, cfg, raw_arrays)
            handles = stack[1]
        else:
            handles = [
                encode_operand(arr, side, cfg, pool=plan.pool)
                for arr in raw_arrays
            ]
        encoded.update(zip(raw_ids, handles))

    out = []
    seen: set[int] = set()
    for item in items:
        key = id(item)
        # A pre-encoded handle, or any dedup hit after the first use, is an
        # operand served without fresh encoding work — an encode reuse.
        if isinstance(item, EncodedOperand) or key in seen:
            engine._m_reuses.inc()
        seen.add(key)
        out.append(encoded[key])
    return out, stack
