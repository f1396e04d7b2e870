"""Zero-bubble stage-pipelined batch execution.

The A-ABFT flow is inherently three-staged — encode, multiply, check —
and the fused batch path (:mod:`repro.engine.fused`) still runs those
stages as barriered passes over the whole batch.  This module executes a
batch as a sequence of *chunks* whose stage slots are scheduled by a cost
model, in the style of the zero-bubble pipeline-parallel schedules
(F/B/W reordering): encode slots are prefetched onto the engine's thread
pool up to a bounded window (the ``F`` warm-up), the caller thread walks
the multiply slots (the steady-state ``B`` lane), and check slots are
deferred onto the pool to drain inside multiply bubbles (the ``W``
fill).  On a single-worker engine — or whenever the cost model predicts
overlap loses to its dispatch overhead — the schedule degenerates to the
serial ``E M C`` slot order and every slot runs inline.

Even without thread overlap the chunked execution wins: each chunk's
right operands are stacked side by side so the checksum and top-p pass,
the ``C`` GEMM, the discrepancy pass and the tolerance-grid evaluation
each run *once per chunk* instead of once per pair — the same
stage bodies the fused path runs per shared-left group
(:func:`~repro.engine.fused.encode_stack`,
:func:`~repro.engine.fused.group_products`,
:func:`~repro.engine.fused.group_reports`).

**Bitwise identity is the hard invariant.**  Per-item slices of the
stacked checksum, top-p and discrepancy passes are per-column or
per-block, and the tolerance grids are elementwise in the top-p data —
but a stacked GEMM is *not* guaranteed to slice into the per-item GEMM
bytes (BLAS kernel selection depends on operand shapes).  The first
chunk of every ``(plan, chunk width)`` signature is therefore
dual-computed along the stacked and the per-item path and every product
and discrepancy compared; only a byte-identical probe enables the stacked
call for that signature, and any mismatch pins it to per-item products
(counted in ``abft_pipeline_fallbacks_total``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import span
from .fused import (
    _batch_epsilon_grids,
    encode_stack,
    fused_supported,
    group_products,
    group_reports,
    make_result,
)
from .policy import ExecutionPolicy
from .stats import StageCosts

__all__ = [
    "PipelineSchedule",
    "pipeline_supported",
    "plan_schedule",
    "run_pipelined",
]

#: Thread-dispatch overhead the cost model charges per asynchronous slot.
_SLOT_OVERHEAD_S = 2e-4


def pipeline_supported(a_items, b_items, cfg) -> bool:
    """Whether the pipelined executor applies to this expanded batch.

    The pipelined path shares the fused preconditions (``aabft`` scheme,
    at least two pairs, homogeneous shapes and dtypes) and additionally
    needs every *right* operand raw: the chunked encode concatenates raw
    columns, so pre-encoded ``B`` handles route to the fused path
    instead.
    """
    from .engine import EncodedOperand

    if not fused_supported(a_items, b_items, cfg):
        return False
    return not any(isinstance(b, EncodedOperand) for b in b_items)


@dataclass(frozen=True)
class PipelineSchedule:
    """The cost model's decision for one pipelined batch.

    Attributes
    ----------
    chunks:
        ``(group_index, count)`` per chunk, in execution order — each
        chunk draws ``count`` consecutive pairs from one shared-left
        operand group.
    overlap:
        Whether encode/check slots ride the engine's thread pool while
        the caller thread walks the multiplies.  ``False`` replays the
        serial slot order inline (the cost model said overlap loses, or
        the engine has a single worker).
    window:
        Bound on encode-prefetched chunks in flight ahead of the multiply
        lane (1 when not overlapping).
    slots:
        The greedy ``(stage, chunk_index)`` slot order: check slots drain
        first, encode slots fill the window, multiply slots otherwise.
    predicted_serial_s / predicted_overlap_s:
        The cost model's wall-time estimates (0 when the engine has no
        stage timings yet).
    """

    chunks: tuple[tuple[int, int], ...]
    overlap: bool
    window: int
    slots: tuple[tuple[str, int], ...]
    predicted_serial_s: float = 0.0
    predicted_overlap_s: float = 0.0

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


def _greedy_slots(
    num_chunks: int, window: int
) -> tuple[tuple[str, int], ...]:
    """Greedy slot order: drain checks first, keep the encode window full.

    Priorities mirror the zero-bubble F/B/W rule — a completed multiply's
    check is issued immediately (it drains asynchronously in the next
    multiply's bubble), the encode lane is kept ``window`` chunks ahead,
    and the caller thread otherwise advances the multiply lane.  With
    ``window=1`` this degenerates to the serial ``E M C`` order.
    """
    slots: list[tuple[str, int]] = []
    encoded = multiplied = checked = 0
    while checked < num_chunks:
        if checked < multiplied:
            slots.append(("check", checked))
            checked += 1
        elif encoded < num_chunks and encoded - multiplied < window:
            slots.append(("encode", encoded))
            encoded += 1
        else:
            slots.append(("multiply", multiplied))
            multiplied += 1
    return tuple(slots)


def plan_schedule(
    group_sizes: list[int],
    stage_costs: StageCosts,
    workers: int,
    policy: ExecutionPolicy,
    *,
    fused_online: bool = False,
) -> PipelineSchedule:
    """Build the stage-slot schedule for one batch.

    The decision is seeded from the per-stage timings the engine has
    already measured (:attr:`~repro.engine.stats.EngineStats.
    stage_costs`): overlap is enabled only when the engine has spare
    workers *and* the predicted overlapped wall time — multiply lane vs.
    the encode/check side lane, plus per-slot dispatch overhead — beats
    the serial slot order.  A cold engine (no timings yet) stays serial;
    the measurements its first batches produce seed later decisions.

    ``fused_online=True`` models the fused online-ABFT chunk, which
    collapses multiply+check into one stage slot: the check lane is
    empty (its cost rides the multiply lane), so the pipeline can only
    overlap encode prefetch against the fused multiplies and there is no
    check drain after the last chunk.
    """
    total = sum(group_sizes)
    if policy.chunk_size is not None:
        chunk_size = policy.chunk_size
    elif workers <= 1:
        # No overlap possible: one chunk per group maximises amortisation.
        chunk_size = max(total, 1)
    else:
        # Enough chunks to keep every lane busy through fill and drain.
        target_chunks = max(3, 2 * workers)
        chunk_size = max(2, -(-total // target_chunks))
    chunks: list[tuple[int, int]] = []
    for gi, size in enumerate(group_sizes):
        for lo in range(0, size, chunk_size):
            chunks.append((gi, min(chunk_size, size - lo)))

    enc, mul, chk = (
        stage_costs.encode.mean,
        stage_costs.multiply.mean,
        stage_costs.check.mean,
    )
    observed = enc > 0.0 and mul > 0.0 and chk > 0.0
    if fused_online:
        # The fused chunk runs its checks inside the multiply slot; the
        # check lane contributes nothing on its own.
        mul, chk = mul + chk, 0.0
    counts = [count for _gi, count in chunks]
    serial_s = sum((enc + mul + chk) * k for k in counts)
    fill = enc * counts[0] if counts else 0.0
    drain = chk * counts[-1] if counts else 0.0
    side_lane = sum((enc + chk) * k for k in counts) - fill - drain
    overlap_s = (
        fill
        + max(mul * total, side_lane)
        + drain
        + 2 * len(chunks) * _SLOT_OVERHEAD_S
    )
    overlap = (
        workers >= 2
        and len(chunks) >= 2
        and observed
        and overlap_s < serial_s
    )
    window = policy.max_inflight if overlap else 1
    if (
        overlap
        and policy.deadline_s is not None
        and overlap_s > policy.deadline_s
    ):
        # No speculative prefetch past a budget the batch already blows.
        window = 1
    return PipelineSchedule(
        chunks=tuple(chunks),
        overlap=overlap,
        window=window,
        slots=_greedy_slots(len(chunks), window),
        predicted_serial_s=serial_s if observed else 0.0,
        predicted_overlap_s=overlap_s if observed else 0.0,
    )


@dataclass
class _Group:
    """One shared-left-operand group of the batch."""

    enc_a: object  # EncodedOperand
    indices: list[int]


@dataclass
class _ChunkState:
    """Everything one chunk carries between its stage slots."""

    group: _Group
    items: list[tuple[int, object]]  # (original index, raw right operand)
    stacked_b: object = None  # the chunk's right operands side by side
    handles: list | None = None  # per-item right handles
    encode_future: object = None
    check_future: object = None
    products: object = None  # GroupProducts
    outputs: list | None = None  # (products, report, backend, fallback)


def run_pipelined(engine, a_items, b_items, cfg, policy) -> list:
    """Execute the expanded batch through the stage-pipelined executor.

    Preconditions (:func:`pipeline_supported`) must hold.  Results come
    back in submission order, bitwise identical to sequential
    :meth:`~repro.engine.MatmulEngine.matmul` calls.
    """
    from .engine import (
        EncodedOperand,
        _operand_dtype,
        _resolve_dtype,
        encode_operand,
    )

    t_start = time.perf_counter()
    dtype = _resolve_dtype(*[_operand_dtype(x) for x in a_items + b_items])
    first_a, first_b = a_items[0], b_items[0]
    m, n = (
        first_a.shape
        if isinstance(first_a, EncodedOperand)
        else np.asarray(first_a).shape
    )
    q = np.asarray(first_b).shape[1]
    cfg, selection_fallback, fused_fallback = engine._negotiate(
        cfg, m, n, q, dtype
    )
    fused_online = cfg.fusion == "fused"
    plan, _hit = engine._plans.get(m, n, q, dtype, cfg)
    busy = {"encode": 0.0, "multiply": 0.0, "check": 0.0}

    # --- encode every distinct left operand once (inline, before the
    # chunk loop: chunks sharing a group must never race on its encode) --
    t0 = time.perf_counter()
    groups: list[_Group] = []
    by_id: dict[int, _Group] = {}
    for idx, a in enumerate(a_items):
        group = by_id.get(id(a))
        if group is None:
            if isinstance(a, EncodedOperand):
                engine._check_handle(a, "a", cfg, dtype)
                enc_a = a
            else:
                enc_a = encode_operand(
                    np.asarray(a).astype(dtype, copy=False), "a", cfg,
                    pool=plan.pool,
                )
            group = _Group(enc_a=enc_a, indices=[])
            by_id[id(a)] = group
            groups.append(group)
        # Reuse accounting matches the fused path: handles always count,
        # dedup hits count from the second use on.
        if isinstance(a, EncodedOperand) or group.indices:
            engine._m_reuses.inc()
        group.indices.append(idx)
    elapsed = time.perf_counter() - t0
    engine._add_seconds("encode", elapsed)
    busy["encode"] += elapsed

    schedule = plan_schedule(
        [len(g.indices) for g in groups],
        engine._stage_costs(),
        engine._max_workers,
        policy,
        fused_online=fused_online,
    )

    # --- materialise chunk states in schedule order ---------------------
    cursors = [0] * len(groups)
    states: list[_ChunkState] = []
    for gi, count in schedule.chunks:
        group = groups[gi]
        lo = cursors[gi]
        cursors[gi] = lo + count
        states.append(
            _ChunkState(
                group=group,
                items=[
                    (idx, b_items[idx])
                    for idx in group.indices[lo : lo + count]
                ],
            )
        )

    executor = engine._get_executor() if schedule.overlap else None

    def _timed(stage: str, fn, *args):
        t0 = time.perf_counter()
        with span(f"pipeline.{stage}", engine.registry):
            out = fn(*args)
        elapsed = time.perf_counter() - t0
        engine._add_seconds(stage, elapsed)
        return out, elapsed

    def _encode_slot(state: _ChunkState):
        return _timed("encode", _encode_chunk, engine, plan, cfg, state, dtype)

    def _check_slot(state: _ChunkState):
        return _timed("check", _check_chunk, engine, plan, cfg, state)

    # --- walk the stage slots ------------------------------------------
    for stage, ci in schedule.slots:
        state = states[ci]
        if stage == "encode":
            if executor is not None:
                state.encode_future = executor.submit(_encode_slot, state)
            else:
                _res, elapsed = _encode_slot(state)
                busy["encode"] += elapsed
        elif stage == "multiply":
            if state.encode_future is not None:
                _res, elapsed = state.encode_future.result()
                busy["encode"] += elapsed
            if fused_online:
                mul_s, chk_s = _fused_chunk(engine, plan, cfg, state)
                busy["multiply"] += mul_s
                busy["check"] += chk_s
                continue
            _res, elapsed = _timed(
                "multiply", _multiply_chunk, engine, plan, state
            )
            busy["multiply"] += elapsed
        else:  # check
            if fused_online:
                continue  # fused chunks report inside their multiply slot
            if executor is not None:
                state.check_future = executor.submit(_check_slot, state)
            else:
                _res, elapsed = _check_slot(state)
                busy["check"] += elapsed
    for state in states:
        if state.check_future is not None:
            _res, elapsed = state.check_future.result()
            busy["check"] += elapsed

    # --- assemble results in submission order ---------------------------
    results: list = [None] * len(a_items)
    for state in states:
        stacked = state.products is not None and state.products.stack is not None
        for j, (idx, _b) in enumerate(state.items):
            sp, report, used, fallback = state.outputs[j]
            results[idx] = make_result(
                engine, plan, cfg, state.group.enc_a, state.handles[j], sp,
                report, used, selection_fallback or fallback, fused_online,
                fused_fallback, copy_c=stacked,
            )

    # --- pipeline telemetry: bubble fraction and stage occupancy --------
    wall = time.perf_counter() - t_start
    engine._m_pipe_batches.inc()
    engine._m_pipe_chunks.inc(len(states))
    total_busy = 0.0
    for stage_name, seconds in busy.items():
        engine._m_pipe_busy[stage_name].inc(seconds)
        total_busy += seconds
        if wall > 0.0:
            engine._g_pipe_occupancy[stage_name].set(
                min(1.0, seconds / wall)
            )
    if wall > 0.0:
        engine._g_pipe_bubble.set(
            max(0.0, 1.0 - total_busy / (3.0 * wall))
        )
    return results


# ----------------------------------------------------------------------
# chunk stage bodies
# ----------------------------------------------------------------------
def _encode_chunk(engine, plan, cfg, state: _ChunkState, dtype) -> None:
    """Encode slot: one checksum and top-p pass over the chunk's stack."""
    arrays = [
        np.asarray(b).astype(dtype, copy=False) for _idx, b in state.items
    ]
    state.stacked_b, state.handles = encode_stack(plan, cfg, arrays)


def _multiply_chunk(engine, plan, state: _ChunkState) -> None:
    """Multiply slot: the chunk's side products (probe-gated stacking)."""
    state.products = group_products(
        engine, plan, state.group.enc_a, state.handles, state.stacked_b
    )


def _fused_chunk(engine, plan, cfg, state: _ChunkState) -> tuple[float, float]:
    """Fused-online chunk: multiply and in-loop check in one stage slot.

    Builds the per-pair tolerance grids (check work — they must exist
    before the tiles run), walks one fused tile loop per pair, and
    produces the chunk's reports on the spot; the schedule's check slot
    for this chunk is a no-op.  Returns the slot's
    ``(multiply_seconds, check_seconds)`` split — the kernel self-times
    its in-loop checks, so the split stays honest for the cost model.
    """
    ea = state.group.enc_a
    enc_b = state.handles
    t0 = time.perf_counter()
    col_eps, row_eps, backing = _batch_epsilon_grids(
        [ea] * len(enc_b), enc_b, cfg, plan
    )
    check_s = time.perf_counter() - t0  # grid build is check work
    state.outputs = []
    for eb, ce, re_ in zip(enc_b, col_eps, row_eps):
        outcome, used, fallback = engine._fused_online(
            plan, cfg, ea, eb, ce, re_
        )
        t1 = time.perf_counter()
        report = engine._fused_report(outcome, ce, re_, plan)
        check_s += outcome.check_seconds + (time.perf_counter() - t1)
        state.outputs.append((outcome.products, report, used, fallback))
    for buf in backing:
        plan.pool.give(buf)
    mul_s = max(0.0, time.perf_counter() - t0 - check_s)
    engine._add_seconds("multiply", mul_s)
    engine._add_seconds("check", check_s)
    return mul_s, check_s


def _check_chunk(engine, plan, cfg, state: _ChunkState) -> None:
    """Check slot: batched grids and one discrepancy pass, sliced per item."""
    group = state.products
    reports = group_reports(
        engine, plan, cfg, state.group.enc_a, state.handles, group
    )
    state.outputs = [
        (sp, report, group.backend, group.fallback)
        for sp, report in zip(group.items, reports)
    ]
