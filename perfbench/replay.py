"""Stage replay: the engine's public stage functions timed one by one.

The engine is a black box to the end-to-end run.  For the per-layer view
this module re-runs the stages of one protected product — pad, encode,
top-p, multiply, tolerance grids, discrepancies, strip — through the
library's public stage functions on the workload's own operands, in
engine order, and times each.  ``engine.glue_ms`` is the engine call's
wall minus the replayed stages: the engine's self time.

A stage function that a later design removed is reported as absent and
its dependants are skipped; the run goes on.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

from harness import Tracer

#: stage metric -> (module, function) of the public stage entry point(s).
STAGES = {
    "kernels.pad_ms": [("repro.abft.encoding", "pad_to_block_multiple")],
    "kernels.encode_ms": [
        ("repro.abft.encoding", "encode_partitioned_columns"),
        ("repro.abft.encoding", "encode_partitioned_rows"),
    ],
    "bounds.top_p_ms": [("repro.bounds.upper_bound", "top_p_arrays")],
    "kernels.gemm_ms": [("repro.kernels.matmul_tiled", "tiled_matmul")],
    "abft.grid_ms": [],  # the provider's epsilon_grids method
    "abft.discrepancy_ms": [
        ("repro.abft.checking", "column_discrepancies"),
        ("repro.abft.checking", "row_discrepancies"),
    ],
    "abft.strip_ms": [("repro.abft.encoding", "strip_encoding")],
}
REPLAYED = tuple(STAGES)
METRICS = REPLAYED + ("raw.gemm_ms", "engine.glue_ms")


def _resolve(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class _Absent(LookupError):
    """A stage every later stage depends on no longer exists."""


def _median_call(fn, reps: int) -> tuple[float, object]:
    """Median wall seconds of ``reps`` calls and the last return value."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def replay(engine, a: np.ndarray, b: np.ndarray, *, reps: int = 3,
           tracer: Tracer | None = None, label: str = "") -> dict:
    """Replay one product's stages; returns stage ms, absences and counts.

    Keys: every name of :data:`METRICS` that could run (ms), ``absent``
    (the stage metrics that could not), and ``gemm_flop_ratio`` and
    ``bytes_ratio`` computed from the encoded operand shapes (``None``
    when encoding is absent).
    """
    tracer = tracer if tracer is not None else Tracer(False)
    with tracer.span("replay", rid=label) as root:
        out = _replay(engine, a, b, reps, tracer, root, label)
    return out


def _replay(engine, a, b, reps, tracer, root, label) -> dict:
    cfg = engine.config
    bs, p = cfg.block_size, cfg.p
    fns = {
        stage: [_resolve(mod, name) for mod, name in entries]
        for stage, entries in STAGES.items()
    }
    seconds: dict[str, float] = {}
    out: dict = {"absent": []}
    state: dict = {}

    def run(stage: str, fn):
        with tracer.span(stage.removesuffix("_ms"), parent=root, rid=label):
            return _median_call(fn, reps)

    def need(stage: str):
        found = fns[stage]
        if any(fn is None for fn in found):
            raise _Absent(stage)
        return found

    result = engine.matmul(a, b)  # warm; also supplies the provider
    try:
        pad, = need("kernels.pad_ms")
        seconds["kernels.pad_ms"], (pa, pb) = run(
            "kernels.pad_ms",
            lambda: (pad(a, bs, axis=0), pad(b, bs, axis=1)),
        )
        (a_p, (rows_added, _)), (b_p, (_, cols_added)) = pa, pb
        enc_cols, enc_rows = need("kernels.encode_ms")
        seconds["kernels.encode_ms"], encoded = run(
            "kernels.encode_ms",
            lambda: (enc_cols(a_p, bs), enc_rows(b_p, bs)),
        )
        (a_enc, row_layout), (b_enc, col_layout) = encoded
        state.update(a_enc=a_enc, b_enc=b_enc)
        top_p = fns["bounds.top_p_ms"][0]
        if top_p is not None:
            seconds["bounds.top_p_ms"], _ = run(
                "bounds.top_p_ms",
                lambda: (top_p(a_enc, p, axis=1), top_p(b_enc, p, axis=0)),
            )
        gemm, = need("kernels.gemm_ms")
        seconds["kernels.gemm_ms"], c_fc = run(
            "kernels.gemm_ms", lambda: gemm(a_enc, b_enc)
        )
        state["c_fc"] = c_fc
        grids = getattr(result.provider, "epsilon_grids", None)
        if grids is not None:
            seconds["abft.grid_ms"], _ = run(
                "abft.grid_ms",
                lambda: grids(result.row_layout, result.col_layout),
            )
        col_disc, row_disc = fns["abft.discrepancy_ms"]
        if col_disc is not None and row_disc is not None:
            seconds["abft.discrepancy_ms"], _ = run(
                "abft.discrepancy_ms",
                lambda: (col_disc(c_fc, row_layout), row_disc(c_fc, col_layout)),
            )
        strip = fns["abft.strip_ms"][0]
        if strip is not None:
            seconds["abft.strip_ms"], _ = run(
                "abft.strip_ms",
                lambda: strip(c_fc, row_layout, col_layout, rows_added, cols_added),
            )
    except _Absent:
        pass  # it and every stage downstream of it are reported absent
    except (TypeError, ValueError) as exc:
        # A changed signature must not end the run: report, skip the rest.
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["absent"] = [s for s in REPLAYED if s not in seconds]

    seconds["raw.gemm_ms"], _ = run("raw.gemm_ms", lambda: np.matmul(a, b))
    engine_s, _ = run("engine.matmul_ms", lambda: engine.matmul(a, b))
    seconds["engine.glue_ms"] = engine_s - sum(
        seconds[s] for s in REPLAYED if s in seconds
    )
    out.update({k: v * 1e3 for k, v in seconds.items()})

    m, n = a.shape
    q = b.shape[1]
    out["gemm_flop_ratio"] = out["bytes_ratio"] = None
    if "a_enc" in state:
        a_enc, b_enc = state["a_enc"], state["b_enc"]
        c_fc = state.get("c_fc")
        c_bytes = (
            c_fc.nbytes if c_fc is not None
            else a_enc.shape[0] * b_enc.shape[1] * a_enc.itemsize
        )
        out["gemm_flop_ratio"] = (
            a_enc.shape[0] * a_enc.shape[1] * b_enc.shape[1]
        ) / (m * n * q)
        out["bytes_ratio"] = (a_enc.nbytes + b_enc.nbytes + c_bytes) / (
            a.nbytes + b.nbytes + m * q * a.itemsize
        )
    return out
