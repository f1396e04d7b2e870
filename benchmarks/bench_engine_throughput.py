"""Throughput of the plan-caching engine vs the seed per-call path.

The engine redesign's acceptance benchmark: 100 repeated same-shape
256 x 256 A-ABFT multiplications through a warm :class:`repro.engine.
MatmulEngine` must run at least 2x the throughput of the pre-engine
per-call implementation (re-derived here verbatim from the repository's
primitives: pad -> encode -> top-p -> matmul -> scalar partitioned check
-> extract).  Also measures the batched and encoded-handle paths and
verifies every product bitwise against ``np.matmul`` (the engine's
side-product layout returns the raw GEMM's bytes) and every verdict
against the baseline, plus single-fault detection through the handle
path.

Run directly::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

Results are written to ``BENCH_engine.json`` at the repository root.

CI runs the smoke variant, which never rewrites the committed baseline —
it loads it and fails when the warm per-call time regresses past the
tolerance (generous by default so shared-runner noise doesn't flap)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --quick --compare --tolerance 0.30
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.abft.checking import check_partitioned
from repro.abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_rows,
    pad_to_block_multiple,
    strip_encoding,
)
from repro.abft.providers import AABFTEpsilonProvider
from repro.abft.result import AbftResult
from repro.bounds.probabilistic import ProbabilisticBound
from repro.bounds.upper_bound import top_p_of_columns, top_p_of_rows
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.fp.constants import format_for_dtype

SIZE = 256
REPEATS = 100
QUICK_REPEATS = 20
BLOCK_SIZE = 64
P = 2
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def seed_per_call_matmul(a: np.ndarray, b: np.ndarray) -> AbftResult:
    """The pre-engine ``aabft_matmul``: all setup and checking per call.

    Mirrors the seed implementation exactly — plans, layouts and bound
    scheme rebuilt every call, tolerances evaluated one scalar comparison
    at a time through ``check_partitioned``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_pad, (rows_added, _) = pad_to_block_multiple(a, BLOCK_SIZE, axis=0)
    b_pad, (_, cols_added) = pad_to_block_multiple(b, BLOCK_SIZE, axis=1)
    a_cc, row_layout = encode_partitioned_columns(a_pad, BLOCK_SIZE)
    b_rc, col_layout = encode_partitioned_rows(b_pad, BLOCK_SIZE)
    row_tops = top_p_of_rows(a_cc, P)
    col_tops = top_p_of_columns(b_rc, P)
    c_fc = a_cc @ b_rc
    provider = AABFTEpsilonProvider(
        scheme=ProbabilisticBound(
            omega=3.0, fma=False, fmt=format_for_dtype(c_fc.dtype)
        ),
        row_tops=row_tops,
        col_tops=col_tops,
        row_layout=row_layout,
        col_layout=col_layout,
        inner_dim=a_pad.shape[1],
    )
    report = check_partitioned(c_fc, row_layout, col_layout, provider)
    c = strip_encoding(c_fc, row_layout, col_layout, rows_added, cols_added)
    return AbftResult(
        c=c,
        c_fc=c_fc,
        report=report,
        row_layout=row_layout,
        col_layout=col_layout,
        provider=provider,
    )


def timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Warm-engine throughput benchmark (engine vs seed path)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"reduced scale: {QUICK_REPEATS} repeats instead of {REPEATS}",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: compare against the committed baseline instead of "
        "rewriting it; exits 1 on a warm-path regression past --tolerance",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON for --compare (default: repo BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed warm per-call slowdown vs the baseline (default 0.30)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    repeats = QUICK_REPEATS if args.quick else REPEATS

    rng = np.random.default_rng(20140623)  # DSN 2014
    a = rng.uniform(-1, 1, (SIZE, SIZE))
    bs = [rng.uniform(-1, 1, (SIZE, SIZE)) for _ in range(repeats)]

    config = AbftConfig(block_size=BLOCK_SIZE, p=P)
    engine = MatmulEngine(config)
    engine.matmul(a, bs[0])  # warm the plan cache

    print(f"{repeats} x A-ABFT matmul, {SIZE}x{SIZE}, BS={BLOCK_SIZE}, p={P}")

    baseline_seconds, baseline_results = timed(
        lambda: [seed_per_call_matmul(a, b) for b in bs]
    )
    print(f"  seed per-call path : {baseline_seconds:8.2f} s "
          f"({baseline_seconds / repeats * 1e3:7.1f} ms/call)")

    engine_seconds, engine_results = timed(
        lambda: [engine.matmul(a, b) for b in bs]
    )
    print(f"  warm engine        : {engine_seconds:8.2f} s "
          f"({engine_seconds / repeats * 1e3:7.1f} ms/call)")

    pairs = [(a, b) for b in bs]
    batched_seconds, batched_results = timed(
        lambda: engine.execute_batch(
            pairs, policy=ExecutionPolicy(mode="serial")
        )
    )
    print(f"  serial batch       : {batched_seconds:8.2f} s "
          f"({batched_seconds / repeats * 1e3:7.1f} ms/call)")

    fused_seconds, fused_results = timed(
        lambda: engine.execute_batch(
            pairs, policy=ExecutionPolicy(mode="fused")
        )
    )
    print(f"  fused batch        : {fused_seconds:8.2f} s "
          f"({fused_seconds / repeats * 1e3:7.1f} ms/call)")

    handle = engine.encode(a, side="a")
    handle_seconds, handle_results = timed(
        lambda: [engine.matmul(handle, b) for b in bs]
    )
    print(f"  encoded handle     : {handle_seconds:8.2f} s "
          f"({handle_seconds / repeats * 1e3:7.1f} ms/call)")

    # --- correctness: every path's product is the raw GEMM's bytes ------
    # The engine multiplies the raw operands (side-product layout), so its
    # result is ``np.matmul``'s own bytes; the seed path's interleaved
    # GEMM rounds differently on some shapes, so it only pins the verdict.
    for name, results in (
        ("engine", engine_results),
        ("batched", batched_results),
        ("fused", fused_results),
        ("handle", handle_results),
    ):
        for b, ref, res in zip(bs, baseline_results, results):
            assert np.array_equal(np.matmul(a, b), res.c), f"{name} path diverged"
            assert ref.detected == res.detected == False  # noqa: E712
    print("  all paths bitwise identical to np.matmul, verdicts to the seed path")

    # --- a single injected fault must still be detected ------------------
    faulty = engine.matmul(handle, bs[0])
    faulty.c_fc[17, 23] += 2.0 ** -10
    report = check_partitioned(
        faulty.c_fc, faulty.row_layout, faulty.col_layout, faulty.provider
    )
    assert report.error_detected, "injected fault went undetected"
    assert (17, 23) in report.located_errors
    print("  injected single fault detected and located")

    speedup = baseline_seconds / engine_seconds

    if args.compare:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        committed = json.loads(args.baseline.read_text())
        committed_per_call = committed["engine_seconds"] / committed["repeats"]
        measured_per_call = engine_seconds / repeats
        limit = committed_per_call * (1.0 + args.tolerance)
        print(
            f"  warm path vs baseline: {measured_per_call * 1e3:.2f} ms/call "
            f"vs {committed_per_call * 1e3:.2f} ms/call "
            f"(limit {limit * 1e3:.2f} ms/call = +{args.tolerance:.0%})"
        )
        if measured_per_call > limit:
            print(
                "FAIL: warm-path throughput regressed past the tolerance",
                file=sys.stderr,
            )
            return 1
        print("  warm-path throughput within tolerance")
        return 0

    payload = {
        "size": SIZE,
        "repeats": repeats,
        "block_size": BLOCK_SIZE,
        "p": P,
        "baseline_seconds": baseline_seconds,
        "engine_seconds": engine_seconds,
        "batched_seconds": batched_seconds,
        "fused_seconds": fused_seconds,
        "handle_seconds": handle_seconds,
        "speedup_engine": speedup,
        "speedup_batched": baseline_seconds / batched_seconds,
        "speedup_fused": baseline_seconds / fused_seconds,
        "speedup_handle": baseline_seconds / handle_seconds,
        "engine_stats": engine.stats().as_dict(),
        "bitwise_identical": True,
        "fault_detected": True,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  speedup (warm engine vs seed): {speedup:.1f}x -> {out.name}")

    if speedup < 2.0:
        print("FAIL: speedup below the 2x acceptance threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
