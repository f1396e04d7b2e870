"""Backend autotuner benchmark: the winner is never slower than numpy.

The backend subsystem's acceptance benchmark.  For a spread of GEMM
shapes it runs the :class:`repro.backends.Autotuner` against a fresh
cache and asserts the selected ``(backend, tile)`` never loses to the
plain numpy reference past the hysteresis margin — by construction the
tuner only leaves ``numpy`` when a candidate *beats* it, so a slower
winner is a bug, not noise.  It also exercises the never-silent fallback
path (a pinned backend that is not registered must be recorded on the
result and counted in telemetry) and verifies cross-backend bitwise identity
at the tuned tile.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backends.py

Results are written to ``BENCH_backends.json`` at the repository root.

CI runs the smoke variant, which never rewrites the committed baseline —
it re-checks the invariants (never-slower, fallback visible, bitwise
identity) at reduced scale::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick --compare
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.backends import Autotuner, AutotuneCache, default_registry
from repro.engine import AbftConfig, MatmulEngine
from repro.telemetry import MetricsRegistry

SHAPES = [(128, 128, 128), (256, 256, 128), (256, 192, 256)]
QUICK_SHAPES = [(128, 128, 64)]
BLOCK_SIZE = 64
P = 2
DEFAULT_BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_backends.json"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Backend autotuner benchmark (never-slower + fallback)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale: one shape, one timing repeat",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: re-check the invariants without rewriting the "
        "committed BENCH_backends.json; exits 1 when one fails",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON for --compare (default: repo BENCH_backends.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed winner slowdown vs its numpy baseline (default 0: the "
        "hysteresis already guarantees never-slower deterministically)",
    )
    return parser


def tune_shapes(shapes, repeats, registry, tmp_cache):
    """Autotune each shape against a fresh cache; return per-shape rows."""
    config = AbftConfig(block_size=BLOCK_SIZE, p=P)
    tuner = Autotuner(
        AutotuneCache(tmp_cache), repeats=repeats, metrics_registry=registry
    )
    rows = []
    for m, n, q in shapes:
        choice = tuner.tune(m, n, q, config=config)
        rows.append(
            {
                "shape": f"{m}x{n}x{q}",
                "backend": choice.backend,
                "tile": choice.tile,
                "per_call_s": choice.per_call_s,
                "numpy_per_call_s": choice.baseline_per_call_s,
                "speedup": choice.speedup,
            }
        )
        print(
            f"  {m}x{n}x{q}: winner backend={choice.backend!r} "
            f"tile={choice.tile} "
            f"{choice.per_call_s * 1e3:7.2f} ms/call "
            f"(numpy {choice.baseline_per_call_s * 1e3:.2f} ms/call, "
            f"{choice.speedup:.2f}x)"
        )
    return rows


def exercise_fallback(registry: MetricsRegistry) -> dict:
    """Pin an unregistered backend; the fallback must be loud everywhere."""
    engine = MatmulEngine(
        AbftConfig(block_size=BLOCK_SIZE, p=P), registry=registry
    )
    rng = np.random.default_rng(20140623)
    a = rng.uniform(-1, 1, (128, 128))
    b = rng.uniform(-1, 1, (128, 128))
    pinned = "definitely-not-a-backend"
    assert pinned not in default_registry()
    result = engine.matmul(a, b, config=AbftConfig(backend=pinned))
    assert result.backend == "numpy", "fallback must land on numpy"
    assert result.backend_fallback, "fallback must be recorded on the result"
    fallbacks = registry.counter(
        "abft_backend_fallbacks_total", labelnames=("backend", "reason")
    )
    counted = fallbacks.labels(backend=pinned, reason="selection").get()
    assert counted >= 1.0, "fallback must be visible in telemetry"
    # The fallback product is still the canonical numpy bytes.
    reference = MatmulEngine(AbftConfig(block_size=BLOCK_SIZE, p=P)).matmul(
        a, b
    )
    assert result.c_fc.tobytes() == reference.c_fc.tobytes()
    print(
        f"  fallback exercised: pinned {pinned!r} -> "
        f"{result.backend!r} ({result.backend_fallback})"
    )
    return {
        "fallback_exercised": True,
        "pinned": pinned,
        "served_by": result.backend,
        "recorded": result.backend_fallback,
        "counted_in_telemetry": counted,
    }


def check_bitwise_identity(rows) -> None:
    """numpy and blocked agree bitwise at every tuned tile."""
    rng = np.random.default_rng(7)
    engine = MatmulEngine(AbftConfig(block_size=BLOCK_SIZE, p=P))
    for row in rows:
        m, n, q = (int(part) for part in row["shape"].split("x"))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, (n, q))
        tile = row["tile"]
        r_np = engine.matmul(
            a, b, config=AbftConfig(backend="numpy", gemm_tile=tile)
        )
        r_bl = engine.matmul(
            a, b, config=AbftConfig(backend="blocked", gemm_tile=tile)
        )
        assert r_np.c_fc.tobytes() == r_bl.c_fc.tobytes(), (
            f"bitwise divergence at {row['shape']} tile={tile}"
        )
    print("  numpy and blocked bitwise identical at every tuned tile")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    shapes = QUICK_SHAPES if args.quick else SHAPES
    repeats = 1 if args.quick else 3

    import tempfile

    registry = MetricsRegistry()
    print(f"autotuning {len(shapes)} shape(s), BS={BLOCK_SIZE}, p={P}")
    with tempfile.TemporaryDirectory() as tmp:
        rows = tune_shapes(
            shapes, repeats, registry, Path(tmp) / "autotune.json"
        )

    slower = [
        row
        for row in rows
        if row["per_call_s"]
        > row["numpy_per_call_s"] * (1.0 + args.tolerance)
    ]
    if slower:
        for row in slower:
            print(
                f"FAIL: winner slower than numpy at {row['shape']}: "
                f"{row['per_call_s']:.6f}s vs {row['numpy_per_call_s']:.6f}s",
                file=sys.stderr,
            )
        return 1
    print("  autotuner never selected a slower-than-numpy winner")

    fallback = exercise_fallback(registry)
    check_bitwise_identity(rows)

    if args.compare:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        committed = json.loads(args.baseline.read_text())
        if not committed.get("fallback", {}).get("fallback_exercised"):
            print(
                "FAIL: committed baseline never exercised the fallback",
                file=sys.stderr,
            )
            return 1
        print("  committed baseline invariants intact")
        return 0

    payload = {
        "block_size": BLOCK_SIZE,
        "p": P,
        "repeats": repeats,
        "shapes": rows,
        "never_slower_than_numpy": True,
        "bitwise_identical": True,
        "fallback": fallback,
        "available_backends": [
            row["name"]
            for row in default_registry().describe()
            if row["available"]
        ],
    }
    out = DEFAULT_BASELINE
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  -> {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
