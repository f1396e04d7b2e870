"""The repository benchmark: protected GEMM against raw numpy, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload gemm-large --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 4

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload again with spans on and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable table goes to
standard error.  Records and span files land in ``.perfbench_out/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import harness as H
from replay import METRICS as REPLAY_STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: name -> (unit, better) of every end-to-end metric.  Apart from the
#: set-up time, each is a ratio of two timings taken in the same run, a
#: share, or memory, so it holds still while the host's speed drifts.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "overhead_x": ("ratio", "lower"),
    "ok_share": ("fraction", "higher"),
    "clean_pass_share": ("fraction", "higher"),
    "coverage": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Wall-clock figures every untraced run prints and records next to the
#: end-to-end metrics.  They are not gated: on a shared 2-CPU host the
#: speed of the same numpy GEMM drifts by +-20% over minutes, which moves
#: them by more than any 25% bound could hold (see README).
INFORMATIONAL = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "gemm_gflops": ("GFLOP/s", "higher"),
    "calls_per_s": ("1/s", "higher"),
    "max_rate_rps": ("req/s", "higher"),
}

#: Stage-replay operand labels: gemm-large sizes per dtype, serving shape.
REPLAY_KEYS = ("n1024_f64", "n1024_f32", "n2048_f64", "n2048_f32", "serve_f64")
MODEL_LAYERS = {
    "bench-mlp": ("fc1", "fc2", "fc3", "fc4", "fc5", "head"),
    "attn-fp16": ("wq", "wk", "wv", "wo", "ffn_up", "ffn_down"),
}


def per_layer_metrics() -> dict:
    """name -> (unit, better) of every per-layer metric, grouped by module."""
    m = {
        "engine.encode_share": ("fraction", "lower"),
        "engine.multiply_share": ("fraction", "lower"),
        "engine.check_share": ("fraction", "lower"),
        "engine.other_share": ("fraction", "lower"),
        "engine.plan_hit_rate": ("fraction", "higher"),
        "engine.plan_misses": ("count", "lower"),
        "engine.encode_reuses": ("count", "higher"),
        "engine.detections": ("count", "lower"),
        "engine.batch_mode.serial": ("count", "lower"),
        "engine.batch_mode.fused": ("count", "higher"),
        "engine.batch_mode.pipelined": ("count", "higher"),
        "engine.batch_fallbacks": ("count", "lower"),
        "engine.fused_calls": ("count", "higher"),
        "backends.dispatch.numpy": ("count", "higher"),
        "backends.dispatch.blocked": ("count", "higher"),
        "backends.fallbacks": ("count", "lower"),
    }
    for stage in REPLAY_STAGES:
        for key in REPLAY_KEYS:
            m[f"{stage}.{key}"] = ("ms", "lower")
    for size in ("n1024", "n2048", "serve"):
        m[f"kernels.gemm_flop_ratio.{size}"] = ("ratio", "lower")
        m[f"kernels.bytes_ratio.{size}"] = ("ratio", "lower")
    m["bounds.clean_margin_max"] = ("ratio", "lower")
    m["bounds.clean_margin_p99"] = ("ratio", "lower")
    for name in ("queue_wait_ms", "service_ms", "client_gap_ms"):
        m[f"serve.{name}.p50"] = ("ms", "lower")
        m[f"serve.{name}.tail"] = ("ms", "lower")
    m["serve.batch_size_mean"] = ("count", "higher")
    m["serve.max_rate_rps"] = ("req/s", "higher")
    for rate in (250, 500, 1000, 2000):
        m[f"serve.backlog_slope.r{rate}"] = ("req/s", "lower")
    for reason in ("queue_full", "deadline", "shutdown"):
        m[f"serve.rejected.{reason}"] = ("count", "lower")
    m["serve.degraded"] = ("count", "lower")
    m["serve.gen_lag_ms.tail"] = ("ms", "lower")
    for model, layers in MODEL_LAYERS.items():
        for layer in layers:
            m[f"models.layer_ms.{model}.{layer}"] = ("ms", "lower")
    m["models.reused_layers"] = ("count", "higher")
    m["models.raw_forward_ms"] = ("ms", "lower")
    m["models.planner_ms"] = ("ms", "lower")
    m["models.unchecked_layers"] = ("count", "lower")
    m["models.degraded_layers"] = ("count", "lower")
    for reason in ("flagged_clean", "wrong_result", "not_full", "rejected",
                   "exception"):
        m[f"oracle.{reason}"] = ("count", "lower")
    for reason in ("flagged_clean", "wrong_result", "exception"):
        m[f"probe.{reason}"] = ("count", "lower")
    m["proc.cpu_util"] = ("ratio", "higher")
    m["trace.overhead_share"] = ("fraction", "lower")
    return m


PER_LAYER = per_layer_metrics()
WORKLOAD_NAMES = ("gemm-large", "gemm-small", "serve-shared", "model-stack")


def _oracle_counts(reasons, prefix: str = "oracle") -> dict:
    out = {f"{prefix}.{r}": 0.0 for r in
           ("flagged_clean", "wrong_result", "not_full", "rejected", "exception")}
    for reason, count in reasons.items():
        if reason in ("flagged_clean", "wrong_result", "not_full"):
            key = f"{prefix}.{reason}"
        elif reason.startswith("rejected:"):
            key = f"{prefix}.rejected"
        else:
            key = f"{prefix}.exception"
        out[key] += count
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, measure and score one workload in this process."""
    cache = H.pin_environment(OUT_DIR)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads as W

        wl = W.WORKLOADS[name](seed)
        setup = []
        for i in range(wl.setup_repeats):
            t0 = time.perf_counter()
            system = wl.build()
            setup.append(time.perf_counter() - t0)
            if i + 1 < wl.setup_repeats:
                wl.close(system)
        # Fixed clean operands, whatever the seed: the share verified is the
        # same on every run of the same code.
        probe = W.clean_probe(wl.config, W.probe_pairs())
        tracer = H.Tracer(trace)
        notes: dict = {}
        informational: dict = {}
        try:
            # Load warm-up, not measured: caches fill and the engine's
            # adaptive batch scheduling settles before timing starts.
            wl.short_phase(system, min(2.0, 0.1 * seconds))
            # Set-up garbage is collected and frozen, so collector pauses
            # in the measured phase scan only what the phase allocates.
            gc.collect()
            gc.freeze()
            if trace:
                # A short untraced phase first: the tracing overhead is the
                # traced phase's cost per operation over this one's.
                plain = wl.short_phase(system, max(1.0, 0.3 * seconds))
                before = W.engine_of(system).stats()
                phase = wl.measure(system, seconds, tracer)
                metrics = wl.per_layer(system, phase, tracer, before)
                notes["absent_stages"] = metrics.pop("_absent", {})
                metrics["proc.cpu_util"] = phase.cpu_s / phase.wall_s
                metrics["trace.overhead_share"] = phase.unit_cost / plain.unit_cost - 1.0
                metrics.update(_oracle_counts(phase.tally.reasons))
                metrics.update(_oracle_counts(probe.reasons, "probe"))
                metrics = {k: float(metrics.get(k, 0.0)) for k in PER_LAYER}
                units = PER_LAYER
            else:
                phase = wl.measure(system, seconds, tracer)
                metrics = wl.end_to_end(phase)
                metrics["setup_s"] = H.median(setup)
                metrics["peak_rss_mb"] = H.peak_rss_mb()
                metrics["clean_pass_share"] = 1.0 - probe.failed / probe.attempted
                informational = {
                    k: {"value": float(metrics[k]), "unit": u}
                    for k, (u, _better) in INFORMATIONAL.items()
                }
                metrics = {k: float(metrics[k]) for k in END_TO_END}
                units = END_TO_END
        finally:
            wl.close(system)
        wrong = phase.tally.wrong + probe.wrong + sum(
            rung["tally"].wrong for rung in phase.extra.get("rungs", {}).values()
        )
        notes.update({k: v for k, v in phase.extra.items()
                      if k in ("latency_tail", "ladder")})
        record = {
            "workload": name,
            "trace": trace,
            "environment": H.environment(ROOT, seed),
            "setup_runs_s": setup,
            "failures": dict(phase.tally.reasons),
            "probe": {"attempted": probe.attempted, "failures": dict(probe.reasons)},
            "notes": notes,
            "correct": wrong == 0,
            "attempted": phase.tally.attempted,
            "failed": phase.tally.failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
            "informational": informational,
        }
        stem = f"{name}-s{seed}-t{int(trace)}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
        if trace:
            tracer.write(OUT_DIR / f"spans-{name}-s{seed}.json")
        return record
    finally:
        cache.unlink(missing_ok=True)


def _print_table(record: dict, units: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={env['seed']} commit={env['git_commit'][:12]} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['blas_threads']}", file=sys.stderr)
    for name, m in record["metrics"].items():
        unit, better = units[name]
        print(f"  {name:<40s} {m['value']:>14.6g} {unit:<9s} ({better} is better)",
              file=sys.stderr)
    for name, m in record["informational"].items():
        unit, better = INFORMATIONAL[name]
        print(f"  {name:<40s} {m['value']:>14.6g} {unit:<9s} ({better} is better; "
              f"wall clock, not gated)", file=sys.stderr)
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"failures={record['failures']} probe={record['probe']} "
          f"correct={record['correct']} "
          f"notes={json.dumps(record['notes'], default=str)}", file=sys.stderr)


def _run_all(args) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return _run_all(args)
    os.chdir(ROOT)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    _print_table(record, units)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
