"""Tests of the benchmark harness: statistics, open-loop timing, the
failure oracle, the computed counts and a short run of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness as H

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, n = H.tail(np.arange(1, 101))
    assert (value, n) == (90.0, 100)
    assert pct == pytest.approx(90.0)
    assert np.sum(np.arange(1, 101) > value) == 10


def test_tail_percentile_rises_with_sample_count():
    value, pct, n = H.tail(np.arange(1000))
    assert value == 989.0 and pct == pytest.approx(99.0) and n == 1000


def test_tail_without_enough_samples_is_the_maximum():
    assert H.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_windowed_tail_ignores_one_extreme_window():
    x = np.tile(np.arange(250.0), 5)
    x[10] = 1e9  # one stall in the first window
    value, pct, n, windows = H.windowed_tail(x, window=250, max_windows=9)
    assert windows == 5 and n == 1250
    assert value == 239.0
    assert pct == pytest.approx(100.0 * 240 / 250)


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _done_future() -> Future:
    fut: Future = Future()
    fut.set_result("ok")
    return fut


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()

    def submit(i):
        if i == 1:
            clock.now += 0.05  # the server stalls the generator
        return _done_future()

    loop = H.OpenLoop([0.0, 0.01, 0.02, 0.03], submit,
                      clock=clock, sleep=clock.sleep)
    loop.run()
    # Service is instant, yet every request the stall delayed is charged
    # the wait from its due time, not from when it was finally sent.
    np.testing.assert_allclose(loop.latencies, [0.0, 0.05, 0.04, 0.03])
    np.testing.assert_allclose(loop.lateness, [0.0, 0.0, 0.04, 0.03])


def test_open_loop_counts_slow_responses_from_due_time():
    clock = FakeClock()
    pending = []

    def submit(_i):
        fut: Future = Future()
        pending.append(fut)
        return fut

    loop = H.OpenLoop([0.0, 0.01], submit, clock=clock, sleep=clock.sleep)
    loop.run()
    clock.now += 0.2  # both responses arrive late
    for fut in pending:
        fut.set_result("ok")
    assert loop.wait(timeout=1.0)
    np.testing.assert_allclose(loop.latencies, [0.21, 0.2])


def test_open_loop_idles_only_with_slack():
    clock = FakeClock()
    idle_at = []
    loop = H.OpenLoop([0.0, 0.001, 0.01], lambda _i: _done_future(),
                      clock=clock, sleep=clock.sleep,
                      on_idle=lambda: idle_at.append(clock.now))
    loop.run()
    # 1 ms ahead is too close to spend; 9 ms ahead is idle time.
    assert idle_at == [pytest.approx(100.001)]
    np.testing.assert_allclose(loop.lateness, [0.0, 0.0, 0.0])


def test_poisson_offsets_repeat_per_seed():
    a = H.poisson_offsets(np.random.default_rng(5), 500, 100)
    b = H.poisson_offsets(np.random.default_rng(5), 500, 100)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)


# ----------------------------------------------------------------------
# the failure oracle
# ----------------------------------------------------------------------
def test_gamma_bound_on_a_hand_computed_case():
    a = np.array([[1.0, -2.0]])
    b = np.array([[3.0], [4.0]])
    u = 2.0 ** -53
    gamma2 = 2 * u / (1 - 2 * u)
    expected = 2 * gamma2 * (1 * 3 + 2 * 4) + 2 * 2 * 2.0 ** -1074
    assert H.gemm_error_bound(a, b, np.float64)[0, 0] == expected


def test_gamma_bound_float32_uses_single_precision_roundoff():
    a = np.ones((1, 4), np.float32)
    b = np.ones((4, 1), np.float32)
    u = 2.0 ** -24
    expected = 2 * (4 * u / (1 - 4 * u)) * 4 + 2 * 4 * float(
        np.finfo(np.float32).smallest_subnormal
    )
    assert H.gemm_error_bound(a, b, np.float32)[0, 0] == pytest.approx(expected, rel=1e-12)


def _gemm_result(c, detected=False):
    return SimpleNamespace(c=c, detected=detected)


def test_classify_gemm_reasons():
    c = np.array([[11.0]])
    bound = np.array([[1e-14]])
    assert H.classify_gemm(_gemm_result(c), None, c, bound) is None
    assert H.classify_gemm(_gemm_result(c, True), None, c, bound) == "flagged_clean"
    assert H.classify_gemm(_gemm_result(c + 1e-13), None, c, bound) == "wrong_result"
    assert H.classify_gemm(_gemm_result(c * np.nan), None, c, bound) == "wrong_result"
    assert H.classify_gemm(None, ValueError("p must be in 1..1"), c, bound) == "ValueError"


def test_classify_serve_reasons():
    c = np.arange(4.0).reshape(2, 2)

    def resp(status="full", **kw):
        base = dict(status=SimpleNamespace(value=status), c=c.copy(),
                    detected=False, rejected_reason=None)
        base.update(kw)
        return SimpleNamespace(**base)

    assert H.classify_serve(resp(), None, c) is None
    assert H.classify_serve(resp("rejected", c=None, rejected_reason="queue_full"),
                            None, c) == "rejected:queue_full"
    assert H.classify_serve(resp(c=c + 1e-300), None, c) == "wrong_result"
    assert H.classify_serve(resp(c=c.astype(np.float32)), None, c) == "wrong_result"
    assert H.classify_serve(resp(detected=True), None, c) == "flagged_clean"
    assert H.classify_serve(resp("degraded"), None, c) == "not_full"
    assert H.classify_serve(None, TimeoutError(), c) == "TimeoutError"


def test_classify_model_reasons():
    ref = np.ones((2, 2))
    ok = SimpleNamespace(output=ref + 1e-9, detected=False, degraded=False)
    assert H.classify_model(ok, None, ref, 1e-6) is None
    far = SimpleNamespace(output=ref + 1.0, detected=False, degraded=False)
    assert H.classify_model(far, None, ref, 1e-6) == "wrong_result"
    flagged = SimpleNamespace(output=ref, detected=True, degraded=False)
    assert H.classify_model(flagged, None, ref, 1e-6) == "flagged_clean"
    degraded = SimpleNamespace(output=ref, detected=False, degraded=True)
    assert H.classify_model(degraded, None, ref, 1e-6) == "not_full"


def test_tally_counts_per_reason_and_never_raises():
    tally = H.Tally()
    for reason in (None, "flagged_clean", "ValueError", "flagged_clean", "wrong_result"):
        tally.record(reason)
    assert tally.attempted == 5 and tally.failed == 4 and tally.wrong == 1
    assert tally.reasons == {"flagged_clean": 2, "ValueError": 1, "wrong_result": 1}


def test_margin_histogram_max_and_p99():
    hist = H.MarginHistogram()
    disc = np.linspace(0.0, 0.5, 101)
    hist.add(disc, np.ones_like(disc))
    hist.add(np.array([2.0]), np.array([0.0]))  # eps 0, disc > 0: a flag
    assert hist.max == np.inf
    assert hist.quantile(0.99) == pytest.approx(0.495, rel=0.03)


def test_max_rate_interpolates_only_on_latency_failures():
    from workloads import max_rate

    assert max_rate([(250, 10, True), (500, 20, True), (1000, 80, True)]) == pytest.approx(
        500 * 2 ** (np.log(50 / 20) / np.log(80 / 20))
    )
    # The next rung failed on refusals or backlog: no interpolation.
    assert max_rate([(250, 10, True), (500, 20, True), (1000, 30, False)]) == 500
    assert max_rate([(250, 10, True), (500, 20, True), (1000, np.inf, True)]) == 500
    assert max_rate([(250, 60, True), (500, 20, True)]) == 0.0


def test_timed_loop_leaves_unsound_shapes_to_the_probe():
    from workloads import GemmSmall, clean_probe, probe_pairs, unsound_shape
    from repro.engine.config import AbftConfig

    wl = GemmSmall(seed=1)
    assert not any(unsound_shape(wl.table[i]) for i in wl.cycle)
    assert {s.k for s in wl.table if unsound_shape(s)} >= {1, 2}
    # The probe's operands ignore the seed, so its verdicts repeat.
    first, again = probe_pairs(), probe_pairs()
    assert len(first) == 3 * len(wl.table)
    assert all(np.array_equal(a, a2) and np.array_equal(b, b2)
               for (a, b, _), (a2, b2, _) in zip(first, again))
    tally = clean_probe(AbftConfig(), first[:30])
    assert tally.attempted == 30 and tally.wrong == 0


# ----------------------------------------------------------------------
# computed counts
# ----------------------------------------------------------------------
def test_computed_count_pins():
    from replay import replay
    from repro import MatmulEngine

    engine = MatmulEngine()
    rng = np.random.default_rng(0)
    big = replay(engine, rng.random((1024, 1024)), rng.random((1024, 1024)), reps=1)
    assert big["absent"] == []
    assert big["gemm_flop_ratio"] == 1040 ** 2 / 1024 ** 2
    assert round(big["gemm_flop_ratio"], 4) == 1.0315
    serve = replay(engine, rng.random((256, 256)), rng.random((256, 16)), reps=1)
    assert serve["gemm_flop_ratio"] == 260 * 65 / (256 * 16)
    assert round(serve["gemm_flop_ratio"], 3) == 4.126
    assert serve["bytes_ratio"] == (260 * 256 + 256 * 65 + 260 * 65) / (
        256 * 256 + 256 * 16 + 256 * 16
    )
    engine.close()


def test_replay_reports_a_missing_stage_as_absent(monkeypatch):
    import replay as R
    from repro import MatmulEngine

    monkeypatch.setitem(R.STAGES, "kernels.encode_ms",
                        [("repro.abft.encoding", "no_such_encoder")])
    engine = MatmulEngine()
    out = R.replay(engine, np.ones((64, 64)), np.ones((64, 64)), reps=1)
    assert "kernels.encode_ms" in out["absent"]
    assert "kernels.gemm_ms" in out["absent"]
    assert "kernels.pad_ms" not in out["absent"]
    assert out["gemm_flop_ratio"] is None
    assert out["raw.gemm_ms"] > 0
    engine.close()


# ----------------------------------------------------------------------
# the benchmark definition and short runs
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_emitted_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert not set(run.INFORMATIONAL) & set(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


def test_smoke_every_workload_untraced():
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    import run

    for name in run.WORKLOAD_NAMES:
        for metric, (unit, _better) in run.END_TO_END.items():
            entry = result["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0, (name, metric)


def test_smoke_traced_run_writes_spans_and_per_layer_metrics():
    proc = _run("--workload", "gemm-small", "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    import run

    assert set(result["metrics"]) == set(run.PER_LAYER)
    # The timed loop runs only shapes the bound verifies; ROADMAP item 1
    # shows in the probe: clean small-k products are flagged, k=1 crashes.
    assert result["failed"] == 0
    assert result["metrics"]["probe.flagged_clean"]["value"] > 0
    assert result["metrics"]["probe.exception"]["value"] > 0
    spans = json.loads((ROOT / ".perfbench_out" / "spans-gemm-small-s3.json").read_text())
    names = {s["name"] for s in spans["spans"]}
    assert {"gemm.call", "engine.matmul", "raw.matmul", "oracle"} <= names
    call = next(s for s in spans["spans"] if s["name"] == "gemm.call")
    assert call["self_s"] <= call["end_s"] - call["start_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "gemm-small", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
