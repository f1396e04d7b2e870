"""The four workloads.

Each workload generates its inputs from the seed on one thread, builds the
system through the public API (``MatmulEngine``, ``MatmulServer``,
``ProtectionPlanner``, ``ModelRunner``), and measures it.  A workload
object exposes:

* ``build()`` - construct the system and make the first call of every
  shape or plan it uses (timed several times for ``setup_s``);
* ``measure(system, seconds, tracer)`` - one measured phase, returning a
  :class:`Phase`;
* ``short_phase(system, seconds)`` - an untraced phase of the workload's
  core traffic, for the load warm-up and the tracing-overhead base;
* ``end_to_end(phase)`` - the end-to-end metrics of an untraced phase;
* ``per_layer(system, phase, tracer, before)`` - the per-layer metrics of
  a traced phase, ``before`` being the engine stats at its start;
* ``close(system)`` - stop threads and pools;
* ``config`` - the ``AbftConfig`` its engine runs, which
  :func:`clean_probe` checks on a fixed set of clean small products.

Operands are generated and the oracle's references are computed outside
every timed window.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

import harness as H
from replay import METRICS as REPLAY_METRICS
from replay import replay

from repro import MatmulEngine
from repro.engine.config import AbftConfig
from repro.models.bench import BENCH_MODEL_KWARGS
from repro.models.planner import ProtectionPlanner
from repro.models.runner import ModelInputs, ModelRunner
from repro.models.spec import attention, mlp
from repro.serve.config import ServeConfig
from repro.serve.server import MatmulServer
from repro.telemetry import MetricsRegistry

#: Latency limit of the serving rate ladder.
LATENCY_LIMIT_MS = 50.0

#: What the benchmark keeps of a served response once it is checked.
Served = namedtuple("Served", "status queue_wait_s service_s batch_size")


@dataclass
class Phase:
    """What one measured phase observed."""

    tally: H.Tally = field(default_factory=H.Tally)
    latency_ms: list = field(default_factory=list)
    busy_s: float = 0.0          # time spent inside the program's calls
    wall_s: float = 0.0          # wall time of the whole phase
    useful_flops: float = 0.0    # 2mnq of completed operations
    attempted_flops: float = 0.0
    checked_flops: float = 0.0   # flops that ran under a check
    cpu_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def unit_cost(self) -> float:
        """Wall seconds per operation, the base of the tracing overhead:
        the mean call or pass in a closed loop (whole cycles keep the mix
        fixed), the median request latency in the open loop (whose spans
        are recorded after each rung, outside its timed window)."""
        if "rungs" in self.extra:
            return H.median(self.latency_ms) / 1e3
        return self.busy_s / max(1, len(self.latency_ms))


def _common(phase: Phase, classes=None) -> dict:
    """Metrics every workload reports the same way.

    ``classes`` lists per-class latency samples (ms) of a workload that
    mixes a few distinct operations in equal numbers.  Its p50 is then the
    geometric mean of the class medians: the pooled median of an even mix
    falls in the gap between two classes, where a few samples move it far.
    """
    tail, pct, n, windows = H.windowed_tail(phase.latency_ms)
    phase.extra["latency_tail"] = {
        "percentile": round(pct, 3), "samples": n, "windows": windows,
    }
    p50 = (
        H.geomean(H.median(c) for c in classes) if classes
        else H.median(phase.latency_ms)
    )
    return {
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "ok_share": 1.0 - phase.tally.failed / max(1, phase.tally.attempted),
        "coverage": phase.checked_flops / phase.attempted_flops,
        "gemm_gflops": phase.useful_flops / phase.busy_s / 1e9,
    }


def _engine_layers(engine, registry, engine_wall_s: float, before) -> dict:
    """Per-layer engine counters from the public stats and registry."""
    stats = engine.stats()
    snap = registry.snapshot()

    def total(metric, **labels):
        values = snap.get(metric, {}).get("values", [])
        return float(sum(
            v["value"] for v in values
            if all(v["labels"].get(k) == x for k, x in labels.items())
        ))

    stages = {
        s: getattr(stats, f"{s}_seconds") - getattr(before, f"{s}_seconds")
        for s in ("encode", "multiply", "check")
    }
    wall = max(engine_wall_s, 1e-12)
    lookups = stats.plan_hits + stats.plan_misses
    out = {f"engine.{s}_share": v / wall for s, v in stages.items()}
    out.update({
        "engine.other_share": 1.0 - sum(stages.values()) / wall,
        "engine.plan_hit_rate": stats.plan_hits / lookups if lookups else 0.0,
        "engine.plan_misses": float(stats.plan_misses),
        "engine.encode_reuses": float(stats.encode_reuses),
        "engine.detections": float(stats.detections),
        "engine.batch_fallbacks": total("abft_pipeline_fallbacks_total"),
        "backends.fallbacks": total("abft_backend_fallbacks_total"),
        "engine.fused_calls": total("abft_fused_calls_total"),
    })
    for mode in ("serial", "fused", "pipelined"):
        out[f"engine.batch_mode.{mode}"] = total(
            "abft_engine_execute_batch_total", mode=mode
        )
    for backend in ("numpy", "blocked"):
        out[f"backends.dispatch.{backend}"] = total(
            "abft_backend_dispatch_total", backend=backend
        )
    return out


def _margins(hist: H.MarginHistogram, result) -> None:
    """Add one clean check's discrepancy / epsilon ratios."""
    grids = result.provider.epsilon_grids(result.row_layout, result.col_layout)
    if grids is None:
        return
    col_eps, row_eps = grids
    hist.add(result.report.column_disc, col_eps)
    hist.add(result.report.row_disc, row_eps)


def _replay_layers(engine, shapes: dict, tracer) -> dict:
    """Stage replay per labelled operand pair, plus computed counts."""
    out = {}
    absent = {}
    for key, (a, b) in shapes.items():
        r = replay(engine, a, b, tracer=tracer, label=key)
        for stage in REPLAY_METRICS:
            out[f"{stage}.{key}"] = r.get(stage, 0.0)
        if r["absent"]:
            absent[key] = r["absent"]
        size = key.split("_")[0]
        if r["gemm_flop_ratio"] is not None:
            out[f"kernels.gemm_flop_ratio.{size}"] = r["gemm_flop_ratio"]
            out[f"kernels.bytes_ratio.{size}"] = r["bytes_ratio"]
    out["_absent"] = absent
    return out


def _gemm_call(engine, a, b, bound, flops: float, phase: Phase, tracer,
               rid: str) -> tuple[float, float, bool]:
    """One protected product, its interleaved raw ``np.matmul`` and the
    oracle; records the outcome on ``phase``.  Returns the protected and
    raw wall seconds and whether the protected call returned."""
    with tracer.span("gemm.call", rid=rid) as call:
        exc = result = None
        t0 = time.perf_counter()
        with tracer.span("engine.matmul", parent=call, rid=rid):
            try:
                result = engine.matmul(a, b)
            except Exception as e:  # noqa: BLE001 - the oracle counts it
                exc = e
        t_prot = time.perf_counter() - t0
        with tracer.span("raw.matmul", parent=call, rid=rid):
            t0 = time.perf_counter()
            c_ref = np.matmul(a, b)
            t_raw = time.perf_counter() - t0
        with tracer.span("oracle", parent=call, rid=rid):
            reason = H.classify_gemm(result, exc, c_ref, bound)
            if tracer.enabled and result is not None:
                _margins(phase.extra["margins"], result)
    phase.tally.record(reason)
    phase.latency_ms.append(t_prot * 1e3)
    phase.busy_s += t_prot
    phase.attempted_flops += flops
    if exc is None:
        phase.useful_flops += flops
        phase.checked_flops += flops
    return t_prot, t_raw, exc is None


# ----------------------------------------------------------------------
# gemm-large
# ----------------------------------------------------------------------
class GemmLarge:
    """Closed loop, one caller, default AbftConfig (aabft, BS=64, p=2);
    square n in {512, 1024, 2048} x {float64, float32}, seeded pairs
    cycled."""

    name = "gemm-large"
    setup_repeats = 3
    config = AbftConfig()
    COMBOS = [(n, dt) for n in (512, 1024, 2048) for dt in ("float64", "float32")]
    PAIRS = 2

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.pairs = {}
        for n, dt in self.COMBOS:
            for i in range(self.PAIRS):
                a = rng.uniform(-1.0, 1.0, (n, n)).astype(dt)
                b = rng.uniform(-1.0, 1.0, (n, n)).astype(dt)
                self.pairs[(n, dt, i)] = (a, b, H.gemm_error_bound(a, b, dt))

    def build(self):
        engine = MatmulEngine(self.config)
        for n, dt in self.COMBOS:
            a, b, _ = self.pairs[(n, dt, 0)]
            engine.matmul(a, b)
        return engine

    def measure(self, engine, seconds: float, tracer) -> Phase:
        phase = Phase()
        per_combo = {c: ([], []) for c in self.COMBOS}
        phase.extra["combos"] = per_combo
        phase.extra["margins"] = H.MarginHistogram()
        cpu0, t_start, cycle = H.cpu_seconds(), time.perf_counter(), 0
        while time.perf_counter() - t_start < seconds:
            for n, dt in self.COMBOS:
                a, b, bound = self.pairs[(n, dt, cycle % self.PAIRS)]
                t_prot, t_raw, _ok = _gemm_call(
                    engine, a, b, bound, 2.0 * n ** 3, phase, tracer,
                    f"c{cycle}:{n}{dt[5:]}",
                )
                per_combo[(n, dt)][0].append(t_prot)
                per_combo[(n, dt)][1].append(t_raw)
            cycle += 1
        phase.wall_s = time.perf_counter() - t_start
        phase.cpu_s = H.cpu_seconds() - cpu0
        return phase

    def end_to_end(self, phase: Phase) -> dict:
        combos = phase.extra["combos"].values()
        out = _common(phase, [np.array(prot) * 1e3 for prot, _raw in combos])
        out["overhead_x"] = H.geomean(
            H.median(prot) / H.median(raw) for prot, raw in combos
        )
        out["calls_per_s"] = len(phase.latency_ms) / phase.busy_s
        out["max_rate_rps"] = out["calls_per_s"]
        return out

    def per_layer(self, engine, phase: Phase, tracer, before) -> dict:
        out = _engine_layers(engine, engine.registry, phase.busy_s, before)
        hist = phase.extra["margins"]
        out["bounds.clean_margin_max"] = hist.max
        out["bounds.clean_margin_p99"] = hist.quantile(0.99)
        shapes = {
            f"n{n}_f{dt[5:]}": self.pairs[(n, dt, 0)][:2]
            for n in (1024, 2048) for dt in ("float64", "float32")
        }
        out.update(_replay_layers(engine, shapes, tracer))
        return out

    def short_phase(self, engine, seconds: float) -> Phase:
        return self.measure(engine, seconds, H.Tracer(False))

    def close(self, engine) -> None:
        engine.close()


# ----------------------------------------------------------------------
# gemm-small
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    m: int
    k: int
    q: int
    a_dtype: str
    b_dtype: str
    wide: bool  # rows of A scaled across 1e-150 .. 1e150


def small_shape_table(size: int = 100) -> list[Shape]:
    """The fixed table of small, irregular shapes (same on every seed).

    * k: 3 shapes with k=1, half of the rest below BS=64, half in 64..128;
    * m and q in 1..300, multiples of 64 redrawn;
    * 15% skinny with q=1 and 15% with q=16;
    * 30% float32, 60% float64, 10% mixed float32 @ float64;
    * 6% float64 shapes whose A rows span 1e-150 .. 1e150.
    """
    rng = np.random.default_rng(20140623)

    def dim() -> int:
        while True:
            d = int(rng.integers(1, 301))
            if d % 64:
                return d

    table = []
    for i in range(size):
        if i < 3:
            k = 1
        elif i < 3 + (size - 3) // 2:
            k = int(rng.integers(2, 64))
        else:
            k = int(rng.integers(64, 129))
        u = rng.random()
        q = 1 if u < 0.15 else 16 if u < 0.30 else dim()
        u = rng.random()
        dts = (
            ("float32", "float32") if u < 0.30
            else ("float32", "float64") if u < 0.40
            else ("float64", "float64")
        )
        table.append(Shape(dim(), k, q, *dts, wide=False))
    order = rng.permutation(size)
    table = [table[i] for i in order]
    for i in rng.choice(
        [i for i, s in enumerate(table) if s.a_dtype == "float64"], 6, replace=False
    ):
        s = table[i]
        table[i] = Shape(s.m, s.k, s.q, s.a_dtype, s.b_dtype, wide=True)
    return table


def unsound_shape(s: Shape) -> bool:
    """Shapes on which the default bound fails clean input (ROADMAP item 1):
    k = 2..8 and rows spanning 1e-150 .. 1e150 are flagged, k = 1 raises.
    The timed loop leaves them out; :func:`clean_probe` runs them."""
    return s.k <= 8 or s.wide


#: Seed of the clean-input probe's operands: the same on every run.
PROBE_SEED = 20140624
#: Operand pairs the probe draws per table shape.
PROBE_DRAWS = 3


def probe_pairs() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The clean-input probe: ``PROBE_DRAWS`` fixed operand pairs of every
    shape of the small-shape table, each with its oracle bound."""
    rng = np.random.default_rng(PROBE_SEED)
    pairs = []
    for s in small_shape_table():
        for _ in range(PROBE_DRAWS):
            a, b = GemmSmall.operands(s, rng)
            pairs.append((a, b, H.gemm_error_bound(a, b, np.result_type(a, b))))
    return pairs


def clean_probe(config: AbftConfig, pairs) -> H.Tally:
    """Classify one protected product of every probe pair on a fresh
    engine of ``config``, outside every timed window."""
    engine = MatmulEngine(config)
    tally = H.Tally()
    try:
        for a, b, bound in pairs:
            exc = result = None
            try:
                result = engine.matmul(a, b)
            except Exception as e:  # noqa: BLE001 - the oracle counts it
                exc = e
            tally.record(H.classify_gemm(result, exc, np.matmul(a, b), bound))
    finally:
        engine.close()
    return tally


def zipf_cycle(size: int, length: int, exponent: float = 1.1) -> np.ndarray:
    """Shape indices of one cycle: table rank r appears ~ 1/(r+1)^s times
    (at least once), so every cycle has exactly the same mix."""
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    counts = np.maximum(1, np.round(weights / weights.sum() * length)).astype(int)
    return np.repeat(np.arange(size), counts)


class GemmSmall:
    """Closed loop, one caller, fresh operands per call, over the fixed
    small-shape table drawn with Zipf popularity.  The shapes of
    :func:`unsound_shape` are left out of the loop; the clean-input probe
    runs them."""

    name = "gemm-small"
    setup_repeats = 9
    config = AbftConfig()
    CYCLE = 400

    def __init__(self, seed: int) -> None:
        self.table = small_shape_table()
        timed = np.array([not unsound_shape(s) for s in self.table])
        cycle = zipf_cycle(len(self.table), self.CYCLE)
        self.cycle = cycle[timed[cycle]]
        self.rng = np.random.default_rng([seed, 2])
        warm_rng = np.random.default_rng([seed, 3])
        self.warm = [self.operands(s, warm_rng)
                     for s, ok in zip(self.table, timed) if ok]

    @staticmethod
    def operands(s: Shape, rng) -> tuple[np.ndarray, np.ndarray]:
        a = rng.standard_normal((s.m, s.k))
        if s.wide:
            a *= 10.0 ** rng.uniform(-150, 150, (s.m, 1))
        b = rng.standard_normal((s.k, s.q))
        return a.astype(s.a_dtype), b.astype(s.b_dtype)

    def build(self):
        engine = MatmulEngine(self.config)
        for a, b in self.warm:
            engine.matmul(a, b)
        return engine

    def measure(self, engine, seconds: float, tracer) -> Phase:
        phase = Phase()
        per_shape = {}
        phase.extra["shapes"] = per_shape
        phase.extra["margins"] = H.MarginHistogram()
        cpu0, t_start, calls = H.cpu_seconds(), time.perf_counter(), 0
        while time.perf_counter() - t_start < seconds:
            for idx in self.rng.permutation(self.cycle):
                s = self.table[idx]
                a, b = self.operands(s, self.rng)
                bound = H.gemm_error_bound(a, b, np.result_type(a, b))
                t_prot, t_raw, ok = _gemm_call(
                    engine, a, b, bound, 2.0 * s.m * s.k * s.q, phase, tracer,
                    f"k{calls}",
                )
                if ok:
                    prot, raw = per_shape.setdefault(idx, ([], []))
                    prot.append(t_prot)
                    raw.append(t_raw)
                calls += 1
        phase.wall_s = time.perf_counter() - t_start
        phase.cpu_s = H.cpu_seconds() - cpu0
        return phase

    def end_to_end(self, phase: Phase) -> dict:
        out = _common(phase)
        out["overhead_x"] = H.geomean(
            sum(prot) / sum(raw) for prot, raw in phase.extra["shapes"].values()
        )
        out["calls_per_s"] = len(phase.latency_ms) / phase.busy_s
        out["max_rate_rps"] = out["calls_per_s"]
        return out

    def per_layer(self, engine, phase: Phase, tracer, before) -> dict:
        out = _engine_layers(engine, engine.registry, phase.busy_s, before)
        hist = phase.extra["margins"]
        out["bounds.clean_margin_max"] = hist.max
        out["bounds.clean_margin_p99"] = hist.quantile(0.99)
        return out

    def short_phase(self, engine, seconds: float) -> Phase:
        return self.measure(engine, seconds, H.Tracer(False))

    def close(self, engine) -> None:
        engine.close()


# ----------------------------------------------------------------------
# serve-shared
# ----------------------------------------------------------------------
def max_rate(ladder, limit_ms: float = LATENCY_LIMIT_MS) -> float:
    """Highest rate meeting the latency limit with no failures and no
    growing backlog, from ``(rate, tail_ms, steady)`` rungs in rate order.

    A rung passes when it is steady and its tail is within the limit.
    Between the last passing rung and the next one, when that one failed
    on latency alone, the crossing of the limit is interpolated linearly
    in log(rate) and log(tail): a rung sitting at the limit then moves the
    result a little instead of doubling or halving it.  0 when the first
    rung fails.
    """
    best = 0.0
    for i, (rate, tail_ms, steady) in enumerate(ladder):
        if not (steady and tail_ms <= limit_ms):
            break
        best = float(rate)
        if i + 1 < len(ladder):
            nxt_rate, nxt_tail, nxt_steady = ladder[i + 1]
            if nxt_steady and limit_ms < nxt_tail < np.inf and tail_ms > 0:
                frac = np.log(limit_ms / tail_ms) / np.log(nxt_tail / tail_ms)
                best = float(rate * (nxt_rate / rate) ** frac)
    return best


class ServeShared:
    """Open loop, Poisson arrivals from one generator thread against an
    in-process ``MatmulServer(ServeConfig())``; every request multiplies
    one shared 256x256 float64 weight by a 256x16 activation."""

    name = "serve-shared"
    setup_repeats = 5
    LADDER = (250, 500, 1000, 2000)
    REFERENCE = 500
    #: Share of the measured seconds each rung's arrivals span.
    SHARE = {250: 0.05, 500: 0.65, 1000: 0.1, 2000: 0.2}
    POOL = 64
    M, K, Q = 256, 256, 16

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.rng = rng
        self.config = ServeConfig().abft
        self.w = rng.uniform(-1.0, 1.0, (self.M, self.K))
        self.xs = [rng.uniform(-1.0, 1.0, (self.K, self.Q)) for _ in range(self.POOL)]
        serial = MatmulEngine(self.config)
        self.serial = [serial.matmul(self.w, x) for x in self.xs]
        serial.close()

    def build(self):
        """The server, warmed with one burst of every batch width up to
        ``max_batch_size``: each width is its own batched plan."""
        cfg = ServeConfig()
        server = MatmulServer(cfg, registry=MetricsRegistry())
        for width in range(1, cfg.max_batch_size + 1):
            burst = [server.submit(self.w, self.xs[i % self.POOL].copy())
                     for i in range(width)]
            for fut in burst:
                fut.result(timeout=30)
        return server

    def _check(self, i: int, fut) -> tuple:
        """Classify one response and keep only what the metrics read."""
        exc = resp = None
        if fut is None or not fut.done():
            exc = TimeoutError("no response")
        else:
            exc = fut.exception()
            resp = None if exc is not None else fut.result()
        reason = H.classify_serve(resp, exc, self.serial[i % self.POOL].c)
        if resp is not None:
            resp = Served(str(getattr(resp.status, "value", resp.status)),
                          resp.queue_wait_s, resp.service_s, resp.batch_size)
        return resp, reason

    def _rung(self, server, rate: int, count: int, tracer) -> dict:
        offsets = H.poisson_offsets(self.rng, rate, count)
        depth_t, depth = [], []
        responses: list = [None] * count
        checked = [0]

        def sweep() -> None:
            # In the generator's idle time, check finished responses in
            # order and drop them, so result arrays do not pile up.
            futs, i = loop.futures, checked[0]
            stop = min(count, i + 32)
            while i < stop and futs[i] is not None and futs[i].done():
                responses[i] = self._check(i, futs[i])
                futs[i] = None
                i += 1
            checked[0] = i

        def on_send(_i, now):
            depth_t.append(now)
            depth.append(server.queue_depth)

        loop = H.OpenLoop(
            offsets,
            lambda i: server.submit(self.w, self.xs[i % self.POOL].copy(),
                                    request_id=f"r{rate}:{i}"),
            on_send=on_send,
            on_idle=sweep,
        )
        loop.run()
        complete = loop.wait(timeout=60.0)
        for i in range(checked[0], count):
            if responses[i] is None:
                responses[i] = self._check(i, loop.futures[i])
                loop.futures[i] = None
        tally = H.Tally()
        for _resp, reason in responses:
            tally.record(reason)
        lat = loop.latencies * 1e3
        lat = np.where([r is None for _resp, r in responses], lat, np.inf)
        tail = H.windowed_tail(lat)[0]
        backlog = H.slope(depth_t, depth)
        steady = complete and tally.failed == 0 and backlog <= 0.05 * rate
        if tracer.enabled:
            for i, (resp, _r) in enumerate(responses):
                if resp is None:
                    continue
                done = loop.done[i]
                rid = f"r{rate}:{i}"
                root = tracer.add("serve.request", loop.due[i], done, rid=rid)
                tracer.add("serve.queue_wait",
                           done - resp.service_s - resp.queue_wait_s,
                           done - resp.service_s, parent=root, rid=rid)
                tracer.add("serve.service", done - resp.service_s, done,
                           parent=root, rid=rid)
        return {
            "rate": rate, "loop": loop, "tally": tally, "responses": responses,
            "latency_ms": lat, "tail": tail, "backlog": backlog,
            "steady": steady,
        }

    def measure(self, server, seconds: float, tracer, rates=None) -> Phase:
        phase = Phase()
        rungs = {}
        rates = rates or self.LADDER
        share = sum(self.SHARE[r] for r in rates)
        cpu0, t_start = H.cpu_seconds(), time.perf_counter()
        for rate in rates:
            count = max(20, int(round(rate * self.SHARE[rate] / share * seconds)))
            rungs[rate] = self._rung(server, rate, count, tracer)
        phase.extra["batch_overhead"] = self.batch_overhead(server)
        phase.wall_s = time.perf_counter() - t_start
        phase.cpu_s = H.cpu_seconds() - cpu0
        ref = rungs[self.REFERENCE]
        phase.tally = ref["tally"]
        phase.latency_ms = list(ref["latency_ms"])
        flops = 2.0 * self.M * self.K * self.Q
        for resp, reason in ref["responses"]:
            phase.attempted_flops += flops
            if resp is None:
                continue
            phase.busy_s += resp.service_s / max(1, resp.batch_size)
            if reason is None or reason == "flagged_clean":
                phase.useful_flops += flops
            if resp.status == "full":
                phase.checked_flops += flops
        loop = ref["loop"]
        phase.extra.update(
            rungs=rungs,
            span_s=float(np.nanmax(loop.done) - loop.due[0]),
            # Every rung's batches: the engine wall the stage shares divide.
            service_s=sum(
                resp.service_s / max(1, resp.batch_size)
                for rung in rungs.values()
                for resp, _reason in rung["responses"] if resp is not None
            ),
        )
        return phase

    def batch_overhead(self, server, bursts: int = 40) -> float:
        """Served service time of one full batch over raw numpy on the same
        pairs: the median over ``bursts`` bursts of ``max_batch_size``
        requests that the server coalesced into one batch, over the median
        of the raw loop, each timed as the best of three right after its
        burst (host hiccups land on single raw loops, not on the server)."""
        width = server.config.max_batch_size
        service, raw = [], []
        for r in range(4 * bursts):
            if len(service) == bursts:
                break
            xs = [self.xs[(r + i) % self.POOL] for i in range(width)]
            futs = [server.submit(self.w, x.copy()) for x in xs]
            responses = [f.result(timeout=30) for f in futs]
            if any(resp.batch_size != width for resp in responses):
                continue  # split across two batches: not a full-batch sample
            service.append(responses[0].service_s)
            loops = []
            for _ in range(3):
                t0 = time.perf_counter()
                for x in xs:
                    np.matmul(self.w, x)
                loops.append(time.perf_counter() - t0)
            raw.append(min(loops))
        return H.median(service) / H.median(raw)

    @staticmethod
    def _max_rate(phase: Phase) -> float:
        rungs = phase.extra["rungs"]
        return max_rate(
            [(r, rungs[r]["tail"], rungs[r]["steady"]) for r in sorted(rungs)]
        )

    def end_to_end(self, phase: Phase) -> dict:
        out = _common(phase)
        ref = phase.extra["rungs"][self.REFERENCE]
        served = len(ref["responses"]) - ref["tally"].failed
        out["overhead_x"] = phase.extra["batch_overhead"]
        out["calls_per_s"] = served / phase.extra["span_s"]
        out["max_rate_rps"] = self._max_rate(phase)
        phase.extra["ladder"] = {
            r: {"tail_ms": rung["tail"], "backlog_slope": rung["backlog"],
                "failed": rung["tally"].failed, "steady": rung["steady"]}
            for r, rung in phase.extra["rungs"].items()
        }
        return out

    def per_layer(self, server, phase: Phase, tracer, before) -> dict:
        out = _engine_layers(server.engine, server.registry,
                             phase.extra["service_s"], before)
        ref = phase.extra["rungs"][self.REFERENCE]
        waits, services, gaps, sizes = [], [], [], []
        for (resp, _reason), lat in zip(ref["responses"], ref["latency_ms"]):
            if resp is None:
                continue
            waits.append(resp.queue_wait_s * 1e3)
            services.append(resp.service_s * 1e3)
            gaps.append(lat - (resp.queue_wait_s + resp.service_s) * 1e3)
            sizes.append(resp.batch_size)
        for name, samples in (("queue_wait_ms", waits), ("service_ms", services),
                              ("client_gap_ms", gaps)):
            out[f"serve.{name}.p50"] = H.median(samples)
            out[f"serve.{name}.tail"] = H.windowed_tail(samples)[0]
        out["serve.batch_size_mean"] = float(np.mean(sizes))
        out["serve.max_rate_rps"] = self._max_rate(phase)
        rejected: dict = {}
        degraded = 0
        for rung in phase.extra["rungs"].values():
            out[f"serve.backlog_slope.r{rung['rate']}"] = rung["backlog"]
            for resp, reason in rung["responses"]:
                if reason and reason.startswith("rejected:"):
                    key = reason.split(":", 1)[1]
                    rejected[key] = rejected.get(key, 0) + 1
                if resp is not None and resp.status == "degraded":
                    degraded += 1
        for reason in ("queue_full", "deadline", "shutdown"):
            out[f"serve.rejected.{reason}"] = float(rejected.get(reason, 0))
        out["serve.degraded"] = float(degraded)
        out["serve.gen_lag_ms.tail"] = H.windowed_tail(ref["loop"].lateness * 1e3)[0]
        hist = H.MarginHistogram()
        for result in self.serial:
            _margins(hist, result)
        out["bounds.clean_margin_max"] = hist.max
        out["bounds.clean_margin_p99"] = hist.quantile(0.99)
        out.update(_replay_layers(server.engine, {"serve_f64": (self.w, self.xs[0])}, tracer))
        return out

    def short_phase(self, server, seconds: float) -> Phase:
        """The reference rate alone, untraced."""
        return self.measure(server, seconds, H.Tracer(False),
                            rates=(self.REFERENCE,))

    def close(self, server) -> None:
        server.stop(drain=True)
        server.engine.close()


# ----------------------------------------------------------------------
# model-stack
# ----------------------------------------------------------------------
def raw_forward(model, inputs) -> np.ndarray:
    """The benchmark's own numpy forward pass: the raw side of overhead_x."""
    x = inputs.x
    for layer, w in zip(model.layers, inputs.weights):
        storage = np.dtype(layer.dtype)
        compute = np.float32 if storage.itemsize < 4 else storage
        y = (x.astype(compute) @ w.astype(compute)).astype(storage)
        if layer.activation == "relu":
            y = np.maximum(y, 0)
        elif layer.activation == "gelu":
            z = y.astype(compute)
            c = np.sqrt(2.0 / np.pi).astype(compute)
            y = (0.5 * z * (1.0 + np.tanh(c * (z + 0.044715 * z * z * z)))).astype(storage)
        x = y
    return x


class ModelStack:
    """Closed loop, one caller alternating passes of two planned models:
    the fp32 ``bench-mlp`` (plans to SEA) and an fp16 attention block
    (plans to the adaptive bound), both at BS=32, coverage target 0.85."""

    name = "model-stack"
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.models = [
            mlp(**BENCH_MODEL_KWARGS),
            attention(name="attn-fp16", batch=128, d_model=256, dtype="float16"),
        ]
        self.config = AbftConfig(block_size=32)
        self.inputs = [ModelInputs.generate(m, seed=seed * 7 + i)
                       for i, m in enumerate(self.models)]
        probe = ModelRunner(MatmulEngine(self.config))
        self.refs = [probe.reference_output(m, x) for m, x in zip(self.models, self.inputs)]
        probe.engine.close()
        self.tols = [
            H.model_tolerance(
                ref, max(float(np.finfo(np.dtype(l.dtype)).eps) for l in m.layers),
                m.depth,
            )
            for m, ref in zip(self.models, self.refs)
        ]
        self.planner_s: list[float] = []

    def build(self):
        runner = ModelRunner(MatmulEngine(self.config))
        planner = ProtectionPlanner(self.config, coverage_target=0.85)
        plans = []
        for model, inputs in zip(self.models, self.inputs):
            t0 = time.perf_counter()
            plan = planner.plan(model)
            self.planner_s.append(time.perf_counter() - t0)
            runner.run(model, plan, inputs)
            plans.append(plan)
        return runner, plans

    def measure(self, system, seconds: float, tracer) -> Phase:
        runner, plans = system
        phase = Phase()
        per_model = {m.name: ([], []) for m in self.models}
        layer_s: dict = {}
        phase.extra.update(models=per_model, layers=layer_s, reused=[],
                           unchecked=[], degraded=0, engine_s=0.0)
        cpu0, t_start, passes = H.cpu_seconds(), time.perf_counter(), 0
        while time.perf_counter() - t_start < seconds:
            for model, plan, inputs, ref, tol in zip(
                self.models, plans, self.inputs, self.refs, self.tols
            ):
                rid = f"p{passes}:{model.name}"
                flops = model.total_flops()
                exc = result = None
                with tracer.span("models.pass", rid=rid) as root:
                    t0 = time.perf_counter()
                    try:
                        result = runner.run(model, plan, inputs)
                    except Exception as e:  # noqa: BLE001 - the oracle counts it
                        exc = e
                    t1 = time.perf_counter()
                    with tracer.span("raw.forward", parent=root, rid=rid):
                        raw_forward(model, inputs)
                    t_raw = time.perf_counter() - t1
                    reason = H.classify_model(result, exc, ref, tol)
                phase.tally.record(reason)
                t_pass = t1 - t0
                phase.latency_ms.append(t_pass * 1e3)
                phase.busy_s += t_pass
                phase.attempted_flops += flops
                per_model[model.name][0].append(t_pass)
                per_model[model.name][1].append(t_raw)
                if result is not None:
                    phase.useful_flops += flops
                    start = t0
                    for layer, lr in zip(model.layers, result.layers):
                        layer_s.setdefault((model.name, lr.layer), []).append(lr.seconds)
                        if lr.rung != "unchecked":
                            phase.checked_flops += layer.flops(model.batch)
                            phase.extra["engine_s"] += lr.seconds
                        tracer.add(f"models.layer.{lr.layer}", start,
                                   start + lr.seconds, parent=root, rid=rid)
                        start += lr.seconds
                    phase.extra["reused"].append(result.reuse_count)
                    phase.extra["unchecked"].append(
                        sum(1 for lr in result.layers if lr.rung == "unchecked"))
                    phase.extra["degraded"] += sum(1 for lr in result.layers if lr.degraded)
                passes += 1
        phase.wall_s = time.perf_counter() - t_start
        phase.cpu_s = H.cpu_seconds() - cpu0
        return phase

    def end_to_end(self, phase: Phase) -> dict:
        models = phase.extra["models"].values()
        out = _common(phase, [np.array(prot) * 1e3 for prot, _raw in models])
        out["overhead_x"] = H.geomean(
            H.median(prot) / H.median(raw) for prot, raw in models
        )
        out["calls_per_s"] = len(phase.latency_ms) / phase.busy_s
        out["max_rate_rps"] = out["calls_per_s"]
        return out

    def per_layer(self, system, phase: Phase, tracer, before) -> dict:
        runner, _plans = system
        out = _engine_layers(runner.engine, runner.registry,
                             phase.extra["engine_s"], before)
        for (model, layer), samples in phase.extra["layers"].items():
            out[f"models.layer_ms.{model}.{layer}"] = H.median(samples) * 1e3
        out["models.reused_layers"] = float(np.mean(phase.extra["reused"]))
        out["models.raw_forward_ms"] = float(np.mean(
            [H.median(raw) * 1e3 for _prot, raw in phase.extra["models"].values()]
        ))
        out["models.planner_ms"] = H.median(self.planner_s) * 1e3
        out["models.unchecked_layers"] = float(np.mean(phase.extra["unchecked"]))
        out["models.degraded_layers"] = float(phase.extra["degraded"])
        return out

    def short_phase(self, system, seconds: float) -> Phase:
        return self.measure(system, seconds, H.Tracer(False))

    def close(self, system) -> None:
        system[0].engine.close()


WORKLOADS = {w.name: w for w in (GemmLarge, GemmSmall, ServeShared, ModelStack)}


def engine_of(system) -> MatmulEngine:
    """The engine inside a workload's system (engine, server or runner)."""
    if isinstance(system, MatmulEngine):
        return system
    if isinstance(system, tuple):
        return system[0].engine
    return system.engine
