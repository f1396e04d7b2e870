"""Measurement machinery shared by the workloads.

Statistics (median and the tail rule), the failure oracle, the open-loop
request generator, the in-memory span recorder, process counters and the
environment record.  Nothing here imports ``repro``: the helpers only see
the results the program hands back.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import json
import math
import os
import platform
import resource
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Samples a tail percentile must leave beyond itself.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples beyond it.

    Returns ``(value, percentile, n)``.  With the samples sorted ascending
    the value is the sample with exactly ``beyond`` samples ranked above
    it, and the percentile is the share of samples ranked at or below it.
    With ``beyond`` samples or fewer no percentile qualifies; the maximum
    is returned with percentile 100.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = int(x.size)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return float(x[-1]), 100.0, n
    return float(x[n - 1 - beyond]), 100.0 * (n - beyond) / n, n


def windowed_tail(samples, *, window: int = 250, max_windows: int = 9,
                  beyond: int = TAIL_BEYOND) -> tuple[float, float, int, int]:
    """The median over consecutive windows of each window's :func:`tail`.

    One extreme event moves a pooled tail; the median over up to
    ``max_windows`` windows of at least ``window`` samples each does not.
    Returns ``(value, per-window percentile, samples, windows)``.
    """
    x = np.asarray(samples, dtype=float)
    count = max(1, min(max_windows, x.size // window))
    parts = [tail(part, beyond) for part in np.array_split(x, count)]
    return (
        median([p[0] for p in parts]),
        min(p[1] for p in parts),
        int(x.size),
        count,
    )


def geomean(values) -> float:
    v = np.asarray(list(values), dtype=float)
    return float(np.exp(np.mean(np.log(v))))


def slope(times, values) -> float:
    """Least-squares slope of ``values`` over ``times`` (0 when flat)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2 or np.ptp(t) == 0:
        return 0.0
    return float(np.polyfit(t - t[0], v, 1)[0])


class MarginHistogram:
    """Discrepancy / epsilon over every comparison, kept as a log histogram.

    Pooling the raw ratios of thousands of checks would cost memory; a
    0.01-decade histogram keeps the maximum exactly and the p99 to within
    one bin (2.3%).
    """

    LO, HI, STEP = -30.0, 10.0, 0.01

    def __init__(self) -> None:
        self.bins = np.zeros(int((self.HI - self.LO) / self.STEP) + 2, np.int64)
        self.zeros = 0
        self.max = 0.0

    def add(self, disc: np.ndarray, eps: np.ndarray) -> None:
        disc = np.asarray(disc, dtype=float).ravel()
        eps = np.asarray(eps, dtype=float).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(eps > 0, disc / eps, np.where(disc > 0, np.inf, 0.0))
        ratio = np.where(np.isnan(ratio), np.inf, ratio)
        if ratio.size:
            self.max = max(self.max, float(ratio.max()))
        positive = ratio[ratio > 0]
        self.zeros += int(ratio.size - positive.size)
        idx = np.floor((np.log10(positive) - self.LO) / self.STEP) + 1
        idx = np.clip(idx, 0, self.bins.size - 1).astype(np.int64)
        np.add.at(self.bins, idx, 1)

    @property
    def count(self) -> int:
        return int(self.zeros + self.bins.sum())

    def quantile(self, q: float) -> float:
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        if rank <= self.zeros:
            return 0.0
        cum = self.zeros + np.cumsum(self.bins)
        i = int(np.searchsorted(cum, rank))
        return float(10.0 ** (self.LO + i * self.STEP))


# ----------------------------------------------------------------------
# failure oracle
# ----------------------------------------------------------------------
def gamma(k: int, u: float) -> float:
    """gamma_k = k*u / (1 - k*u), the dot-product rounding-error factor."""
    ku = k * u
    if ku >= 1.0:
        return math.inf
    return ku / (1.0 - ku)


def gemm_error_bound(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """Elementwise bound on ``|c - c_ref|`` for two computed ``a @ b``.

    Each computed product lies within ``gamma_k * (|A| |B|)`` of the exact
    one (plus ``k`` subnormal quanta for underflow), so two of them lie
    within twice that of each other.  ``|A| |B|`` is formed in float64.
    """
    info = np.finfo(np.dtype(dtype))
    k = a.shape[1]
    u = float(info.eps) / 2.0
    mag = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
    return 2.0 * gamma(k, u) * mag + 2.0 * k * float(info.smallest_subnormal)


def gemm_wrong(c: np.ndarray, c_ref: np.ndarray, bound: np.ndarray) -> bool:
    """True when ``c`` misses the bound anywhere (NaN counts as a miss)."""
    if c.shape != c_ref.shape:
        return True
    diff = np.abs(c.astype(np.float64) - c_ref.astype(np.float64))
    return not bool(np.all(diff <= bound))


def _status(response) -> str:
    status = getattr(response, "status", None)
    return str(getattr(status, "value", status))


def classify_gemm(result, exc, c_ref, bound) -> str | None:
    """Failure reason of one protected product of clean operands."""
    if exc is not None:
        return type(exc).__name__
    if gemm_wrong(result.c, c_ref, bound):
        return "wrong_result"
    if result.detected:
        return "flagged_clean"
    return None


def classify_serve(response, exc, c_serial) -> str | None:
    """Failure reason of one served request: FULL and bitwise equal to the
    serial engine product of the same pair, or a named failure."""
    if exc is not None:
        return type(exc).__name__
    status = _status(response)
    if status == "rejected":
        return f"rejected:{response.rejected_reason}"
    c = getattr(response, "c", None)
    if c is None or c.shape != c_serial.shape or c.dtype != c_serial.dtype:
        return "wrong_result"
    if not np.array_equal(c, c_serial, equal_nan=True):
        return "wrong_result"
    if getattr(response, "detected", False):
        return "flagged_clean"
    if status != "full":
        return "not_full"
    return None


def model_tolerance(ref: np.ndarray, eps: float, depth: int) -> float:
    """Absolute output tolerance: 64 eps per layer, scaled to the output."""
    scale = float(np.abs(ref.astype(np.float64)).max()) if ref.size else 1.0
    return 64.0 * eps * max(scale, 1.0) * depth


def classify_model(result, exc, ref, tol) -> str | None:
    """Failure reason of one model pass against the reference output."""
    if exc is not None:
        return type(exc).__name__
    out = np.asarray(result.output, dtype=np.float64)
    if out.shape != ref.shape:
        return "wrong_result"
    diff = np.abs(out - ref.astype(np.float64))
    if not bool(np.all(diff <= tol)):
        return "wrong_result"
    if result.detected:
        return "flagged_clean"
    if result.degraded:
        return "not_full"
    return None


class Tally:
    """Attempted operations and failures counted per reason; never raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, reason: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if reason is not None:
                self.reasons[reason] += 1

    @property
    def failed(self) -> int:
        return int(sum(self.reasons.values()))

    @property
    def wrong(self) -> int:
        return int(self.reasons.get("wrong_result", 0))


# ----------------------------------------------------------------------
# open-loop generator
# ----------------------------------------------------------------------
def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Arrival offsets (seconds from the start) of a Poisson stream."""
    return np.cumsum(rng.exponential(1.0 / rate, count))


class OpenLoop:
    """Sends request ``i`` at ``start + offsets[i]`` whatever the backlog.

    ``submit(i)`` must return a ``concurrent.futures.Future``.  Each
    request is timed from the moment it was *due*, so a stall in the
    generator or the server is charged to every request it delays.
    ``sent - due`` is the generator's own lateness.  ``on_idle()`` runs
    only when the next request is more than :attr:`IDLE_S` away, so the
    caller's bookkeeping never makes the generator late.
    """

    IDLE_S = 0.002

    def __init__(self, offsets, submit, *, clock=time.perf_counter,
                 sleep=time.sleep, on_send=None, on_idle=None) -> None:
        self.offsets = np.asarray(offsets, dtype=float)
        self._submit = submit
        self._clock = clock
        self._sleep = sleep
        self._on_send = on_send
        self._on_idle = on_idle
        n = self.offsets.size
        self.due = np.zeros(n)
        self.sent = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.futures = [None] * n

    def run(self) -> None:
        start = self._clock()
        for i, offset in enumerate(self.offsets):
            due = start + offset
            now = self._clock()
            if self._on_idle is not None and due - now > self.IDLE_S:
                self._on_idle()
                now = self._clock()
            if now < due:
                self._sleep(due - now)
                now = self._clock()
            self.due[i] = due
            self.sent[i] = now
            fut = self._submit(i)
            self.futures[i] = fut
            fut.add_done_callback(lambda _f, i=i: self._finish(i))
            if self._on_send is not None:
                self._on_send(i, now)

    def _finish(self, i: int) -> None:
        self.done[i] = self._clock()

    def wait(self, timeout: float) -> bool:
        """Wait for every response; False when some are still missing.

        A caller may take a finished future out of :attr:`futures` (set
        it to ``None``) once it has read it; those count as finished.
        """
        deadline = time.monotonic() + timeout
        for fut in self.futures:
            if fut is None:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not _wait_future(fut, remaining):
                return False
        return True

    @property
    def latencies(self) -> np.ndarray:
        return self.done - self.due

    @property
    def lateness(self) -> np.ndarray:
        return self.sent - self.due


def _wait_future(fut, timeout: float) -> bool:
    from concurrent.futures import TimeoutError as FutureTimeout

    try:
        fut.exception(timeout=timeout)
    except FutureTimeout:
        return False
    return True


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder, written once at the end.

    A span records its name, start, end, parent span and the call or
    request id.  A disabled tracer records nothing and costs one branch.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, parent: int | None = None, rid=None):
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, name, start, time.perf_counter(), parent, rid))

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, rid=None) -> int | None:
        """Record a span whose bounds were measured elsewhere."""
        if not self.enabled:
            return None
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, rid))
        return sid

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _name, start, end, _parent, _rid in self.spans:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (end - start) - covered
        return out

    def self_seconds_by_name(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for sid, name, *_ in self.spans:
            out[name] = out.get(name, 0.0) + selfs[sid]
        return out

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {
                "id": sid, "name": name, "parent": parent, "rid": rid,
                "start_s": start - t0, "end_s": end - t0,
                "self_s": selfs[sid],
            }
            for sid, name, start, end, parent, rid in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, default=str))


# ----------------------------------------------------------------------
# process counters and environment
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pin_environment(out_dir: Path) -> Path:
    """Clear backend/fusion pins and point the autotune cache at a fresh
    empty file, so ``backend="auto"`` resolves the same way on every host
    with no stale winners and no timing trials.  Call before importing
    ``repro``; returns the cache path for removal at exit."""
    os.environ.pop("AABFT_BACKEND", None)
    os.environ.pop("AABFT_FUSION", None)
    cache = out_dir / f"autotune-{os.getpid()}.json"
    cache.write_text("")
    os.environ["AABFT_AUTOTUNE_CACHE"] = str(cache)
    return cache


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "platform": sys.platform,
    }
