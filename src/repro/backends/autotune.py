"""Backend/tile autotuner with a persisted on-disk winner cache.

In the spirit of A-ABFT's "autonomous, no user-provided tuning": for each
``(shape, dtype, scheme, block_size, p)`` key the tuner times candidate
``(backend, tile)`` configurations on warm-up calls over synthetic
operands of the result GEMM's shape (the engine's ``C = A @ B``; the thin
checksum products ride along at about ``2/BS`` of its flops), picks the
fastest, and persists the winner to a JSON cache
(``AABFT_AUTOTUNE_CACHE``, default ``~/.cache/aabft/autotune.json``).

The ``numpy`` single-tile reference is always timed in the same session,
and a non-``numpy`` winner must beat it by the hysteresis margin —
otherwise the reference wins.  The autotuner therefore *cannot* select a
configuration slower than the ``numpy`` default (the
``BENCH_backends.json`` acceptance criterion holds by construction, and
the benchmark re-verifies it empirically).

Trials only run through the explicit entry points
(:meth:`Autotuner.tune`, ``aabft autotune``,
``MatmulEngine.autotune()``); ordinary engine calls consult the cache via
:meth:`Autotuner.lookup` and never pay timing overhead inline.

Automatic selection only considers *deterministic* backends, so an
autotuned winner never changes result bytes — it only changes how fast
they are produced.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..telemetry import MetricsRegistry
from .registry import BackendRegistry, default_registry

__all__ = [
    "Autotuner",
    "AutotuneCache",
    "TunedChoice",
    "ENV_AUTOTUNE_CACHE",
    "default_cache_path",
]

#: Environment variable overriding the on-disk cache location.
ENV_AUTOTUNE_CACHE = "AABFT_AUTOTUNE_CACHE"


def default_cache_path() -> Path:
    """``$AABFT_AUTOTUNE_CACHE``, else ``~/.cache/aabft/autotune.json``."""
    env = os.environ.get(ENV_AUTOTUNE_CACHE, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "aabft" / "autotune.json"


@dataclass(frozen=True)
class TunedChoice:
    """One cached autotune winner.

    Attributes
    ----------
    backend / tile:
        The winning configuration (``tile=None`` = one full-result tile).
    per_call_s:
        The winner's best-of-repeats GEMM seconds.
    baseline_per_call_s:
        The ``numpy`` single-tile reference timed in the same session.
    """

    backend: str
    tile: int | None
    per_call_s: float
    baseline_per_call_s: float

    @property
    def speedup(self) -> float:
        """Reference seconds over winner seconds (>= 1 by construction)."""
        if self.per_call_s <= 0.0:
            return float("inf")
        return self.baseline_per_call_s / self.per_call_s


class _FileLock:
    """An advisory ``flock`` over ``<path>.lock`` (no-op without fcntl).

    Serialises cross-process cache writers.  Platforms without ``fcntl``
    (or filesystems refusing locks) degrade to the old last-writer-wins
    behaviour instead of failing — the cache is a performance artefact,
    never a correctness one.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None

    def __enter__(self) -> "_FileLock":
        try:
            import fcntl

            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            if self._handle is not None:
                self._handle.close()
            self._handle = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            try:
                import fcntl

                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            self._handle.close()
            self._handle = None


def _parse_entries(text: str) -> dict[str, TunedChoice]:
    """Decode a cache file's entries; corrupt or missing data reads empty.

    Keys other than the four :class:`TunedChoice` fields are ignored, so
    files written with the retired fused-tile fields still load.
    """
    entries: dict[str, TunedChoice] = {}
    try:
        raw = json.loads(text)
        for key, payload in raw.get("entries", {}).items():
            entries[key] = TunedChoice(
                backend=str(payload["backend"]),
                tile=(
                    None
                    if payload.get("tile") is None
                    else int(payload["tile"])
                ),
                per_call_s=float(payload["per_call_s"]),
                baseline_per_call_s=float(payload["baseline_per_call_s"]),
            )
    except (ValueError, KeyError, TypeError):
        entries = {}
    return entries


class AutotuneCache:
    """Thread- and process-safe, crash-tolerant JSON store of winners.

    Writes are atomic (temp file + rename) and **merge-on-write** under
    an advisory file lock: a writer re-reads the file inside the lock,
    folds its new winner into whatever other processes persisted since
    this process last looked, and only then rewrites — so concurrent
    workers (e.g. cluster shards sharing one cache) cannot clobber each
    other's winners.  A corrupt or missing file reads as empty instead of
    failing, so a broken cache can only cost re-tuning, never
    correctness.

    ``generation`` counts the :meth:`put` and :meth:`clear` calls made
    through this object; engines key their cached negotiations on it, so
    a new winner or a cleared cache reaches the next call.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._lock = threading.Lock()
        self._entries: dict[str, TunedChoice] | None = None
        self.generation = 0

    def _read_disk(self) -> dict[str, TunedChoice]:
        try:
            text = self.path.read_text()
        except OSError:
            return {}
        return _parse_entries(text)

    def _load_locked(self) -> dict[str, TunedChoice]:
        if self._entries is None:
            self._entries = self._read_disk()
        return self._entries

    def get(self, key: str) -> TunedChoice | None:
        """The cached winner for a key, or ``None``."""
        with self._lock:
            return self._load_locked().get(key)

    def put(self, key: str, choice: TunedChoice) -> None:
        """Store a winner; persist atomically via read-merge-write."""
        with self._lock:
            self._load_locked()
            with _FileLock(self.path.with_name(self.path.name + ".lock")):
                # Fold in winners other processes persisted since our
                # last read — their keys survive, ours lands on top.
                merged = self._read_disk()
                merged.update(self._entries)
                merged[key] = choice
                self._entries = merged
                self.generation += 1
                payload = {
                    "version": 1,
                    "entries": {
                        k: asdict(v) for k, v in sorted(merged.items())
                    },
                }
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = self.path.with_name(self.path.name + ".tmp")
                    tmp.write_text(json.dumps(payload, indent=2) + "\n")
                    os.replace(tmp, self.path)
                except OSError:
                    # An unwritable cache degrades to in-memory only.
                    pass

    def keys(self) -> list[str]:
        """All cached keys (sorted)."""
        with self._lock:
            return sorted(self._load_locked())

    def __len__(self) -> int:
        with self._lock:
            return len(self._load_locked())

    def clear(self) -> None:
        """Drop every entry (and the on-disk file, if any)."""
        with self._lock:
            self._entries = {}
            self.generation += 1
            try:
                self.path.unlink(missing_ok=True)
            except OSError:
                pass


class Autotuner:
    """Times candidate ``(backend, tile)`` configs and caches the winner.

    Parameters
    ----------
    cache:
        The :class:`AutotuneCache`; defaults to the on-disk cache at
        :func:`default_cache_path`.
    registry:
        Backend registry supplying candidates; defaults to the process
        registry.
    repeats:
        Timed calls per candidate (best-of is kept).
    hysteresis:
        Fractional margin a non-``numpy`` winner must beat the reference
        by (guards against noise-driven flapping and guarantees the
        winner is never slower than the default).
    metrics_registry:
        Target for the ``abft_backend_autotune_total`` counter.
    """

    def __init__(
        self,
        cache: AutotuneCache | None = None,
        *,
        registry: BackendRegistry | None = None,
        repeats: int = 3,
        hysteresis: float = 0.05,
        metrics_registry: MetricsRegistry | None = None,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if not 0.0 <= hysteresis < 1.0:
            raise ValueError(f"hysteresis must be in [0, 1), got {hysteresis}")
        self.cache = cache if cache is not None else AutotuneCache()
        self.registry = registry if registry is not None else default_registry()
        self.repeats = repeats
        self.hysteresis = hysteresis
        reg = metrics_registry if metrics_registry is not None else MetricsRegistry()
        self._m_events = reg.counter(
            "abft_backend_autotune_total",
            "Autotuner events (cache_hit / cache_miss / tuned)",
            ("event",),
        )

    # ------------------------------------------------------------------
    def key(self, m: int, n: int, q: int, dtype, config) -> str:
        """The cache key: shape, dtype, scheme, block size and p."""
        return (
            f"{m}x{n}x{q}/{np.dtype(dtype).name}/{config.scheme}"
            f"/bs{config.block_size}/p{config.p}"
        )

    def lookup(self, m: int, n: int, q: int, dtype, config) -> TunedChoice | None:
        """The cached winner for a call signature (no timing, ever)."""
        choice = self.cache.get(self.key(m, n, q, dtype, config))
        self._m_events.labels(
            event="cache_hit" if choice is not None else "cache_miss"
        ).inc()
        return choice

    def candidate_tiles(self, m: int, q: int, block_size: int) -> list[int]:
        """Tile-edge candidates: the encoding block and small multiples,
        capped to tiles that actually subdivide the result."""
        largest = max(m, q)
        tiles = [
            t
            for t in (block_size, 2 * block_size, 4 * block_size)
            if t < largest
        ]
        return tiles or [block_size]

    def tune(
        self,
        m: int,
        n: int,
        q: int,
        *,
        dtype=np.float64,
        config=None,
        backends: tuple[str, ...] | None = None,
        force: bool = False,
        seed: int = 20140101,
    ) -> TunedChoice:
        """Time candidates for one call signature and persist the winner.

        Returns the cached winner without timing when one exists (pass
        ``force=True`` to re-tune).  Candidate backends default to every
        registered backend that is available and deterministic (automatic
        selection must never change result bytes).
        """
        from ..engine.config import AbftConfig

        cfg = config if config is not None else AbftConfig()
        cache_key = self.key(m, n, q, dtype, cfg)
        if not force:
            cached = self.cache.get(cache_key)
            if cached is not None:
                self._m_events.labels(event="cache_hit").inc()
                return cached

        rng = np.random.default_rng(seed)
        dt = np.dtype(dtype)
        a = rng.standard_normal((m, n)).astype(dt, copy=False)
        b = rng.standard_normal((n, q)).astype(dt, copy=False)

        baseline = self._time("numpy", None, a, b)
        best = TunedChoice(
            backend="numpy",
            tile=cfg.gemm_tile,
            per_call_s=baseline,
            baseline_per_call_s=baseline,
        )
        if backends is None:
            names = [
                name
                for name in self.registry.names()
                if name != "numpy"
                and self.registry.get(name).availability()[0]
                and self.registry.get(name).capabilities().deterministic
            ]
        else:
            names = [n_ for n_ in backends if n_ != "numpy"]
        for name in names:
            for tile in self.candidate_tiles(m, q, cfg.block_size):
                seconds = self._time(name, tile, a, b)
                if seconds < best.per_call_s:
                    best = TunedChoice(
                        backend=name,
                        tile=tile,
                        per_call_s=seconds,
                        baseline_per_call_s=baseline,
                    )
        if (
            best.backend != "numpy"
            and best.per_call_s > baseline * (1.0 - self.hysteresis)
        ):
            # Not convincingly faster than the reference: keep numpy.
            best = TunedChoice(
                backend="numpy",
                tile=cfg.gemm_tile,
                per_call_s=baseline,
                baseline_per_call_s=baseline,
            )
        self.cache.put(cache_key, best)
        self._m_events.labels(event="tuned").inc()
        return best

    def _time(self, name: str, tile: int | None, a, b) -> float:
        backend = self.registry.get(name)
        backend.matmul(a, b, tile=tile)  # warm-up (pools, thread spin-up)
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            backend.matmul(a, b, tile=tile)
            best = min(best, time.perf_counter() - t0)
        return best
