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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..abft.encoding import PartitionedLayout
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
    fusion / fused_tile_blocks:
        The winning fusion strategy: ``"fused"`` when the online-ABFT
        tile loop (GEMM + in-loop check) beat the separate GEMM + grid
        check by the hysteresis margin on this backend, else
        ``"separate"``.
    fused_per_call_s / separate_check_s:
        The timed evidence behind the fusion decision: best fused
        multiply+check seconds, and the separate grid-check seconds that
        ride on top of ``per_call_s`` in the separate strategy.
    """

    backend: str
    tile: int | None
    per_call_s: float
    baseline_per_call_s: float
    fusion: str = "separate"
    fused_tile_blocks: int | None = None
    fused_per_call_s: float | None = None
    separate_check_s: float | None = None

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
    """Decode a cache file's entries; corrupt or missing data reads empty."""
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
                # Fusion fields arrived later; pre-existing cache files
                # read as the historical separate strategy.
                fusion=str(payload.get("fusion", "separate")),
                fused_tile_blocks=(
                    None
                    if payload.get("fused_tile_blocks") is None
                    else int(payload["fused_tile_blocks"])
                ),
                fused_per_call_s=(
                    None
                    if payload.get("fused_per_call_s") is None
                    else float(payload["fused_per_call_s"])
                ),
                separate_check_s=(
                    None
                    if payload.get("separate_check_s") is None
                    else float(payload["separate_check_s"])
                ),
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
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._lock = threading.Lock()
        self._entries: dict[str, TunedChoice] | None = None

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
        self._m_fusion = reg.counter(
            "abft_fused_autotune_total",
            "Fusion-strategy autotune decisions (fused / separate / "
            "unsupported)",
            ("decision",),
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
        best = self._tune_fusion(best, cfg, a, b, m, q)
        self.cache.put(cache_key, best)
        self._m_events.labels(event="tuned").inc()
        return best

    def candidate_tile_blocks(self, m: int, q: int, block_size: int) -> list[int]:
        """Fused tile-edge candidates in whole blocks per axis, capped to
        edges that actually subdivide the result."""
        largest = max(m, q)
        return [tb for tb in (2, 4, 8) if tb * block_size < largest]

    def _tune_fusion(
        self, best: TunedChoice, cfg, a: np.ndarray, b: np.ndarray,
        m: int, q: int,
    ) -> TunedChoice:
        """Time fused online tiles against the separate GEMM + grid check.

        Multi-tile candidates win only when their whole multiply+check
        wall time beats the winner's GEMM *plus* the separate grid check
        by the same never-slower hysteresis margin — on the backend that
        actually won, with the tolerance grids forced to ``inf`` so the
        random timing operands never trigger a recompute.  The degenerate
        single-tile candidate (``fused_tile_blocks=None``) runs the exact
        same GEMM as the separate path, so only its in-loop check time is
        compared (hysteresis applies to the component that can differ,
        not to the GEMM term that is equal by construction).
        """
        from ..kernels.online_fused import online_fused_matmul
        from ..kernels.sideproduct import (
            block_checksums,
            side_discrepancies,
            side_products,
        )

        backend = self.registry.get(best.backend)
        if not backend.capabilities().fused_online:
            self._m_fusion.labels(decision="unsupported").inc()
            return best
        bs = cfg.block_size
        tile_blocks = self.candidate_tile_blocks(m, q, bs)

        row_layout = PartitionedLayout(data_rows=m + (-m) % bs, block_size=bs)
        col_layout = PartitionedLayout(data_rows=q + (-q) % bs, block_size=bs)
        ea = block_checksums(a, "a", bs)
        eb = block_checksums(b, "b", bs)
        products = side_products(
            a, ea, b, eb, lambda x, y: backend.matmul(x, y, tile=best.tile)
        )
        check_s = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            side_discrepancies(products, row_layout, col_layout)
            check_s = min(check_s, time.perf_counter() - t0)

        col_eps = np.full(
            (row_layout.num_blocks, col_layout.encoded_rows), np.inf
        )
        row_eps = np.full(
            (row_layout.encoded_rows, col_layout.num_blocks), np.inf
        )
        executor = backend.tile_executor()

        # Degenerate single-tile fusion: the GEMM is the separate path's
        # own (identical bytes and schedule), so only the self-timed
        # in-loop check cost matters.
        degenerate_check_s = float("inf")
        for i in range(self.repeats + 1):
            outcome = online_fused_matmul(
                a, ea, b, eb,
                row_layout=row_layout,
                col_layout=col_layout,
                col_eps=col_eps,
                row_eps=row_eps,
                tile_blocks=None,
                gemm_tile=best.tile,
                executor=executor,
                abort_on_failure=False,
            )
            if i > 0:  # first call is the warm-up
                degenerate_check_s = min(
                    degenerate_check_s, outcome.check_seconds
                )

        fused_s = float("inf")
        fused_tb: int | None = None
        for tb in tile_blocks:
            seconds = float("inf")
            for i in range(self.repeats + 1):
                t0 = time.perf_counter()
                online_fused_matmul(
                    a, ea, b, eb,
                    row_layout=row_layout,
                    col_layout=col_layout,
                    col_eps=col_eps,
                    row_eps=row_eps,
                    tile_blocks=tb,
                    executor=executor,
                    abort_on_failure=False,
                )
                if i > 0:  # first call is the warm-up
                    seconds = min(seconds, time.perf_counter() - t0)
            if seconds < fused_s:
                fused_s, fused_tb = seconds, tb

        separate_s = best.per_call_s + check_s
        degenerate_s = best.per_call_s + degenerate_check_s
        degenerate_wins = degenerate_check_s < check_s * (1.0 - self.hysteresis)
        multi_tile_wins = fused_s < separate_s * (1.0 - self.hysteresis)
        if multi_tile_wins and (not degenerate_wins or fused_s < degenerate_s):
            self._m_fusion.labels(decision="fused").inc()
            return replace(
                best,
                fusion="fused",
                fused_tile_blocks=fused_tb,
                fused_per_call_s=fused_s,
                separate_check_s=check_s,
            )
        if degenerate_wins:
            self._m_fusion.labels(decision="fused").inc()
            return replace(
                best,
                fusion="fused",
                fused_tile_blocks=None,
                fused_per_call_s=degenerate_s,
                separate_check_s=check_s,
            )
        self._m_fusion.labels(decision="separate").inc()
        return replace(
            best,
            fusion="separate",
            fused_tile_blocks=None,
            fused_per_call_s=min(fused_s, degenerate_s),
            separate_check_s=check_s,
        )

    def _time(self, name: str, tile: int | None, a, b) -> float:
        backend = self.registry.get(name)
        backend.matmul(a, b, tile=tile)  # warm-up (pools, thread spin-up)
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            backend.matmul(a, b, tile=tile)
            best = min(best, time.perf_counter() - t0)
        return best
