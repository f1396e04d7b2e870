"""Cached per-call-signature execution plans.

Building a protected multiplication involves setup that is identical
across repeated calls of one signature: the ``(storage, compute)`` dtype
resolution, backend and fusion negotiation, partitioned layouts for both
encoded axes, the bound-scheme object and scratch workspaces.
:class:`ExecutionPlan` bundles that setup; :class:`PlanCache` keeps plans in
an LRU keyed by the call signature, so iterative solvers and batch
campaigns pay for it once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..bounds.adaptive import AdaptiveBound
from ..bounds.base import BoundScheme
from ..bounds.fixed import FixedBound
from ..bounds.probabilistic import ProbabilisticBound
from ..bounds.sea import SEABound
from ..fp.constants import FloatFormat, format_for_dtype, format_for_name
from ..kernels.encode_fused import pair_search_order
from .config import AbftConfig

__all__ = ["PlanKey", "ExecutionPlan", "PlanCache", "WorkspacePool", "build_plan"]

#: The engine's call signature (see ``MatmulEngine._plan``), or
#: ``(m, n, q, dtype-name, config)`` for plans built by :func:`build_plan`.
PlanKey = tuple

#: Workspaces above this size are never pooled (a handful of retained
#: 8192x8192 buffers would pin gigabytes); below it, warm calls reuse them.
_POOL_BYTE_LIMIT = 1 << 25


class WorkspacePool:
    """Thread-safe free-lists of scratch buffers keyed by ``(shape, dtype)``.

    Every :class:`ExecutionPlan` owns one pool; the engine recycles its
    internal scratch arrays — top-p search workspaces, GEMM tile staging
    and tolerance grids — through it across warm calls and fused batches.

    Safety rules the engine observes (see ``docs/API.md``):

    * only buffers that never escape into user-visible objects are given
      back — :class:`~repro.engine.engine.EncodedOperand` handles from the
      public ``encode()``, discrepancy arrays stored on reports, and result
      matrices are never pooled;
    * :meth:`give` silently rejects views (``base is not None``),
      non-contiguous arrays and buffers above ``_POOL_BYTE_LIMIT``, so a
      sliced or oversized workspace can never resurface;
    * :meth:`take` returns buffers with *undefined contents* — callers must
      overwrite every element.

    Concurrent :meth:`take` calls simply receive distinct buffers (a miss
    allocates outside the lock), so the pool is safe under
    ``execute_batch``'s thread pool.
    """

    def __init__(self, limit_per_key: int = 4, byte_limit: int = _POOL_BYTE_LIMIT):
        self._limit = limit_per_key
        self._byte_limit = byte_limit
        self._free: dict[tuple, deque[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.takes = 0
        self.hits = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous scratch array of the requested shape and dtype."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        with self._lock:
            self.takes += 1
            bucket = self._free.get(key)
            if bucket:
                self.hits += 1
                return bucket.pop()
        return np.empty(key[0], dtype=key[1])

    def give(self, buffer: np.ndarray | None) -> None:
        """Return a scratch array for reuse (no-op when not poolable)."""
        if buffer is None:
            return
        if buffer.base is not None or not buffer.flags.c_contiguous:
            return
        if buffer.nbytes > self._byte_limit:
            return
        key = (buffer.shape, buffer.dtype)
        with self._lock:
            bucket = self._free.get(key)
            if bucket is None:
                bucket = self._free.setdefault(key, deque())
            if len(bucket) < self._limit:
                bucket.append(buffer)


@dataclass
class ExecutionPlan:
    """All shape-dependent state of one ``(m, n) @ (n, q)`` protected matmul.

    Attributes
    ----------
    key:
        The cache key the plan was built for.
    config:
        The :class:`~repro.engine.config.AbftConfig` in effect.
    dtype:
        Computation dtype (float32 when both operands are float32).
    m, n, q:
        Unpadded operand dimensions.
    rows_added / cols_added:
        Rows / columns the layouts add to reach block multiples (the
        operands themselves are never padded).
    row_layout / col_layout:
        Partitioned layouts of the encoded result axes.
    scheme:
        The reusable bound-scheme object for this dtype/config.
    fmt:
        The IEEE format of the computation dtype.
    pool:
        The plan's :class:`WorkspacePool` — every scratch buffer of a call
        executed under this plan is taken from and given back to it.
    backend_name / tile:
        The compute backend the GEMM stage dispatches through and the
        result-tile edge of the canonical tile list it executes
        (``None`` = one full-result tile).  The engine resolves
        ``backend="auto"`` through capability negotiation when it builds
        the plan, so plans always carry a concrete backend.
    storage_dtype:
        The dtype results are stored in (``dtype`` unless a low-precision
        storage format computes in float32).
    selection_fallback / fused_fallback:
        The never-silent backend-selection and fusion fallback texts the
        negotiation produced (``None`` when the request was honoured).
    replay:
        The fallback counters negotiation incremented; the engine
        increments them again on every call that reuses the plan.
    pair_order:
        Where each encoded vector of both operands sits in the stacked
        top-p search of a small raw pair (:func:`~repro.kernels.
        encode_fused.fused_encode_pair`); ``None`` when the pair is not
        searched jointly (non-``aabft`` schemes, large operands).
    """

    key: PlanKey
    config: AbftConfig
    dtype: np.dtype
    m: int
    n: int
    q: int
    rows_added: int
    cols_added: int
    row_layout: PartitionedLayout
    col_layout: PartitionedLayout
    scheme: BoundScheme
    fmt: FloatFormat
    pool: WorkspacePool = field(repr=False, default=None)
    backend_name: str = "numpy"
    tile: int | None = None
    storage_dtype: np.dtype | None = None
    selection_fallback: str | None = None
    fused_fallback: str | None = None
    replay: tuple = ()
    pair_order: np.ndarray | None = None

    def backend(self):
        """The shared :class:`~repro.backends.base.Backend` instance."""
        from ..backends import get_backend

        return get_backend(self.backend_name)


def build_plan(
    m: int, n: int, q: int, dtype: np.dtype, config: AbftConfig
) -> ExecutionPlan:
    """Construct the execution plan for one shape/dtype/config triple."""
    bs = config.block_size
    rows_added = (-m) % bs
    cols_added = (-q) % bs
    row_layout = PartitionedLayout(data_rows=m + rows_added, block_size=bs)
    col_layout = PartitionedLayout(data_rows=q + cols_added, block_size=bs)
    fmt = format_for_dtype(dtype)
    if config.scheme == "aabft":
        scheme: BoundScheme = ProbabilisticBound(
            omega=config.omega, fma=config.fma, fmt=fmt
        )
    elif config.scheme == "sea":
        scheme = SEABound(fmt=fmt)
    elif config.scheme == "adaptive":
        # ``dtype`` names the *storage* format; ``fmt`` stays the compute
        # format the checksums accumulate in.  AbftConfig already gated
        # bfloat16 on availability, so format_for_name cannot fail here.
        storage_fmt = format_for_name(config.dtype) if config.dtype else fmt
        scheme = AdaptiveBound(fmt=fmt, storage_fmt=storage_fmt)
    else:  # fixed — validated by AbftConfig.__post_init__
        scheme = FixedBound(float(config.fixed_epsilon))
    plan = ExecutionPlan(
        key=(m, n, q, np.dtype(dtype).name, config),
        config=config,
        dtype=np.dtype(dtype),
        m=m,
        n=n,
        q=q,
        rows_added=rows_added,
        cols_added=cols_added,
        row_layout=row_layout,
        col_layout=col_layout,
        scheme=scheme,
        fmt=fmt,
        # Plans built outside the engine's negotiation step (tests, direct
        # build_plan calls) treat an unresolved "auto" as the reference.
        backend_name=(
            "numpy" if config.backend == "auto" else config.backend
        ),
        tile=config.gemm_tile,
        storage_dtype=np.dtype(dtype),
        pair_order=(
            pair_search_order(m, n, q, dtype, bs)
            if config.scheme == "aabft"
            else None
        ),
    )
    plan.pool = WorkspacePool()
    return plan


class PlanCache:
    """A thread-safe LRU cache of :class:`ExecutionPlan` objects."""

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"plan cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: PlanKey, build) -> tuple[ExecutionPlan, bool]:
        """The plan for ``key``, built by ``build()`` on a miss.

        Returns ``(plan, hit)`` where ``hit`` reports whether the plan was
        served from cache.  A raising ``build`` caches nothing and counts
        no miss.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan, True
        # Build outside the lock: plans are deterministic, so a racing
        # duplicate build is wasteful but harmless.
        plan = build()
        with self._lock:
            self.misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan (counters are retained)."""
        with self._lock:
            self._plans.clear()
