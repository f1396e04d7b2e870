"""The plan-caching batched execution engine for protected multiplications.

:class:`MatmulEngine` is a session object that amortises everything a
single :func:`~repro.abft.multiply.aabft_matmul` call would rebuild from
scratch:

* **execution plans** — per-call-signature dtype resolution, layouts,
  scratch workspaces and bound-scheme objects, LRU-cached (see
  :mod:`repro.engine.plan`), one lookup per call;
* **side products** — every route multiplies the raw operands once with
  ``np.matmul`` (``C = A @ B``, the result itself) and checks ``C``'s
  block sums against three thin checksum GEMMs
  (:mod:`repro.kernels.sideproduct`); operands are never padded,
  interleaved or stripped;
* **operand encodings** — :meth:`MatmulEngine.encode` returns a reusable
  :class:`EncodedOperand` handle, so one encoding of ``A`` serves many
  ``A @ B_i`` products (the iterative-solver pattern);
* **checking** — tolerances are evaluated on dense grids through the
  vectorised provider paths (bitwise equal to the scalar per-comparison
  loop, an order of magnitude faster), both grids of a check in one
  buffer compared in one pass (:mod:`repro.abft.grids`);
* **batching** — :meth:`MatmulEngine.execute_batch` runs a list of operand
  pairs under one :class:`~repro.engine.policy.ExecutionPolicy`: ``fused``
  (:mod:`repro.engine.fused`) multiplies each shared left operand against
  all its right operands in one stacked GEMM plus thin checksum products,
  ``serial`` fans pairs across a thread pool, and ``auto`` (the default)
  picks ``fused`` whenever the batch supports it.

All of the above is metered through a :class:`~repro.telemetry.
MetricsRegistry` (``abft_engine_*`` counters, gauges and stage histograms);
:meth:`MatmulEngine.stats` stays as the backward-compatible
:class:`~repro.engine.stats.EngineStats` snapshot derived from it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..abft.checking import CheckReport, check_partitioned
from ..abft.encoding import PartitionedLayout
from ..abft.grids import CheckGrids, check_reports
from ..kernels.encode_fused import (
    FusedEncodeResult,
    fused_encode,
    fused_encode_pair,
    interleave_operand,
)
from ..kernels.sideproduct import (
    SideProducts,
    assemble_full_checksum,
    scatter_full_checksum,
    side_discrepancies,
    side_products,
)
from ..abft.providers import (
    AABFTEpsilonProvider,
    AdaptiveEpsilonProvider,
    ConstantEpsilonProvider,
    SEAEpsilonProvider,
)
from ..abft.result import AbftResult
from ..bounds.upper_bound import TopP
from ..errors import ConfigurationError, ShapeError
from ..fp.constants import LOW_PRECISION_NAMES, format_for_name
from ..telemetry import MetricsRegistry
from .config import AbftConfig
from .plan import ExecutionPlan, PlanCache, build_plan
from .policy import ExecutionPolicy
from .stats import EngineStats, StageCost, StageCosts

__all__ = ["EncodedOperand", "MatmulEngine", "default_engine", "encode_operand"]


@dataclass(frozen=True, eq=False)
class EncodedOperand:
    """A reusable encoded operand (checksums + bound-scheme preprocessing).

    Produced by :meth:`MatmulEngine.encode`; pass it to
    :meth:`MatmulEngine.matmul` / :meth:`MatmulEngine.execute_batch` in
    place of the raw matrix.  The handle is immutable and safe to share
    across threads.

    Attributes
    ----------
    side:
        ``"a"`` (left operand, column checksums) or ``"b"`` (right operand,
        row checksums).
    data:
        The raw, unpadded operand in the computation dtype.
    checksums:
        Its thin block-checksum matrix: ``EA`` (``nb x k``, the column
        sums of every ``BS``-row block) for side ``"a"``, ``EB``
        (``k x nb``, the row sums of every ``BS``-column block) for
        side ``"b"``.
    layout:
        Partitioned layout of the encoded axis (padded to whole blocks).
    config:
        The config the operand was encoded under (block size, scheme, p).
    top_values / top_indices:
        Stacked top-p data of every encoded vector (``"aabft"`` scheme).
    norms:
        Euclidean norms of every encoded vector (``"sea"`` scheme).
    """

    side: str
    data: np.ndarray
    checksums: np.ndarray
    layout: PartitionedLayout
    config: AbftConfig
    top_values: np.ndarray | None = None
    top_indices: np.ndarray | None = None
    norms: np.ndarray | None = None
    _tops_cache: list = field(default_factory=list, repr=False, compare=False)
    _array_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, int]:
        """The operand's shape."""
        return self.data.shape

    @property
    def padding(self) -> int:
        """Rows (side ``"a"``) or columns (side ``"b"``) the layout pads."""
        axis = 0 if self.side == "a" else 1
        return self.layout.data_rows - self.data.shape[axis]

    @property
    def inner_dim(self) -> int:
        """Length of the non-encoded (inner) axis."""
        return self.data.shape[1] if self.side == "a" else self.data.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The interleaved encoded matrix (``A_cc`` or ``B_rc``).

        Assembled on first access (a copy of the operand); the engine's
        multiply never needs it.
        """
        if not self._array_cache:
            self._array_cache.append(
                interleave_operand(
                    self.data, self.checksums, self.side, self.layout
                )
            )
        return self._array_cache[0]

    def tops(self) -> list[TopP]:
        """The top-p data as per-vector :class:`TopP` objects (cached)."""
        if self.top_values is None:
            raise ConfigurationError(
                f"operand was encoded for scheme {self.config.scheme!r} "
                "without top-p data"
            )
        if not self._tops_cache:
            self._tops_cache.extend(
                TopP(values=v, indices=i)
                for v, i in zip(self.top_values, self.top_indices)
            )
        return list(self._tops_cache)


def encode_operand(
    data: np.ndarray,
    side: str,
    config: AbftConfig,
    *,
    checksums: np.ndarray | None = None,
    pool=None,
) -> EncodedOperand:
    """Encode one operand: block checksums (unless given) and the scheme's
    top-p or norm data."""
    inner = data.shape[1] if side == "a" else data.shape[0]
    enc = fused_encode(
        data,
        side,
        config.block_size,
        p=config.top_p(inner) if config.scheme == "aabft" else None,
        norms=config.scheme in ("sea", "adaptive"),
        pool=pool,
        checksums=checksums,
    )
    return _handle(enc, config)


def _handle(enc: FusedEncodeResult, config: AbftConfig) -> EncodedOperand:
    """The :class:`EncodedOperand` of one encode result."""
    return EncodedOperand(
        side=enc.side,
        data=enc.data,
        checksums=enc.checksums,
        layout=enc.layout,
        config=config,
        top_values=enc.top_values,
        top_indices=enc.top_indices,
        norms=enc.norms,
    )


def _as_matrix(operand) -> np.ndarray:
    arr = np.asarray(operand)
    if arr.ndim != 2:
        raise ShapeError("operands must be 2-D matrices")
    return arr


def _resolve_dtype(*dtypes: np.dtype) -> np.dtype:
    """The computation dtype: float32 only when every operand is float32."""
    if all(np.dtype(d) == np.float32 for d in dtypes):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _is_low_precision(dtype: np.dtype) -> bool:
    """Whether ``dtype`` is a sub-float32 storage format (fp16/bf16)."""
    return np.dtype(dtype).name in LOW_PRECISION_NAMES


def _resolve_storage_compute(
    cfg: AbftConfig, *dtypes: np.dtype
) -> tuple[np.dtype, np.dtype]:
    """Resolve one call's ``(storage, compute)`` dtype pair.

    With ``cfg.dtype`` set it is authoritative: low-precision storage
    computes (GEMM + checksum accumulation) in float32, everything else
    computes in the storage dtype itself.  Without it the historical
    promotion rule applies — float32 only when every operand is float32,
    float64 otherwise — **except** that low-precision operands are
    refused with a :class:`~repro.errors.ConfigurationError` naming the
    fix, rather than silently upcast.
    """
    if cfg.dtype is not None:
        storage = format_for_name(cfg.dtype).dtype
        for d in dtypes:
            if _is_low_precision(d) and np.dtype(d) != storage:
                raise ConfigurationError(
                    f"operand dtype {np.dtype(d).name} conflicts with the "
                    f"config's storage dtype {cfg.dtype!r}; cast the "
                    "operand explicitly or change AbftConfig.dtype"
                )
        if _is_low_precision(storage):
            return storage, np.dtype(np.float32)
        return storage, storage
    for d in dtypes:
        if _is_low_precision(d):
            name = np.dtype(d).name
            raise ConfigurationError(
                f"operands of dtype {name} require an explicit "
                f"AbftConfig(dtype={name!r}, scheme='adaptive') so the "
                "check models low-precision quantisation noise; refusing "
                "to silently upcast"
            )
    compute = _resolve_dtype(*dtypes)
    return compute, compute


class MatmulEngine:
    """A session object executing ABFT-protected matrix multiplications.

    Parameters
    ----------
    config:
        Default :class:`~repro.engine.config.AbftConfig` for calls that do
        not pass their own.
    plan_cache_size:
        Maximum number of cached execution plans (LRU eviction beyond it).
    max_workers:
        Thread-pool width for :meth:`execute_batch`; defaults to the
        host's CPU count.  ``1`` forces sequential batched execution.
    registry:
        The :class:`~repro.telemetry.MetricsRegistry` the engine publishes
        its metrics to.  Defaults to a private registry per engine, which
        keeps :meth:`stats` engine-local; pass a shared registry (e.g.
        :func:`repro.telemetry.get_registry`) to fold the engine into a
        process-wide scrape — engines sharing a registry then share
        counters.

    The engine is thread-safe: the plan cache, workspace pools and metrics
    are lock-protected, and result objects are independent.
    """

    #: The three instrumented stages.
    STAGES = ("encode", "multiply", "check")

    def __init__(
        self,
        config: AbftConfig | None = None,
        *,
        plan_cache_size: int = 128,
        max_workers: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else AbftConfig()
        if not isinstance(self.config, AbftConfig):
            raise ConfigurationError(
                f"config must be an AbftConfig, got {type(self.config).__name__}"
            )
        self._plans = PlanCache(plan_cache_size)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._m_calls = reg.counter(
            "abft_engine_calls_total", "Completed protected multiplications"
        )
        self._m_batched = reg.counter(
            "abft_engine_batched_calls_total",
            "Batched submissions through execute_batch",
        )
        self._m_exec_mode = reg.counter(
            "abft_engine_execute_batch_total",
            "execute_batch submissions per resolved execution mode",
            ("mode",),
        )
        self._m_reuses = reg.counter(
            "abft_engine_encode_reuses_total",
            "Operands served from a pre-encoded handle",
        )
        self._m_detections = reg.counter(
            "abft_engine_detections_total",
            "Multiplications whose check flagged at least one comparison",
        )
        stage_seconds = reg.counter(
            "abft_engine_stage_seconds_total",
            "Accumulated wall seconds per engine stage",
            ("stage",),
        )
        stage_hist = reg.histogram(
            "abft_engine_stage_seconds",
            "Per-call wall seconds of each engine stage",
            ("stage",),
        )
        self._m_stage = {s: stage_seconds.labels(stage=s) for s in self.STAGES}
        self._h_stage = {s: stage_hist.labels(stage=s) for s in self.STAGES}
        self._g_plans = reg.gauge(
            "abft_engine_plan_cache",
            "Plan-cache accounting, refreshed on stats()",
            ("event",),
        )
        self._m_pipe_fallbacks = reg.counter(
            "abft_pipeline_fallbacks_total",
            "Batched execution-mode fallbacks by reason (never silent)",
            ("reason",),
        )
        # Bitwise-probe verdicts of the fused executor's stacked C GEMM,
        # keyed by (plan key, group width).
        self._stacked_ok: dict = {}
        self._stacked_lock = threading.Lock()
        # Chaos/test seam (see set_chaos_hook); None == no instrumentation.
        self._chaos_hook = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def matmul(self, a, b, *, config: AbftConfig | None = None) -> AbftResult:
        """One protected multiplication ``a @ b``.

        Either operand may be a raw matrix or an :class:`EncodedOperand`
        handle from :meth:`encode` (side ``"a"`` for the left, ``"b"`` for
        the right operand).
        """
        return self._run(a, b, self._resolve_config(config))

    def encode(
        self,
        operand,
        *,
        side: str = "a",
        config: AbftConfig | None = None,
        dtype: np.dtype | None = None,
    ) -> EncodedOperand:
        """Encode an operand once for reuse across many products.

        Parameters
        ----------
        operand:
            The raw matrix.
        side:
            ``"a"`` for a left operand (column checksums), ``"b"`` for a
            right operand (row checksums).
        config:
            Overrides the engine's default config.
        dtype:
            Forces the computation dtype.  By default a float32 operand is
            encoded in float32; pass ``np.float64`` when it will be paired
            with float64 operands (the mixed-precision promotion rule).

        The handle holds a read-only copy of the operand, so later changes
        to ``operand`` never reach products computed from the handle.
        """
        cfg = self._resolve_config(config)
        return self._encode(operand, side, cfg, dtype, snapshot=True)

    def _encode(
        self, operand, side: str, cfg: AbftConfig, dtype, *, snapshot: bool
    ) -> EncodedOperand:
        """Encode for reuse; ``snapshot=False`` lets the handle share the
        caller's memory (only for handles that never outlive the call)."""
        if side not in ("a", "b"):
            raise ConfigurationError(f"side must be 'a' or 'b', got {side!r}")
        arr = _as_matrix(operand)
        if dtype is None:
            _storage, dtype = _resolve_storage_compute(cfg, arr.dtype)
        if snapshot:
            arr = np.array(arr, dtype=np.dtype(dtype), copy=True)
            arr.flags.writeable = False
        else:
            arr = arr.astype(np.dtype(dtype), copy=False)
        t0 = time.perf_counter()
        encoded = encode_operand(arr, side, cfg)
        self._add_seconds("encode", time.perf_counter() - t0)
        return encoded

    def execute_batch(
        self,
        requests,
        *,
        policy: ExecutionPolicy | None = None,
        config: AbftConfig | None = None,
    ) -> list[AbftResult]:
        """Protected multiplications of many operand pairs under one policy.

        Parameters
        ----------
        requests:
            A sequence of ``(a, b)`` operand pairs.  Each operand may be a
            raw matrix or an :class:`EncodedOperand` handle.
        policy:
            The :class:`~repro.engine.policy.ExecutionPolicy` selecting the
            execution mode (``auto`` | ``serial`` | ``fused``).  Defaults
            to ``ExecutionPolicy()`` (mode ``auto``: ``fused`` whenever the
            batch meets its preconditions).
        config:
            Overrides the engine's default :class:`AbftConfig`.

        Results come back in request order and are **bitwise identical**
        to sequential :meth:`matmul` calls regardless of the mode chosen —
        modes only trade scheduling overhead against amortisation.  A
        requested ``fused`` mode whose preconditions the batch does not meet
        falls back to ``serial``, counted in
        ``abft_pipeline_fallbacks_total`` — never silent.
        """
        from .fused import fused_supported, run_fused

        cfg = self._resolve_config(config)
        if policy is None:
            policy = ExecutionPolicy()
        elif not isinstance(policy, ExecutionPolicy):
            raise ConfigurationError(
                f"policy must be an ExecutionPolicy, got "
                f"{type(policy).__name__}"
            )
        pairs = []
        for request in requests:
            pair = tuple(request) if not isinstance(request, tuple) else request
            if len(pair) != 2:
                raise ShapeError(
                    f"each request must be an (a, b) pair, got "
                    f"{len(pair)} operands"
                )
            pairs.append(pair)
        self._m_batched.inc()
        if not pairs:
            self._m_exec_mode.labels(mode="serial").inc()
            return []
        a_items = [a for a, _b in pairs]
        b_items = [b for _a, b in pairs]

        mode = policy.mode
        if mode != "serial" and not fused_supported(a_items, b_items, cfg):
            if mode == "fused":
                self._m_pipe_fallbacks.labels(reason="unsupported").inc()
            mode = "serial"
        elif mode == "auto":
            mode = "fused"
        self._m_exec_mode.labels(mode=mode).inc()
        if mode == "fused":
            return run_fused(self, a_items, b_items, cfg)
        return self._run_serial_batch(pairs, cfg)

    def set_chaos_hook(self, hook) -> None:
        """Install (or clear, with ``None``) the chaos/test-injection seam.

        The hook is invoked from whichever thread executes the work, as
        ``hook(event, *, c_fc=None)``:

        * ``event in ("encode", "multiply", "check")`` — fired when a
          stage completes, on every execution path (single call, serial
          and fused batches).  Sleeping here injects a stage stall; the
          stall is *not* charged to the stage timers, so the stage costs
          keep measuring real work.  Stage hooks must not raise.
        * ``event == "result"`` (``c_fc=<array>``) —
          fired once per product with the full-checksum matrix assembled
          from the side products; the engine copies the hook's in-place
          changes back into ``C``, ``R``, ``K`` and ``X`` before the
          check, so mutating ``c_fc`` emulates a kernel-level fault that
          the check stage must catch (changes to padding positions are
          dropped: they are no product's bytes).

        This is the seam :mod:`repro.chaos` drives; it exists so system-
        level fault campaigns never need to monkeypatch engine internals.
        """
        if hook is not None and not callable(hook):
            raise ConfigurationError(
                f"chaos hook must be callable or None, got "
                f"{type(hook).__name__}"
            )
        self._chaos_hook = hook

    def stats(self) -> EngineStats:
        """An immutable snapshot derived from the engine's registry metrics.

        Counts come straight from the registry counters (so the snapshot
        and a Prometheus scrape of :attr:`registry` always agree); the
        plan-cache gauges are refreshed as a side effect.
        """
        hits, misses, evictions = (
            self._plans.hits, self._plans.misses, self._plans.evictions,
        )
        self._g_plans.labels(event="hit").set(hits)
        self._g_plans.labels(event="miss").set(misses)
        self._g_plans.labels(event="eviction").set(evictions)
        self._g_plans.labels(event="cached").set(len(self._plans))
        return EngineStats(
            plan_hits=hits,
            plan_misses=misses,
            plan_evictions=evictions,
            calls=int(self._m_calls.get()),
            batched_calls=int(self._m_batched.get()),
            encode_reuses=int(self._m_reuses.get()),
            detections=int(self._m_detections.get()),
            encode_seconds=self._m_stage["encode"].get(),
            multiply_seconds=self._m_stage["multiply"].get(),
            check_seconds=self._m_stage["check"].get(),
            stage_costs=self._stage_costs(),
        )

    def reset_stats(self) -> None:
        """Zero the engine's metrics (cached plans are kept)."""
        for metric in (self._m_calls, self._m_batched, self._m_reuses,
                       self._m_detections, self._m_exec_mode,
                       self._m_pipe_fallbacks):
            metric.reset()
        for stage in self.STAGES:
            self._m_stage[stage].reset()
            self._h_stage[stage].reset()
        self._plans.hits = 0
        self._plans.misses = 0
        self._plans.evictions = 0

    def clear_plans(self) -> None:
        """Drop every cached execution plan."""
        self._plans.clear()

    @property
    def plan_cache_size(self) -> int:
        """Number of currently cached plans."""
        return len(self._plans)

    def close(self) -> None:
        """Shut the batching thread pool down (the engine stays usable)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "MatmulEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_config(self, config: AbftConfig | None) -> AbftConfig:
        if config is None:
            return self.config
        if not isinstance(config, AbftConfig):
            raise ConfigurationError(
                f"config must be an AbftConfig, got {type(config).__name__}"
            )
        return config

    def _get_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="abft-engine",
                )
            return self._executor

    def _add_seconds(self, stage: str, elapsed: float) -> None:
        self._m_stage[stage].inc(elapsed)
        self._h_stage[stage].observe(elapsed)
        hook = self._chaos_hook
        if hook is not None:
            # After the timers, so injected stalls never pollute the
            # measured stage costs.
            hook(stage)

    def _stage_costs(self) -> StageCosts:
        """The measured per-stage costs."""
        def cost(stage: str) -> StageCost:
            return StageCost(
                seconds=self._m_stage[stage].get(),
                observations=int(self._h_stage[stage].count),
            )

        return StageCosts(
            encode=cost("encode"),
            multiply=cost("multiply"),
            check=cost("check"),
        )

    def _run_serial_batch(self, pairs, cfg: AbftConfig) -> list[AbftResult]:
        """The ``serial`` execution mode: per-pair runs, thread-fanned.

        A raw operand appearing in several pairs is encoded once up front
        — but only when every pairing it participates in resolves to the
        same computation dtype, so results stay bitwise identical to
        sequential :meth:`matmul` calls.
        """
        a_items = [a for a, _b in pairs]
        b_items = [b for _a, b in pairs]
        # The id-dedup below predicts each pair's computation dtype with
        # the historical promotion rule; configs carrying an explicit
        # storage dtype resolve through _resolve_storage_compute instead,
        # so their operands encode inside _run (still once per call).
        sides = (
            ()
            if cfg.dtype is not None
            else (("a", a_items, b_items), ("b", b_items, a_items))
        )
        for side, items, others in sides:
            by_id: dict[int, list[int]] = {}
            for i, item in enumerate(items):
                if not isinstance(item, EncodedOperand):
                    by_id.setdefault(id(item), []).append(i)
            for indices in by_id.values():
                if len(indices) < 2:
                    continue
                pair_dtypes = {
                    _resolve_dtype(
                        _operand_dtype(items[i]), _operand_dtype(others[i])
                    )
                    for i in indices
                }
                if len(pair_dtypes) != 1:
                    continue
                handle = self._encode(
                    items[indices[0]], side, cfg, next(iter(pair_dtypes)),
                    snapshot=False,
                )
                for i in indices:
                    items[i] = handle
        pairs = list(zip(a_items, b_items))
        if self._max_workers > 1 and len(pairs) > 1:
            executor = self._get_executor()
            return list(
                executor.map(
                    lambda pair: self._run(pair[0], pair[1], cfg), pairs
                )
            )
        return [self._run(x, y, cfg) for x, y in pairs]

    def _check_handle(
        self, handle: EncodedOperand, side: str, cfg: AbftConfig, dtype: np.dtype
    ) -> None:
        if handle.side != side:
            raise ConfigurationError(
                f"operand encoded for side {handle.side!r} passed as "
                f"side {side!r}"
            )
        if handle.config.block_size != cfg.block_size:
            raise ConfigurationError(
                f"encoded operand uses block_size {handle.config.block_size}, "
                f"call requests {cfg.block_size}"
            )
        if handle.config.scheme != cfg.scheme:
            raise ConfigurationError(
                f"operand encoded for scheme {handle.config.scheme!r}, "
                f"call requests {cfg.scheme!r}"
            )
        if cfg.scheme == "aabft" and handle.config.p != cfg.p:
            raise ConfigurationError(
                f"operand encoded with p={handle.config.p}, call requests "
                f"p={cfg.p}"
            )
        if handle.dtype != dtype:
            raise ConfigurationError(
                f"operand encoded as {handle.dtype}, but the multiplication "
                f"resolves to {dtype}; re-encode with dtype={np.dtype(dtype).name}"
            )

    def _run(self, a, b, cfg: AbftConfig) -> AbftResult:
        # --- resolve the call signature's plan --------------------------
        a_raw = a if isinstance(a, EncodedOperand) else _as_matrix(a)
        b_raw = b if isinstance(b, EncodedOperand) else _as_matrix(b)
        plan = self._plan(cfg, a_raw.dtype, b_raw.dtype, a_raw.shape, b_raw.shape)
        storage_dtype = plan.storage_dtype
        quantize = storage_dtype != plan.dtype

        # --- encode (or reuse) ------------------------------------------
        t0 = time.perf_counter()
        enc_a, enc_b = self._encode_operands(a_raw, b_raw, cfg, plan)
        self._add_seconds("encode", time.perf_counter() - t0)
        provider = self._make_provider(cfg, plan, enc_a, enc_b)

        # --- multiply ---------------------------------------------------
        t0 = time.perf_counter()
        sp = side_products(
            enc_a.data, enc_a.checksums, enc_b.data, enc_b.checksums
        )
        self._result_hook(sp, plan)
        if quantize:
            # Simulate low-precision result storage: C round-trips through
            # the storage dtype (the checksum products stay in the compute
            # dtype — they accumulate in float32, per the mixed-precision
            # discipline), so the check below sees genuine storage
            # quantisation noise.
            sp.c[...] = sp.c.astype(storage_dtype)
        self._add_seconds("multiply", time.perf_counter() - t0)

        # --- check -------------------------------------------------------
        t0 = time.perf_counter()
        report = self._check(sp, plan, provider)
        self._add_seconds("check", time.perf_counter() - t0)

        # Lossless when quantised: C already round-tripped through the
        # storage dtype, so this cast only changes the container.
        c = sp.c.astype(storage_dtype) if quantize else sp.c
        self._m_calls.inc()
        if report.error_detected:
            self._m_detections.inc()
        return AbftResult(
            c=c,
            c_fc=None,
            report=report,
            row_layout=plan.row_layout,
            col_layout=plan.col_layout,
            provider=provider,
            products=sp,
        )

    def _encode_operands(
        self, a, b, cfg: AbftConfig, plan: ExecutionPlan
    ) -> tuple[EncodedOperand, EncodedOperand]:
        """Validated handles for both operands: reused, or freshly encoded.

        A small raw pair whose plan carries a joint search order is
        encoded in one top-p pass (bitwise the per-operand encodes).
        """
        dtype = plan.dtype
        if (
            plan.pair_order is not None
            and not isinstance(a, EncodedOperand)
            and not isinstance(b, EncodedOperand)
        ):
            enc_a, enc_b = fused_encode_pair(
                a.astype(dtype, copy=False),
                b.astype(dtype, copy=False),
                cfg.block_size,
                p=cfg.top_p(plan.n),
                order=plan.pair_order,
                pool=plan.pool,
            )
            return _handle(enc_a, cfg), _handle(enc_b, cfg)
        return (
            self._operand_handle(a, "a", cfg, plan, dtype),
            self._operand_handle(b, "b", cfg, plan, dtype),
        )

    def _operand_handle(
        self, operand, side: str, cfg: AbftConfig, plan: ExecutionPlan, dtype
    ) -> EncodedOperand:
        """A validated handle for one operand: reused, or freshly encoded."""
        if isinstance(operand, EncodedOperand):
            self._check_handle(operand, side, cfg, dtype)
            self._m_reuses.inc()
            return operand
        return encode_operand(
            operand.astype(dtype, copy=False), side, cfg, pool=plan.pool
        )

    def _plan(
        self, cfg: AbftConfig, a_dtype, b_dtype, a_shape, b_shape
    ) -> ExecutionPlan:
        """The execution plan of one call signature, built on a miss.

        The key holds everything dtype resolution and the plan depend on:
        both operand dtypes and shapes, and the config.
        """
        key = (a_dtype, b_dtype, a_shape, b_shape, cfg)
        plan, _hit = self._plans.get(
            key,
            lambda: self._build_plan(key, cfg, a_dtype, b_dtype, a_shape, b_shape),
        )
        return plan

    def _build_plan(
        self, key, cfg: AbftConfig, a_dtype, b_dtype, a_shape, b_shape
    ) -> ExecutionPlan:
        """Resolve dtypes and build the plan of one signature."""
        storage_dtype, dtype = _resolve_storage_compute(cfg, a_dtype, b_dtype)
        if a_shape[1] != b_shape[0]:
            raise ShapeError(
                f"inner dimensions disagree: A is {a_shape}, B is {b_shape}"
            )
        m, n = a_shape
        q = b_shape[1]
        plan = build_plan(m, n, q, dtype, cfg)
        plan.key = key
        plan.storage_dtype = storage_dtype
        return plan

    def _result_hook(self, sp: SideProducts, plan: ExecutionPlan) -> None:
        """Fire the ``result`` chaos event on the assembled ``C_fc``.

        The hook's in-place changes are copied back into ``C``, ``R``,
        ``K`` and ``X`` before the check reads them.
        """
        hook = self._chaos_hook
        if hook is None:
            return
        c_fc = assemble_full_checksum(sp, plan.row_layout, plan.col_layout)
        hook("result", c_fc=c_fc)
        scatter_full_checksum(c_fc, sp, plan.row_layout, plan.col_layout)

    def _make_provider(
        self,
        cfg: AbftConfig,
        plan: ExecutionPlan,
        enc_a: EncodedOperand,
        enc_b: EncodedOperand,
    ):
        if cfg.scheme == "aabft":
            # Array-native path: the stacked top-p data the operands already
            # carry feeds the vectorised grids directly; per-vector TopP
            # objects are only materialised if a scalar re-check asks.
            return AABFTEpsilonProvider.from_arrays(
                scheme=plan.scheme,
                row_values=enc_a.top_values,
                row_indices=enc_a.top_indices,
                col_values=enc_b.top_values,
                col_indices=enc_b.top_indices,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                inner_dim=plan.n,
                epsilon_floor=cfg.epsilon_floor,
            )
        if cfg.scheme in ("sea", "adaptive"):
            provider_cls = (
                SEAEpsilonProvider
                if cfg.scheme == "sea"
                else AdaptiveEpsilonProvider
            )
            return provider_cls(
                scheme=plan.scheme,
                a_row_norms=enc_a.norms,
                b_col_norms=enc_b.norms,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                inner_dim=plan.n,
            )
        return ConstantEpsilonProvider(float(cfg.fixed_epsilon))

    def _check(
        self, sp: SideProducts, plan: ExecutionPlan, provider
    ) -> CheckReport:
        """Vectorised full check; falls back to the scalar path when the
        provider has no array form."""
        eps = self._provider_grids(provider, plan)
        if eps is None:
            return check_partitioned(
                assemble_full_checksum(sp, plan.row_layout, plan.col_layout),
                plan.row_layout, plan.col_layout, provider,
            )
        disc = CheckGrids.empty(plan.row_layout, plan.col_layout)
        side_discrepancies(
            sp, plan.row_layout, plan.col_layout,
            col_out=disc.col, row_out=disc.row,
        )
        (report,) = check_reports(disc, eps, plan.row_layout, plan.col_layout)
        # Reports keep only the discrepancy grids (and scalar epsilons on
        # findings), so the tolerance buffer recycles.
        plan.pool.give(eps.buffer)
        return report

    def _provider_grids(self, provider, plan: ExecutionPlan):
        """The provider's tolerance :class:`CheckGrids`, or ``None``.

        ``pool=`` is offered first, with a TypeError fallback for
        third-party providers predating it; a grid pair that is not
        one buffer already is copied into one.
        """
        epsilon_grids = getattr(provider, "epsilon_grids", None)
        if epsilon_grids is None:
            return None
        try:
            grids = epsilon_grids(
                plan.row_layout, plan.col_layout, pool=plan.pool
            )
        except TypeError:
            grids = epsilon_grids(plan.row_layout, plan.col_layout)
        if grids is None or isinstance(grids, CheckGrids):
            return grids
        col_eps, row_eps = grids
        return CheckGrids.pack(col_eps, row_eps, plan.row_layout, plan.col_layout)


def _operand_dtype(operand) -> np.dtype:
    if isinstance(operand, EncodedOperand):
        return operand.dtype
    return np.asarray(operand).dtype


_default_engine: MatmulEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> MatmulEngine:
    """The module-level engine the classic matmul functions route through.

    Created lazily on first use; shared by every
    :func:`~repro.abft.multiply.aabft_matmul` /
    :func:`~repro.abft.multiply.sea_abft_matmul` /
    :func:`~repro.abft.multiply.fixed_abft_matmul` call, so repeated
    same-shape calls amortise their plans even through the classic API.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = MatmulEngine()
        return _default_engine
