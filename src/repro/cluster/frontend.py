"""The sharded multi-process serving front-end.

:class:`ClusterFrontend` fans protected-matmul traffic out across N
worker processes, each running its own
:class:`~repro.serve.server.MatmulServer` +
:class:`~repro.engine.engine.MatmulEngine` (see
:mod:`repro.cluster.worker`).  It presents the same ``submit()`` /
``stop()`` / ``registry`` surface as a single-process server, so the load
generator, the chaos harness and the CLI drive it unchanged.

Routing
    Requests route by consistent hash of their **plan key** — operand
    shapes, dtypes and config — so repeated traffic for one
    plan lands on the same shard and keeps its plan cache, workspace
    pools and micro-batch coalescing hot.  The ring walk is
    load-bounded: a key spills past a shard holding
    ``spill_queue_depth`` or more outstanding requests, so a hot
    single-plan workload still scales across the whole cluster.  Only
    when every live shard is at ``max_shard_inflight`` is a submission
    rejected (reason ``"queue_full"`` — the same explicit backpressure
    contract as the single-process server).

Worker death
    A supervisor thread watches process liveness and heartbeats.  When a
    shard dies, its response stream is drained, every still-unresolved
    request is **re-queued** to surviving shards — counted in
    ``abft_cluster_requeued_total`` and stamped on
    :attr:`~repro.serve.request.MatmulResponse.requeues`, never silently
    dropped — and the worker is restarted (bounded by ``max_restarts``).
    The hash ring never changes across restarts, so the shard's plan
    keys rehome to it the moment the replacement is live.

Accounting
    Worker-process metric registries die with their process, so the
    frontend **mirrors** the ``abft_serve_*`` counter families into its
    own registry from the responses it actually delivers.  The mirror is
    loss-proof by construction — it moves exactly when a future
    resolves — which is what lets
    :func:`~repro.serve.loadgen.reconcile_counters` balance the books
    across shards even with a worker killed mid-run.

The frontend accepts **raw ndarray** operands (not
:class:`~repro.engine.engine.EncodedOperand` handles, which are bound to
one engine's plan cache in one process).  Operands of
``shm_min_bytes`` or more cross the process boundary via
``multiprocessing.shared_memory`` (see :mod:`repro.cluster.transport`);
smaller ones ride the envelope pickle.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..serve.request import MatmulResponse, VerificationStatus
from ..telemetry import MetricsRegistry, get_registry
from .config import ClusterConfig
from .hashring import HashRing
from .transport import OperandPublisher
from .worker import worker_main

__all__ = ["ClusterFrontend"]

#: Minimum grace period before a worker that has not heartbeaten *yet* is
#: declared dead — covers interpreter start-up under ``spawn``.
BOOT_GRACE_S = 5.0


@dataclass
class _Pending:
    """One admitted request the cluster has not resolved yet."""

    seq: int
    future: Future
    request_id: str
    payload_a: tuple
    payload_b: tuple
    config: object
    deadline_s: float | None
    key: tuple
    shard: int | None = None
    incarnation: int = 0
    requeues: int = 0


@dataclass
class _Shard:
    """Frontend-side state of one worker slot."""

    id: int
    incarnation: int = 0
    process: object = None
    request_q: object = None
    response_q: object = None
    collector: threading.Thread | None = None
    closed: threading.Event = field(default_factory=threading.Event)
    alive: bool = False
    booted: bool = False
    last_hb: float = 0.0
    restarts: int = 0
    outstanding: int = 0


class ClusterFrontend:
    """Routes requests across supervised worker processes.

    Parameters
    ----------
    config:
        The :class:`~repro.cluster.config.ClusterConfig`; defaults apply.
    registry:
        Target :class:`~repro.telemetry.MetricsRegistry` for the
        ``abft_cluster_*`` metrics and the mirrored ``abft_serve_*``
        counters; defaults to the process-wide registry.
    clock:
        Monotonic time source (injectable for deterministic supervision
        tests).

    Workers spawn eagerly in the constructor; :meth:`submit` may be
    called from any number of threads.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        if not isinstance(self.config, ClusterConfig):
            raise TypeError(
                f"config must be a ClusterConfig, got "
                f"{type(self.config).__name__}"
            )
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock
        self._ctx = mp.get_context(self.config.start_method)
        self._ring = HashRing(
            range(self.config.num_workers), vnodes=self.config.vnodes
        )
        self._lock = threading.RLock()
        self._pending: dict[int, _Pending] = {}
        self._seq = 0
        self._accepting = True
        self._stopped = False

        reg = self.registry
        # Mirrored abft_serve_* families (declarations must match
        # MatmulServer's so both can share one registry).
        self._m_requests = reg.counter(
            "abft_serve_requests_total",
            "Requests by final outcome (completed / rejected)",
            ("outcome",),
        )
        self._m_rejections = reg.counter(
            "abft_serve_rejections_total",
            "Explicitly rejected requests by reason",
            ("reason",),
        )
        self._m_degradations = reg.counter(
            "abft_serve_degradations_total",
            "Responses served below full protection, by ladder rung",
            ("rung",),
        )
        self._m_retries = reg.counter(
            "abft_serve_retries_total",
            "Detected-error recoveries by kind (corrected / recomputed)",
            ("kind",),
        )
        self._m_detections = reg.counter(
            "abft_serve_detections_total",
            "Served batches' results whose initial check flagged an error",
        )
        self._m_dropped = reg.counter(
            "abft_serve_dropped_total",
            "Requests that died without a response (must stay 0)",
        )
        # Cluster-native metrics.
        self._m_routing = reg.counter(
            "abft_cluster_routing_total",
            "Routing decisions by outcome (primary / spilled / rerouted)",
            ("outcome",),
        )
        self._m_requeued = reg.counter(
            "abft_cluster_requeued_total",
            "In-flight requests re-queued to another shard after worker death",
        )
        self._m_restarts = reg.counter(
            "abft_cluster_worker_restarts_total",
            "Worker process restarts after a detected death",
            ("shard",),
        )
        self._m_transfers = reg.counter(
            "abft_cluster_operand_transfers_total",
            "Operand transfers by mode (shm / inline)",
            ("mode",),
        )
        self._g_shard_depth = reg.gauge(
            "abft_cluster_shard_queue_depth",
            "Worker admission-queue depth, from its latest heartbeat",
            ("shard",),
        )
        self._g_inflight = reg.gauge(
            "abft_cluster_shard_inflight",
            "Requests outstanding per shard (frontend view)",
            ("shard",),
        )
        self._g_alive = reg.gauge(
            "abft_cluster_workers_alive", "Live worker processes"
        )
        self._g_pending = reg.gauge(
            "abft_cluster_pending", "Unresolved requests across the cluster"
        )

        self._publisher = OperandPublisher(
            self.config.shm_min_bytes, metrics=self._m_transfers
        )
        self._shards = [_Shard(i) for i in range(self.config.num_workers)]
        with self._lock:
            for shard in self._shards:
                self._spawn_locked(shard)
        self._g_alive.set(len(self._shards))
        self._mon_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(
        self,
        a,
        b,
        *,
        config=None,
        deadline_s: float | None = None,
        request_id: str | None = None,
    ) -> Future:
        """Submit one multiplication; returns a future of the response.

        Same contract as :meth:`MatmulServer.submit
        <repro.serve.server.MatmulServer.submit>`: never blocks, never
        raises for capacity — over-capacity, post-shutdown and
        no-live-worker submissions resolve immediately to a ``REJECTED``
        response with an explicit reason.  Operands must be raw arrays
        (per-engine :class:`~repro.engine.engine.EncodedOperand` handles
        cannot cross the process boundary).
        """
        fut: Future = Future()
        a = np.asarray(a)
        b = np.asarray(b)
        with self._lock:
            self._seq += 1
            seq = self._seq
        rid = request_id if request_id is not None else f"c{seq}"
        key = (a.shape, b.shape, str(a.dtype), str(b.dtype), config)
        payload_a = self._publisher.publish(a)
        payload_b = self._publisher.publish(b)
        pending = _Pending(
            seq=seq,
            future=fut,
            request_id=rid,
            payload_a=payload_a,
            payload_b=payload_b,
            config=config,
            deadline_s=deadline_s,
            key=key,
        )
        with self._lock:
            if not self._accepting:
                self._drop_payloads(pending)
                self._reject(fut, rid, "shutdown")
                return fut
            shard, outcome = self._route_locked(key)
            if shard is None:
                self._drop_payloads(pending)
                self._reject(fut, rid, outcome)
                return fut
            self._pending[seq] = pending
            self._g_pending.set(len(self._pending))
            self._m_routing.labels(outcome=outcome).inc()
            self._dispatch_locked(pending, shard)
        return fut

    def kill_worker(self, shard: int | None = None) -> int | None:
        """SIGKILL one live worker process (chaos entry point).

        Kills the given shard, or the live shard with the most
        outstanding work when unspecified — the supervisor is left to
        *detect* the death, exactly as for a real crash.  Returns the
        killed shard id, or ``None`` if no worker is alive.
        """
        with self._lock:
            candidates = [
                s
                for s in self._shards
                if s.alive and s.process is not None and s.process.is_alive()
            ]
            if shard is not None:
                candidates = [s for s in candidates if s.id == shard]
            if not candidates:
                return None
            victim = max(candidates, key=lambda s: s.outstanding)
        victim.process.kill()
        return victim.id

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker has sent its first heartbeat.

        Spawned interpreters take a moment to boot; traffic submitted
        before then just queues in the worker pipes, but
        latency-sensitive callers (the chaos harness's SLO clock, the
        throughput benchmark) want a warm cluster before the first
        request.  Raises :class:`TimeoutError` on expiry.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                live = [s for s in self._shards if s.alive]
                if live and all(s.booted for s in live):
                    return
            time.sleep(0.01)
        raise TimeoutError(f"cluster workers not ready within {timeout:g}s")

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for s in self._shards if s.alive)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def total_restarts(self) -> int:
        with self._lock:
            return sum(s.restarts for s in self._shards)

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the cluster.

        New submissions are rejected (reason ``"shutdown"``) immediately.
        With ``drain=True`` (default) in-flight work is awaited up to
        ``timeout`` (default ``config.drain_timeout_s``); anything still
        unresolved afterwards resolves as rejected with reason
        ``"shutdown"`` — never silently dropped.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._lock:
            if self._stopped:
                return
            self._accepting = False
        if drain:
            self._await_pending(timeout)
        self._mon_stop.set()
        self._monitor.join(timeout=2.0)
        with self._lock:
            self._stopped = True
            shards = list(self._shards)
        for shard in shards:
            if shard.process is not None and shard.process.is_alive():
                try:
                    shard.request_q.put(None)
                except Exception:
                    pass
        for shard in shards:
            if shard.process is not None:
                shard.process.join(timeout=max(timeout, 1.0) if drain else 1.0)
                if shard.process.is_alive():
                    shard.process.kill()
                    shard.process.join(timeout=1.0)
        # Workers flush their final responses while draining; give the
        # collectors a moment to deliver them before cutting them off.
        if drain:
            self._await_pending(min(timeout, 2.0))
        for shard in shards:
            shard.closed.set()
            if shard.collector is not None:
                shard.collector.join(timeout=2.0)
            shard.alive = False
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._g_pending.set(0)
        for pending in leftovers:
            self._drop_payloads(pending)
            self._reject(pending.future, pending.request_id, "shutdown")
        self._publisher.close()
        self._g_alive.set(0)
        for shard in shards:
            for q in (shard.request_q, shard.response_q):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass

    def __enter__(self) -> "ClusterFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_locked(self, shard: _Shard) -> None:
        shard.incarnation += 1
        shard.request_q = self._ctx.Queue()
        shard.response_q = self._ctx.Queue()
        shard.closed = threading.Event()
        shard.process = self._ctx.Process(
            target=worker_main,
            args=(
                shard.id,
                shard.incarnation,
                self.config,
                shard.request_q,
                shard.response_q,
            ),
            name=f"aabft-cluster-w{shard.id}",
            daemon=True,
        )
        shard.process.start()
        shard.last_hb = self._clock()
        shard.booted = False
        shard.alive = True
        shard.outstanding = 0
        self._g_inflight.labels(shard=str(shard.id)).set(0)
        shard.collector = threading.Thread(
            target=self._collect,
            args=(shard.id, shard.incarnation, shard.response_q, shard.closed),
            name=f"cluster-collect-{shard.id}.{shard.incarnation}",
            daemon=True,
        )
        shard.collector.start()

    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        timeout = self.config.heartbeat_timeout_s
        while not self._mon_stop.wait(interval):
            now = self._clock()
            dead: list[_Shard] = []
            with self._lock:
                if self._stopped:
                    return
                for shard in self._shards:
                    if not shard.alive:
                        continue
                    process_dead = (
                        shard.process is not None
                        and not shard.process.is_alive()
                    )
                    grace = (
                        timeout if shard.booted else max(timeout, BOOT_GRACE_S)
                    )
                    if process_dead or now - shard.last_hb > grace:
                        dead.append(shard)
            for shard in dead:
                self._handle_death(shard)
            with self._lock:
                self._g_alive.set(sum(1 for s in self._shards if s.alive))

    def _handle_death(self, shard: _Shard) -> None:
        """Recover from one dead worker: drain, requeue, restart."""
        with self._lock:
            if not shard.alive or self._stopped:
                return
            shard.alive = False
            incarnation = shard.incarnation
            closed = shard.closed
            collector = shard.collector
            request_q, response_q = shard.request_q, shard.response_q
        try:
            shard.process.kill()
            shard.process.join(timeout=2.0)
        except Exception:
            pass
        # The dead incarnation's request-queue feeder may be blocked on a
        # pipe nobody reads any more; detach it or interpreter exit hangs
        # joining it.
        try:
            request_q.close()
            request_q.cancel_join_thread()
        except Exception:
            pass
        # Drain whatever the worker managed to ship before dying — those
        # requests resolve normally and must not be re-executed.
        closed.set()
        if collector is not None:
            collector.join(timeout=2.0)
        try:
            response_q.close()
            response_q.cancel_join_thread()
        except Exception:
            pass
        with self._lock:
            orphans = [
                p
                for p in self._pending.values()
                if p.shard == shard.id and p.incarnation == incarnation
            ]
        restart = (
            self.config.restart_workers
            and shard.restarts < self.config.max_restarts
        )
        parked: list[_Pending] = []
        for pending in orphans:
            self._m_requeued.inc()
            pending.requeues += 1
            with self._lock:
                if pending.seq not in self._pending:
                    continue
                target, _ = self._route_locked(pending.key)
                if target is None:
                    # Don't bounce already-admitted work off transient
                    # saturation: take the least-loaded survivor.
                    live = [s for s in self._shards if s.alive]
                    if live:
                        target = min(live, key=lambda s: s.outstanding)
                if target is not None:
                    self._dispatch_locked(pending, target)
                    continue
            if restart:
                parked.append(pending)
            else:
                with self._lock:
                    self._pending.pop(pending.seq, None)
                    self._g_pending.set(len(self._pending))
                self._drop_payloads(pending)
                self._reject(pending.future, pending.request_id, "worker_lost")
        if restart:
            with self._lock:
                shard.restarts += 1
                self._spawn_locked(shard)
                for pending in parked:
                    self._dispatch_locked(pending, shard)
            self._m_restarts.labels(shard=str(shard.id)).inc()

    # ------------------------------------------------------------------
    # routing / dispatch
    # ------------------------------------------------------------------
    def _route_locked(self, key) -> tuple[_Shard | None, str]:
        """The shard for a key, plus the routing (or rejection) outcome."""
        walk = self._ring.preference(key)
        live = [self._shards[s] for s in walk if self._shards[s].alive]
        if not live:
            return None, "no_live_workers"
        chosen = None
        for shard in live:
            if shard.outstanding < self.config.spill_queue_depth:
                chosen = shard
                break
        if chosen is None:
            candidate = min(live, key=lambda s: s.outstanding)
            if candidate.outstanding < self.config.max_shard_inflight:
                chosen = candidate
        if chosen is None:
            return None, "queue_full"
        preferred = self._shards[walk[0]]
        if not preferred.alive:
            outcome = "rerouted"
        elif chosen is preferred:
            outcome = "primary"
        else:
            outcome = "spilled"
        return chosen, outcome

    def _dispatch_locked(self, pending: _Pending, shard: _Shard) -> None:
        pending.shard = shard.id
        pending.incarnation = shard.incarnation
        shard.outstanding += 1
        self._g_inflight.labels(shard=str(shard.id)).set(shard.outstanding)
        shard.request_q.put(
            (
                "req",
                pending.seq,
                pending.request_id,
                pending.payload_a,
                pending.payload_b,
                pending.config,
                pending.deadline_s,
            )
        )

    # ------------------------------------------------------------------
    # response collection
    # ------------------------------------------------------------------
    def _collect(
        self, shard_id: int, incarnation: int, response_q, closed
    ) -> None:
        """Drain one worker incarnation's response queue until closed."""
        while True:
            try:
                item = response_q.get(timeout=0.1)
            except _queue.Empty:
                if closed.is_set():
                    return
                continue
            except (EOFError, OSError):
                return
            except Exception:
                # A SIGKILL mid-put can corrupt the stream; anything the
                # worker did not finish shipping gets requeued anyway.
                if closed.is_set():
                    return
                continue
            kind = item[0]
            if kind == "hb":
                _, sid, inc, info = item
                with self._lock:
                    shard = self._shards[sid]
                    if shard.incarnation == inc:
                        shard.last_hb = self._clock()
                        shard.booted = True
                self._g_shard_depth.labels(shard=str(sid)).set(
                    info.get("queue_depth", 0)
                )
            elif kind == "res":
                self._resolve(item[1], item[2])
            elif kind == "err":
                self._resolve_error(item[1], item[2])
            # "bye": nothing to do — liveness is tracked by the process.

    def _take_pending(self, seq: int) -> _Pending | None:
        with self._lock:
            pending = self._pending.pop(seq, None)
            if pending is None:
                return None
            shard = self._shards[pending.shard]
            if (
                shard.incarnation == pending.incarnation
                and shard.outstanding > 0
            ):
                shard.outstanding -= 1
                self._g_inflight.labels(shard=str(shard.id)).set(
                    shard.outstanding
                )
            self._g_pending.set(len(self._pending))
            return pending

    def _resolve(self, seq: int, response: MatmulResponse) -> None:
        pending = self._take_pending(seq)
        if pending is None:
            return  # late duplicate after a requeue — first answer won
        self._drop_payloads(pending)
        response.requeues = pending.requeues
        self._mirror(response)
        pending.future.set_result(response)

    def _resolve_error(self, seq: int, message: str) -> None:
        pending = self._take_pending(seq)
        if pending is None:
            return
        self._drop_payloads(pending)
        self._m_dropped.inc()
        pending.future.set_exception(
            RuntimeError(f"cluster request failed in worker: {message}")
        )

    def _drop_payloads(self, pending: _Pending) -> None:
        self._publisher.release(pending.payload_a)
        self._publisher.release(pending.payload_b)

    def _mirror(self, response: MatmulResponse) -> None:
        """Replicate one response's abft_serve_* counter movement locally."""
        if response.status is VerificationStatus.REJECTED:
            self._m_requests.labels(outcome="rejected").inc()
            self._m_rejections.labels(
                reason=response.rejected_reason or "unknown"
            ).inc()
            return
        self._m_requests.labels(outcome="completed").inc()
        if response.status is VerificationStatus.UNCHECKED:
            self._m_degradations.labels(rung="unchecked").inc()
        elif response.status is VerificationStatus.DEGRADED:
            self._m_degradations.labels(
                rung=response.scheme or "degraded"
            ).inc()
        detections = (
            int(bool(response.detected))
            + int(bool(response.corrected))
            + int(bool(response.recomputed))
        )
        if detections:
            self._m_detections.inc(detections)
        if response.corrected:
            self._m_retries.labels(kind="corrected").inc()
        if response.retries:
            self._m_retries.labels(kind="recomputed").inc(response.retries)

    def _reject(self, fut: Future, request_id: str, reason: str) -> None:
        self._m_rejections.labels(reason=reason).inc()
        self._m_requests.labels(outcome="rejected").inc()
        fut.set_result(
            MatmulResponse(
                request_id=request_id,
                status=VerificationStatus.REJECTED,
                rejected_reason=reason,
            )
        )

    def _await_pending(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending:
                    return
            time.sleep(0.005)
