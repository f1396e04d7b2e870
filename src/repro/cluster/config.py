"""Configuration of the multi-process serving cluster.

:class:`ClusterConfig` bundles the cluster-level knobs — shard count,
routing load bounds, shared-memory transfer threshold, heartbeat
supervision and restart policy — alongside the per-worker
:class:`~repro.serve.config.ServeConfig` every shard runs with, mirroring
how :class:`~repro.serve.config.ServeConfig` wraps the engine's
:class:`~repro.engine.config.AbftConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace

from ..errors import ConfigurationError
from ..serve.config import ServeConfig

__all__ = ["ClusterConfig"]

#: Operands at or above this many bytes travel via
#: ``multiprocessing.shared_memory`` instead of being pickled through the
#: request pipe (one memcpy into the segment, zero-copy view on the
#: worker side).
DEFAULT_SHM_MIN_BYTES = 64 * 1024


@dataclass(frozen=True)
class ClusterConfig:
    """Every knob of :class:`~repro.cluster.frontend.ClusterFrontend`.

    Attributes
    ----------
    serve:
        The :class:`~repro.serve.config.ServeConfig` each worker's
        in-process :class:`~repro.serve.server.MatmulServer` runs with.
    num_workers:
        Worker processes (shards) the frontend supervises.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring.
    max_shard_inflight:
        Bound on requests outstanding per shard.  When every shard in a
        key's ring walk is at the bound, the submission is rejected with
        reason ``"queue_full"`` (the same explicit backpressure contract
        as the single-process server).
    spill_queue_depth:
        Load bound of the routing walk: a key spills past its preferred
        shard while that shard has at least this many requests
        outstanding.  Affinity for mixed workloads, scale-out for hot
        single-plan workloads.
    shm_min_bytes:
        Minimum operand size (bytes) transferred via
        ``multiprocessing.shared_memory``; smaller operands are pickled
        through the request pipe (cheaper than a segment per tiny array).
    heartbeat_interval_s:
        How often workers report liveness (plus their serve-counter
        snapshot and queue depth) and how often the supervisor checks.
    heartbeat_timeout_s:
        A worker whose last heartbeat is older than this is declared dead
        even if its process object still reports alive (hung worker).
    restart_workers:
        Restart dead workers (up to ``max_restarts`` per shard).  The
        shard keeps its ring position, so its plan keys rehome to it as
        soon as the replacement is live.
    max_restarts:
        Restart budget per shard; a shard past the budget stays down and
        its keys route to survivors permanently.
    start_method:
        ``multiprocessing`` start method for workers (``"spawn"`` by
        default: safe in threaded parents, identical cross-platform).
    drain_timeout_s:
        How long :meth:`~repro.cluster.frontend.ClusterFrontend.stop`
        waits for in-flight requests when draining.
    """

    serve: ServeConfig = field(default_factory=ServeConfig)
    num_workers: int = 2
    vnodes: int = 64
    max_shard_inflight: int = 512
    spill_queue_depth: int = 64
    shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 2.0
    restart_workers: bool = True
    max_restarts: int = 8
    start_method: str = "spawn"
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.serve, ServeConfig):
            raise ConfigurationError(
                f"serve must be a ServeConfig, got {type(self.serve).__name__}"
            )
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.max_shard_inflight < 1:
            raise ConfigurationError(
                f"max_shard_inflight must be >= 1, got {self.max_shard_inflight}"
            )
        if not 1 <= self.spill_queue_depth <= self.max_shard_inflight:
            raise ConfigurationError(
                f"spill_queue_depth must lie in [1, max_shard_inflight="
                f"{self.max_shard_inflight}], got {self.spill_queue_depth}"
            )
        if self.shm_min_bytes < 0:
            raise ConfigurationError(
                f"shm_min_bytes must be >= 0, got {self.shm_min_bytes}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be positive, got "
                f"{self.heartbeat_interval_s}"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ConfigurationError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s, got "
                f"{self.heartbeat_timeout_s} <= {self.heartbeat_interval_s}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigurationError(
                f"start_method must be spawn/fork/forkserver, got "
                f"{self.start_method!r}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )

    def replace(self, **changes) -> "ClusterConfig":
        """A copy with the given fields replaced (validated again)."""
        return _dc_replace(self, **changes)
