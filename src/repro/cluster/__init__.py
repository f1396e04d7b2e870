"""Sharded multi-process serving cluster.

The cluster layer scales the serving layer past one process:
:class:`ClusterFrontend` routes protected-matmul traffic across N worker
processes (each a full :class:`~repro.serve.server.MatmulServer` +
:class:`~repro.engine.engine.MatmulEngine` stack) by consistent hash of
the plan key, so per-shard plan caches and micro-batching stay hot.
Operands cross the process boundary zero-copy through
``multiprocessing.shared_memory``, and a heartbeat supervisor extends
the A-ABFT recovery ladder to **process loss**: a dead worker's
in-flight requests are re-queued to survivors (never silently dropped)
and the worker is restarted with its plan keys rehomed.

Entry points: :class:`ClusterFrontend` (in-process API, also behind
``aabft cluster serve`` and ``aabft loadgen --cluster``) and
:class:`ClusterConfig`.
"""

from .config import ClusterConfig
from .frontend import ClusterFrontend
from .hashring import HashRing

__all__ = [
    "ClusterConfig",
    "ClusterFrontend",
    "HashRing",
]
