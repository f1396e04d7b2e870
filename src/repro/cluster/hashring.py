"""Consistent-hash ring used by the cluster frontend for plan-key routing.

The ring maps *plan keys* — the (shape, dtype, config) identity of a
request — to worker shards so that repeated traffic for one plan
lands on the same worker, keeping its engine plan cache, workspace pools
and batch coalescing hot.  Virtual nodes smooth the key distribution;
the hash is :func:`hashlib.blake2b` over the key's ``repr`` so placement
is deterministic across runs and independent of ``PYTHONHASHSEED``.

:meth:`HashRing.preference` returns the full ordered walk of distinct
nodes starting at a key's position.  The frontend uses the walk (rather
than only the primary) for two things:

* **hot-key spill** — when the preferred shard is saturated past the
  configured load bound, the key spills to the next shard in its walk,
  so a single-plan workload still scales across the whole cluster while
  a mixed workload keeps per-shard affinity;
* **rehoming on worker death** — a dead shard is simply skipped in the
  walk; when it restarts, its keys return to it without any table
  rebuild (the ring itself never changes for restarts).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]


def _position(token: str) -> int:
    """Deterministic 64-bit ring position of a token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over hashable node identifiers.

    Parameters
    ----------
    nodes:
        Initial node identifiers (any object with a stable ``repr``).
    vnodes:
        Virtual nodes per real node; more vnodes = smoother key spread
        at the cost of a larger (still tiny) ring.
    """

    def __init__(self, nodes=(), *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._points: list[int] = []
        self._owners: dict[int, object] = {}
        self._nodes: list = []
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> tuple:
        """The registered nodes, in insertion order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node) -> None:
        """Register a node (idempotent for already-registered nodes)."""
        if node in self._nodes:
            return
        self._nodes.append(node)
        for replica in range(self._vnodes):
            point = _position(f"{node!r}#{replica}")
            # blake2b collisions across distinct tokens are effectively
            # impossible; skip rather than overwrite if one ever occurs.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node) -> None:
        """Unregister a node; its keys move to their next walk entry."""
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        stale = [p for p, owner in self._owners.items() if owner == node]
        for point in stale:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def preference(self, key) -> list:
        """Ordered distinct nodes for a key, walking clockwise from its
        position — ``preference(key)[0]`` is the primary owner."""
        if not self._nodes:
            return []
        start = bisect.bisect_right(self._points, _position(repr(key)))
        seen: list = []
        count = len(self._points)
        for step in range(count):
            owner = self._owners[self._points[(start + step) % count]]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self._nodes):
                    break
        return seen

    def node_for(self, key):
        """The primary owner of a key (``None`` on an empty ring)."""
        walk = self.preference(key)
        return walk[0] if walk else None
