"""The ``blocked`` backend: tile-parallel protected GEMM on a thread pool.

Maps the paper's CUDA grid of ``BS x BS`` result blocks onto host worker
threads: the canonical tile list of
:func:`repro.kernels.matmul_tiled.plan_tiles` fans out over a
``ThreadPoolExecutor``, each worker computing its disjoint result tile
(through per-plan :class:`~repro.engine.plan.WorkspacePool` staging
buffers when the plan provides one).  numpy's matmul releases the GIL, so
tiles genuinely overlap on multi-core hosts.

Because workers execute the *same* per-tile BLAS calls as the serial
``numpy`` backend and their writes are disjoint, results are bitwise
identical to the serial order by construction.  A one-shot determinism
self-check (parallel vs serial bytes on a probe problem) guards that
invariant at runtime: if it ever fails on a host, the backend reports
itself unavailable instead of returning silently different bytes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..kernels.matmul_tiled import tiled_matmul
from .base import Backend, BackendCapabilities, BackendUnavailable

__all__ = ["BlockedBackend"]


class BlockedBackend(Backend):
    """Thread-pool execution of the canonical tile list.

    Parameters
    ----------
    max_workers:
        Worker-thread count; defaults to the host CPU count.
    """

    name = "blocked"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        # Reentrant: availability() holds the lock while the self-check
        # probe spins up the executor through _get_executor().
        self._lock = threading.RLock()
        self._self_check: tuple[bool, str | None] | None = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            dtypes=("float64", "float32"),
            max_elements=None,
            deterministic=True,
            description=(
                f"tile-parallel host BLAS over {self._max_workers} worker "
                f"thread{'s' if self._max_workers != 1 else ''} "
                "(paper's result-block grid)"
            ),
        )

    @property
    def max_workers(self) -> int:
        """Current worker-thread count."""
        return self._max_workers

    @max_workers.setter
    def max_workers(self, value: int) -> None:
        """Resize the pool; re-arms the determinism self-check.

        The cached self-check verdict describes one executor
        configuration — changing the worker count tears down the pool and
        clears the verdict so the next :meth:`availability` call re-probes
        the new configuration instead of trusting a stale one.
        """
        if value < 1:
            raise ValueError(f"max_workers must be >= 1, got {value}")
        with self._lock:
            if value == self._max_workers:
                return
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._max_workers = value
            self._self_check = None

    def availability(self) -> tuple[bool, str | None]:
        """Available once the determinism self-check has passed.

        The verdict is cached per executor configuration; resizing
        :attr:`max_workers` re-arms the probe.
        """
        with self._lock:
            if self._self_check is None:
                self._self_check = self._probe()
            return self._self_check

    def _probe(self) -> tuple[bool, str | None]:
        # Odd shapes force clipped edge tiles, the historically fragile
        # case; serial vs parallel must agree byte for byte.
        rng = np.random.default_rng(20140624)
        a = rng.standard_normal((96, 53))
        b = rng.standard_normal((53, 81))
        serial = tiled_matmul(a, b, tile=32)
        parallel = tiled_matmul(a, b, tile=32, executor=self._get_executor())
        if serial.tobytes() != parallel.tobytes():
            return False, (
                "determinism self-check failed: parallel tile execution is "
                "not bitwise-identical to the serial tile loop"
            )
        return True, None

    def _get_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="abft-blocked",
                )
            return self._executor

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        out: np.ndarray | None = None,
        tile: int | None = None,
        pool=None,
    ) -> np.ndarray:
        available, reason = self.availability()
        if not available:
            raise BackendUnavailable(reason)
        return tiled_matmul(
            a, b, tile=tile, out=out, pool=pool, executor=self._get_executor()
        )

    def close(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
