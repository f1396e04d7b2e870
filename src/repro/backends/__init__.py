"""Pluggable compute backends with capability negotiation and autotuning.

The engine's heavy GEMM stage dispatches through this subsystem instead
of a hard-wired ``a @ b``:

* :class:`Backend` / :class:`BackendCapabilities` — the execution
  contract and the capability descriptor negotiation consults;
* :class:`BackendRegistry` / :func:`negotiate` — name -> backend mapping
  and the selection policy (config pin > ``AABFT_BACKEND`` env pin >
  autotuned winner > ``numpy``), with a never-silent fallback to
  ``numpy`` recorded on results and in ``abft_backend_*`` telemetry;
* two shipped backends — :class:`NumpyBackend` (serial bitwise
  reference) and :class:`BlockedBackend` (tile-parallel thread-pool GEMM
  mapping the paper's CUDA result-block grid onto workers);
* :class:`Autotuner` / :class:`AutotuneCache` — per-``(shape, dtype,
  scheme)`` timing of candidate ``(backend, tile)`` configs with winners
  persisted on disk and fed into execution plans.

The load-bearing invariant: tile geometry is a *plan* property
(``AbftConfig.gemm_tile``), and every deterministic backend executes the
same canonical tile list (:func:`repro.kernels.matmul_tiled.plan_tiles`)
— so ``numpy`` and ``blocked`` results are bitwise identical by
construction, for every tile size, including clipped edge tiles.

Example
-------
>>> import numpy as np
>>> from repro.backends import get_backend
>>> a = np.ones((8, 4)); b = np.ones((4, 6))
>>> serial = get_backend("numpy").matmul(a, b, tile=3)
>>> parallel = get_backend("blocked").matmul(a, b, tile=3)
>>> bool((serial == parallel).all())
True
"""

from .autotune import (
    ENV_AUTOTUNE_CACHE,
    Autotuner,
    AutotuneCache,
    TunedChoice,
    default_cache_path,
)
from .base import Backend, BackendCapabilities, BackendUnavailable
from .blocked import BlockedBackend
from .numpy_backend import NumpyBackend
from .registry import (
    DEFAULT_BACKEND,
    ENV_BACKEND,
    BackendRegistry,
    BackendSelection,
    default_registry,
    get_backend,
    negotiate,
)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendRegistry",
    "BackendSelection",
    "BackendUnavailable",
    "BlockedBackend",
    "NumpyBackend",
    "Autotuner",
    "AutotuneCache",
    "TunedChoice",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "ENV_AUTOTUNE_CACHE",
    "default_cache_path",
    "default_registry",
    "get_backend",
    "negotiate",
]
