"""Backend registry and capability negotiation.

The registry maps backend names to lazily constructed
:class:`~repro.backends.base.Backend` instances; :func:`negotiate` is the
selection policy the engine runs before every plan lookup:

1. a config pin (``AbftConfig(backend="...")``) wins outright;
2. else an ``AABFT_BACKEND`` environment pin;
3. else, for ``backend="auto"``, a persisted autotuner winner for the
   ``(shape, dtype, scheme)`` key;
4. else the ``numpy`` reference.

A candidate that is excluded, unknown, unavailable, capability-mismatched
or (for automatic selection) non-deterministic falls back to ``numpy`` —
**never silently**: the returned :class:`BackendSelection` carries the
fallback reason, the engine copies it onto the result and counts it in
``abft_backend_fallbacks_total``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from ..errors import ConfigurationError
from .base import Backend

__all__ = [
    "BackendRegistry",
    "BackendSelection",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "default_registry",
    "get_backend",
    "negotiate",
]

#: Environment variable pinning the default backend for ``"auto"`` configs.
ENV_BACKEND = "AABFT_BACKEND"

#: The terminal-fallback backend; always registered, always available.
DEFAULT_BACKEND = "numpy"


class BackendRegistry:
    """Thread-safe name -> backend map with lazy instantiation.

    Factories are registered up front (cheap); instances are built on
    first :meth:`get` and shared from then on, so expensive probes
    (imports, thread pools, self-checks) run at most once per registry.
    ``generation`` counts :meth:`register` calls; engines key their cached
    negotiations on it.
    """

    def __init__(self) -> None:
        self._factories: dict[str, object] = {}
        self._instances: dict[str, Backend] = {}
        self._lock = threading.RLock()
        self.generation = 0

    def register(self, name: str, factory, *, replace: bool = False) -> None:
        """Register a backend factory (a zero-arg callable)."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"backend name must be a non-empty str, got {name!r}")
        with self._lock:
            if name in self._factories and not replace:
                raise ConfigurationError(
                    f"backend {name!r} already registered (pass replace=True)"
                )
            self._factories[name] = factory
            self._instances.pop(name, None)
            self.generation += 1

    def names(self) -> list[str]:
        """Registered backend names in registration order."""
        with self._lock:
            return list(self._factories)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._factories

    def get(self, name: str) -> Backend:
        """The shared instance for ``name`` (built on first use)."""
        with self._lock:
            instance = self._instances.get(name)
            if instance is not None:
                return instance
            factory = self._factories.get(name)
            if factory is None:
                raise ConfigurationError(
                    f"unknown backend {name!r}; registered: {self.names()}"
                )
            instance = factory()
            if not isinstance(instance, Backend):
                raise ConfigurationError(
                    f"factory for {name!r} returned "
                    f"{type(instance).__name__}, not a Backend"
                )
            self._instances[name] = instance
            return instance

    def describe(self) -> list[dict]:
        """Capability/availability rows for ``aabft backends``."""
        rows = []
        for name in self.names():
            backend = self.get(name)
            caps = backend.capabilities()
            available, reason = backend.availability()
            rows.append(
                {
                    "name": name,
                    "available": available,
                    "reason": reason,
                    "dtypes": list(caps.dtypes),
                    "max_elements": caps.max_elements,
                    "deterministic": caps.deterministic,
                    "description": caps.description,
                }
            )
        return rows

    def close(self) -> None:
        """Close every built instance (registrations are kept)."""
        with self._lock:
            instances = list(self._instances.values())
        for backend in instances:
            backend.close()


@dataclass(frozen=True)
class BackendSelection:
    """Outcome of one capability negotiation.

    Attributes
    ----------
    backend:
        The concrete backend the call will dispatch through.
    tile:
        The plan's result-tile edge (``None`` = one full-result tile).
    source:
        Where the requested backend came from: ``"pinned"`` (config),
        ``"env"`` (``AABFT_BACKEND``), ``"autotuned"`` (cache winner) or
        ``"default"``.
    fallback_from / fallback_reason:
        Set when the requested backend was rejected and the selection
        fell back to ``numpy`` — the never-silent record.
    """

    backend: str
    tile: int | None
    source: str
    fallback_from: str | None = None
    fallback_reason: str | None = None


def _viability(
    registry: BackendRegistry,
    name: str,
    excluded: frozenset,
    dtype,
    m: int,
    n: int,
    q: int,
    *,
    require_deterministic: bool,
) -> str | None:
    """``None`` when the backend can serve the call, else the reason not."""
    if name in excluded:
        return "excluded by config"
    if name not in registry:
        return f"unknown backend {name!r}"
    backend = registry.get(name)
    available, reason = backend.availability()
    if not available:
        return reason or "unavailable"
    caps = backend.capabilities()
    if require_deterministic and not caps.deterministic:
        return "non-deterministic (must be pinned explicitly)"
    ok, reason = backend.supports(dtype, m, n, q)
    if not ok:
        return reason
    return None


def negotiate(
    config,
    m: int,
    n: int,
    q: int,
    dtype,
    *,
    registry: BackendRegistry | None = None,
    autotuner=None,
    environ=None,
) -> BackendSelection:
    """Select the backend and tile geometry for one multiplication.

    ``config`` is an :class:`~repro.engine.config.AbftConfig`; see the
    module docstring for the policy.  An explicit ``gemm_tile`` on the
    config always wins over an autotuned tile.
    """
    reg = registry if registry is not None else default_registry()
    env = os.environ if environ is None else environ
    excluded = frozenset(config.exclude_backends)
    tile = config.gemm_tile

    requested: str | None = None
    source = "default"
    require_deterministic = True
    if config.backend != "auto":
        requested, source = config.backend, "pinned"
        require_deterministic = False
    else:
        env_pin = env.get(ENV_BACKEND, "").strip()
        if env_pin and env_pin != "auto":
            requested, source = env_pin, "env"
            require_deterministic = False
        elif autotuner is not None:
            tuned = autotuner.lookup(m, n, q, dtype, config)
            if tuned is not None and tuned.backend != DEFAULT_BACKEND:
                requested, source = tuned.backend, "autotuned"
                if tile is None:
                    tile = tuned.tile

    if requested is None or requested == DEFAULT_BACKEND:
        return BackendSelection(
            backend=DEFAULT_BACKEND,
            tile=tile,
            source=source if requested is not None else "default",
        )
    reason = _viability(
        reg, requested, excluded, dtype, m, n, q,
        require_deterministic=require_deterministic,
    )
    if reason is None:
        return BackendSelection(backend=requested, tile=tile, source=source)
    return BackendSelection(
        backend=DEFAULT_BACKEND,
        tile=config.gemm_tile,  # an autotuned tile dies with its backend
        source=source,
        fallback_from=requested,
        fallback_reason=reason,
    )


_default_registry: BackendRegistry | None = None
_default_registry_lock = threading.Lock()


def default_registry() -> BackendRegistry:
    """The process-wide registry with the two shipped backends."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            from .blocked import BlockedBackend
            from .numpy_backend import NumpyBackend

            registry = BackendRegistry()
            registry.register("numpy", NumpyBackend)
            registry.register("blocked", BlockedBackend)
            _default_registry = registry
        return _default_registry


def get_backend(name: str) -> Backend:
    """Shorthand for ``default_registry().get(name)``."""
    return default_registry().get(name)
