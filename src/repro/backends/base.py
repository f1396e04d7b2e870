"""Backend abstraction: capabilities and the execution contract.

A compute backend executes the heavy GEMM stage of a protected
multiplication over the *canonical tile list* of
:func:`repro.kernels.matmul_tiled.plan_tiles`.  The tile geometry belongs
to the execution plan, not to the backend: every backend runs the same
per-tile BLAS calls and only chooses an execution *strategy* (serial,
thread pool, device), so deterministic backends are bitwise
interchangeable by construction.

Each backend publishes a :class:`BackendCapabilities` descriptor the
negotiation layer (:func:`repro.backends.registry.negotiate`) consults
before dispatching: supported dtypes, a result-size ceiling, and whether
its results are bitwise-deterministic against the canonical tile loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["Backend", "BackendCapabilities", "BackendUnavailable"]


class BackendUnavailable(RuntimeError):
    """A backend was asked to execute but cannot (missing dependency,
    no device, failed self-check).  The engine catches this — like any
    dispatch-time backend failure — and walks the never-silent fallback
    to ``numpy``."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can do; consulted during capability negotiation.

    Attributes
    ----------
    name:
        The backend's registry name.
    dtypes:
        Numpy dtype names the backend computes in.
    max_elements:
        Ceiling on result elements (``m * q``); ``None`` = unlimited.
    deterministic:
        Whether results are bitwise identical to the canonical serial
        tile loop.  Automatic selection ("auto") only ever picks
        deterministic backends; non-deterministic ones must be pinned
        explicitly.
    description:
        One line for ``aabft backends``.
    """

    name: str
    dtypes: tuple[str, ...] = ("float64", "float32")
    max_elements: int | None = None
    deterministic: bool = True
    description: str = ""

    def supports_dtype(self, dtype) -> bool:
        """Whether the backend computes in the given dtype."""
        return np.dtype(dtype).name in self.dtypes


class Backend(abc.ABC):
    """The execution contract every compute backend implements.

    Subclasses implement :meth:`capabilities` and :meth:`matmul`;
    :meth:`availability` and :meth:`supports` have sensible defaults.
    Instances are shared and must be thread-safe.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """The backend's static capability descriptor."""

    def availability(self) -> tuple[bool, str | None]:
        """``(available, reason)`` — reason explains unavailability.

        Called at negotiation time; expensive probes (imports, device
        discovery, determinism self-checks) should run once and cache.
        """
        return True, None

    def supports(
        self, dtype, m: int, n: int, q: int
    ) -> tuple[bool, str | None]:
        """Capability check for one ``(m, n) @ (n, q)`` multiplication."""
        caps = self.capabilities()
        if not caps.supports_dtype(dtype):
            return False, (
                f"dtype {np.dtype(dtype).name} unsupported "
                f"(accepts {', '.join(caps.dtypes)})"
            )
        if caps.max_elements is not None and m * q > caps.max_elements:
            return False, (
                f"result {m}x{q} exceeds max_elements {caps.max_elements}"
            )
        return True, None

    @abc.abstractmethod
    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        out: np.ndarray | None = None,
        tile: int | None = None,
        pool=None,
    ) -> np.ndarray:
        """Execute ``a @ b`` over the canonical tile list.

        ``tile`` and ``pool`` come from the execution plan; a backend
        that cannot run raises :class:`BackendUnavailable` (the engine
        falls back to ``numpy`` and records it).
        """

    def close(self) -> None:
        """Release backend resources (thread pools, device handles)."""

    def describe(self) -> str:
        """One-line summary for listings."""
        caps = self.capabilities()
        avail, reason = self.availability()
        bits = [
            f"dtypes={','.join(caps.dtypes)}",
            "deterministic" if caps.deterministic else "NON-deterministic",
        ]
        if not avail:
            bits.append(f"unavailable: {reason}")
        return f"{self.name}: {caps.description} ({'; '.join(bits)})"
