"""The ``numpy`` backend: the serial bitwise reference.

Runs the canonical tile list in order on the host BLAS.  With the default
``tile=None`` this is exactly one ``a @ b`` call — the engine's historical
behaviour, and the byte-for-byte reference every deterministic backend is
held against.  It is also the terminal fallback of the never-silent
fallback chain, so it must always be available.
"""

from __future__ import annotations

import numpy as np

from ..kernels.matmul_tiled import tiled_matmul
from .base import Backend, BackendCapabilities

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Serial host-BLAS execution of the canonical tile list."""

    name = "numpy"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            dtypes=("float64", "float32"),
            max_elements=None,
            deterministic=True,
            description="serial host BLAS (bitwise reference, terminal fallback)",
        )

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        out: np.ndarray | None = None,
        tile: int | None = None,
        pool=None,
    ) -> np.ndarray:
        return tiled_matmul(a, b, tile=tile, out=out, pool=pool)
