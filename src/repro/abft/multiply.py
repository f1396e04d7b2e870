"""High-level ABFT matrix multiplication — the library's main entry points.

These functions run the complete scheme on the host (pure numpy): encode,
multiply, determine bounds, check, optionally locate/correct.  They are the
API a downstream user calls; the GPU-simulated pipeline in
:mod:`repro.abft.pipeline` executes the same mathematics kernel-by-kernel for
the performance and fault-injection experiments.

Since the engine redesign they are thin shims over a shared
:class:`repro.engine.MatmulEngine` (see :func:`repro.engine.default_engine`):
each call builds an :class:`repro.engine.AbftConfig` from its keyword
arguments and routes through the module-level engine, so repeated same-shape
calls reuse cached execution plans.  Results are bitwise identical to the
pre-engine implementation.  New code should prefer constructing an engine
and config directly — especially for batches or operand reuse.

Example
-------
>>> import numpy as np
>>> from repro.abft import aabft_matmul
>>> rng = np.random.default_rng(0)
>>> a = rng.uniform(-1, 1, (256, 256)); b = rng.uniform(-1, 1, (256, 256))
>>> result = aabft_matmul(a, b, block_size=64, p=2)
>>> result.report.error_detected
False
>>> np.allclose(result.c, a @ b)
True
"""

from __future__ import annotations

import numpy as np

from ..engine.config import AbftConfig
from .result import AbftResult, ProtectedResult

__all__ = [
    "AbftResult",
    "ProtectedResult",
    "aabft_matmul",
    "sea_abft_matmul",
    "fixed_abft_matmul",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_P",
]

#: Encoding block size matching the paper's kernel configuration.
DEFAULT_BLOCK_SIZE = 64
#: Number of tracked largest absolute values (paper Section VI-B: p = 2).
DEFAULT_P = 2


def _build_config(
    func: str, base: AbftConfig | None, scheme: str, overrides: dict
) -> AbftConfig:
    """Resolve the effective config: explicit kwargs override ``base``."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    changes["scheme"] = scheme
    if base is None:
        return AbftConfig(**changes)
    if not isinstance(base, AbftConfig):
        raise TypeError(
            f"{func}() config must be an AbftConfig, got {type(base).__name__}"
        )
    return base.replace(**changes)


def aabft_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    config: AbftConfig | None = None,
    block_size: int | None = None,
    p: int | None = None,
    omega: float | None = None,
    fma: bool | None = None,
    epsilon_floor: float | None = None,
) -> AbftResult:
    """ABFT matmul with autonomous probabilistic error bounds (A-ABFT).

    Parameters
    ----------
    a, b:
        Operand matrices, ``(m, n)`` and ``(n, q)``; dimensions need not be
        block multiples (zero padding is applied and stripped transparently).
        When both operands are float32 the whole scheme runs in binary32
        (GPU single precision) with bounds for ``t = 24``; otherwise
        binary64.
    config:
        An :class:`repro.engine.AbftConfig` carrying every tuning knob.
        Individual keyword arguments below override its fields.
    block_size:
        Partitioned-encoding block size ``BS``.
    p:
        Number of largest absolute values tracked per vector (Section IV-E).
    omega:
        Confidence scale of the bound (paper default: 3).
    fma:
        Model a fused-multiply-add pipeline (Section IV-D).
    epsilon_floor:
        Absolute tolerance floor for inputs whose checksum vectors cancel
        to (near) zero — e.g. mean-centred data or graph Laplacians.  The
        paper's model scales the tolerance with the checksum magnitude, so
        exact cancellation drives it to zero while the reference summation
        still carries rounding noise, causing false positives.  A floor of
        ``n * 2**-t * max|C|`` restores zero false positives; the default 0
        is paper-faithful.  See docs/THEORY.md.

    The tuning arguments are keyword-only; calls go through the shared
    :func:`repro.engine.default_engine`.
    """
    overrides = dict(
        block_size=block_size, p=p, omega=omega, fma=fma,
        epsilon_floor=epsilon_floor,
    )
    cfg = _build_config("aabft_matmul", config, "aabft", overrides)
    from ..engine import default_engine

    return default_engine().matmul(a, b, config=cfg)


def sea_abft_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    config: AbftConfig | None = None,
    block_size: int | None = None,
) -> AbftResult:
    """ABFT matmul with simplified-error-analysis bounds (SEA-ABFT baseline)."""
    cfg = _build_config(
        "sea_abft_matmul", config, "sea", {"block_size": block_size}
    )
    from ..engine import default_engine

    return default_engine().matmul(a, b, config=cfg)


def fixed_abft_matmul(
    a: np.ndarray,
    b: np.ndarray,
    epsilon: float | None = None,
    *,
    config: AbftConfig | None = None,
    block_size: int | None = None,
) -> AbftResult:
    """ABFT matmul with a manually chosen absolute tolerance (baseline).

    ``epsilon`` must be supplied by the user (directly or as
    ``config.fixed_epsilon``) — the scheme the paper's Table I lists as
    "ABFT", fast but not autonomous.
    """
    overrides = {"block_size": block_size}
    if epsilon is not None:
        overrides["fixed_epsilon"] = epsilon
    elif config is None or config.fixed_epsilon is None:
        raise TypeError("fixed_abft_matmul() missing required argument: 'epsilon'")
    cfg = _build_config("fixed_abft_matmul", config, "fixed", overrides)
    from ..engine import default_engine

    return default_engine().matmul(a, b, config=cfg)
