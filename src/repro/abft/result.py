"""Result objects of protected multiplications and their shared surface.

Every protected-multiplication path in the library — the host path
(:mod:`repro.abft.multiply` / :class:`repro.engine.MatmulEngine`) and the
simulated GPU pipeline (:mod:`repro.abft.pipeline`) — returns an object with
the same read-only core: ``.c`` (the data result), ``.detected`` (whether
any checksum comparison failed) and ``.report`` (the full
:class:`~repro.abft.checking.CheckReport`).  :class:`ProtectedResult` names
that contract as a structural protocol, so callers can swap the host path
and the simulated pipeline without branching::

    def run_protected(mult) -> np.ndarray:
        result: ProtectedResult = mult()      # host or pipeline, same code
        if result.detected:
            raise RuntimeError(result.report.findings)
        return result.c
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .checking import CheckReport, EpsilonProvider
from .encoding import PartitionedLayout

__all__ = ["ProtectedResult", "AbftResult"]


@runtime_checkable
class ProtectedResult(Protocol):
    """Read-only surface shared by every protected-multiplication result.

    Both :class:`AbftResult` (host path) and
    :class:`~repro.abft.pipeline.PipelineResult` (simulated GPU pipeline)
    satisfy this protocol structurally; ``isinstance`` checks work because
    the protocol is runtime-checkable.
    """

    @property
    def c(self) -> np.ndarray:
        """The data result matrix (checksums and padding stripped)."""
        ...

    @property
    def detected(self) -> bool:
        """Whether the check flagged any comparison."""
        ...

    @property
    def report(self) -> CheckReport:
        """The checksum check report."""
        ...


class AbftResult:
    """Everything an ABFT-protected multiplication produced.

    Attributes
    ----------
    c:
        The data result matrix — what an unprotected ``a @ b`` returns.
        On the engine it is ``np.matmul`` of the raw operands, byte for
        byte.
    c_fc:
        The full-checksum result in encoded coordinates.  Engine results
        carry the side products instead and assemble this matrix on first
        access, which costs a copy.
    report:
        The checksum check report.
    row_layout / col_layout:
        Layouts of the encoded result (for error location / correction).
    provider:
        The epsilon provider used for the check (reusable for re-checks and
        correction verification).
    products:
        The :class:`~repro.kernels.sideproduct.SideProducts` ``C``, ``R``,
        ``K`` and ``X`` the engine computed (``None`` for results built
        from a full-checksum matrix).
    """

    def __init__(
        self,
        c: np.ndarray,
        c_fc: np.ndarray | None,
        report: CheckReport,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        provider: EpsilonProvider,
        products=None,
    ) -> None:
        if c_fc is None and products is None:
            raise ValueError("a result needs c_fc or its side products")
        self.c = c
        self._c_fc = c_fc
        self.report = report
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.provider = provider
        self.products = products

    @property
    def c_fc(self) -> np.ndarray:
        """The full-checksum result (assembled from the side products)."""
        if self._c_fc is None:
            from ..kernels.sideproduct import assemble_full_checksum

            self._c_fc = assemble_full_checksum(
                self.products, self.row_layout, self.col_layout
            )
        return self._c_fc

    @property
    def detected(self) -> bool:
        """Whether the check flagged any comparison."""
        return self.report.error_detected

    def __repr__(self) -> str:
        return (
            f"AbftResult(shape={self.c.shape}, dtype={self.c.dtype}, "
            f"detected={self.detected})"
        )
