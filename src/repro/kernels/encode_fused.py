"""Fused host-side encode kernel: checksums + top-p + norms in one pass.

This is the array-level analog of the paper's Algorithm 1, which fuses the
partitioned checksum encoding with the top-p max search so the operand is
read once.  :func:`fused_encode` performs, for one operand (or a stack of
right operands side by side):

* the thin block-checksum matrix of the side-product layout
  (:func:`~repro.kernels.sideproduct.block_checksums`: ``EA`` for a left
  operand, ``EB`` for a right one) — bitwise the checksum rows/columns of
  the interleaved encoding ``encode_partitioned_*_reference`` builds;
* the top-p absolute values/indices of every *encoded* vector for the
  ``aabft`` scheme (Algorithm 1's tie semantics: first occurrence wins);
* the Euclidean norms of every encoded vector for the ``sea`` scheme.

Per-vector data comes back in the interleaved encoded order the epsilon
providers index (data vectors of each block, then its checksum vector);
the vectors of zero padding get the data a zero vector has.  The operand
itself is never padded or copied; :attr:`FusedEncodeResult.encoded`
assembles the interleaved matrix on demand.  The cycle-level simulated
GPU kernels live in :mod:`repro.kernels.encode`;
``encode_reference.algorithm1_reference`` remains the per-block oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..bounds.upper_bound import top_p_arrays
from ..errors import ConfigurationError
from .sideproduct import block_checksums, interleave_rows

__all__ = ["FusedEncodeResult", "fused_encode"]

#: Operand bytes up to which the scheme data is computed in one pass over
#: the operand's and its checksums' vectors side by side.  Over the
#: gemm-small shape table it saves 62 of 285 us of encode per product
#: (2-CPU x86 host); a large operand would pay for the concatenated copy.
_SMALL_OPERAND_BYTES = 1 << 18


@dataclass(frozen=True)
class FusedEncodeResult:
    """Everything one operand contributes to the protected multiplication.

    ``data`` is the operand as given; ``checksums`` its block-checksum
    matrix (``nb x k`` for side ``"a"``, ``k x nb`` for ``"b"``, with
    ``nb`` per item for a stack); ``layout`` the per-item layout of the
    encoded axis.  ``top_values``/``top_indices``/``norms`` cover every
    encoded vector of every item, item after item.
    """

    side: str
    data: np.ndarray
    checksums: np.ndarray
    layout: PartitionedLayout
    items: int = 1
    top_values: np.ndarray | None = None
    top_indices: np.ndarray | None = None
    norms: np.ndarray | None = None
    _encoded: list = field(default_factory=list, repr=False, compare=False)

    @property
    def encoded(self) -> np.ndarray:
        """The interleaved encoded operand (``A_cc`` / ``B_rc``).

        Assembled on first access, which costs a copy of the operand.
        """
        if not self._encoded:
            self._encoded.append(
                interleave_operand(
                    self.data, self.checksums, self.side, self.layout,
                    items=self.items,
                )
            )
        return self._encoded[0]


def interleave_operand(
    data: np.ndarray,
    checksums: np.ndarray,
    side: str,
    layout: PartitionedLayout,
    *,
    items: int = 1,
) -> np.ndarray:
    """Interleave an operand with its checksum vectors (zero padding)."""
    if side == "a":
        return interleave_rows(data, checksums, layout, items=items)
    out = np.empty(
        (data.shape[0], items * layout.encoded_rows), dtype=data.dtype
    )
    interleave_rows(data.T, checksums.T, layout, items=items, out=out.T)
    return out


def fused_encode(
    matrix: np.ndarray,
    side: str,
    block_size: int,
    *,
    p: int | None = None,
    norms: bool = False,
    pool=None,
    checksums: np.ndarray | None = None,
    items: int = 1,
) -> FusedEncodeResult:
    """Checksum one operand and compute its bound-scheme preprocessing.

    Parameters
    ----------
    matrix:
        The dtype-resolved operand, unpadded.  For ``side="b"`` it may be
        a stack of ``items`` right operands of equal width side by side.
    side:
        ``"a"`` checksums the rows of ``BS``-row blocks and searches the
        encoded *rows*; ``"b"`` checksums the columns of ``BS``-column
        blocks and searches the encoded *columns*.
    block_size:
        The partitioned-encoding block size ``BS``.
    p:
        When given, compute the top-``p`` values/indices of every encoded
        vector (``aabft``).  Mutually exclusive with ``norms``.
    norms:
        When true, compute every encoded vector's Euclidean norm (``sea``).
    pool:
        Optional :class:`~repro.engine.plan.WorkspacePool` supplying the
        top-p search workspace.
    checksums:
        The block-checksum matrix when the caller already has it (a
        verified product's checksum rows feeding the next layer);
        computed from ``matrix`` otherwise.
    items:
        Number of right operands stacked in ``matrix`` (side ``"b"``).
    """
    if side not in ("a", "b"):
        raise ConfigurationError(f"side must be 'a' or 'b', got {side!r}")
    if p is not None and norms:
        raise ConfigurationError("p and norms are mutually exclusive")
    if side == "a" and items != 1:
        raise ConfigurationError("only right operands stack side by side")
    matrix = np.asarray(matrix)
    axis = 1 if side == "a" else 0
    width = matrix.shape[0] if side == "a" else matrix.shape[1] // items
    layout = PartitionedLayout(
        width + (-width) % block_size, block_size
    )
    if checksums is None:
        if side == "a":
            checksums = block_checksums(matrix, "a", block_size)
        else:
            # Item j's rows are the j-th width-long run of every row.
            k = matrix.shape[0]
            checksums = block_checksums(
                np.ascontiguousarray(matrix).reshape(k * items, width),
                "b", block_size,
            ).reshape(k, items * layout.num_blocks)
    top_vals = top_idx = vec_norms = None
    if (p is not None or norms) and matrix.nbytes <= _SMALL_OPERAND_BYTES:
        # A small operand is searched in one pass over its vectors, its
        # checksum vectors and one zero vector (what a padding vector
        # holds) side by side, then gathered into encoded order: fewer
        # calls than two searches and two interleaves.
        cat_axis = 1 - axis
        zero_shape = list(matrix.shape)
        zero_shape[cat_axis] = 1
        zero = np.zeros(zero_shape, dtype=matrix.dtype)
        vectors = np.concatenate((matrix, checksums, zero), axis=cat_axis)
        order = _encoded_order(layout, width, items)
        if p is not None:
            vals, idx = top_p_arrays(vectors, p, axis=axis, pool=pool)
            top_vals, top_idx = vals[order], idx[order]
        else:
            vec_norms = _norms(vectors, axis)[order]
    elif p is not None:
        data_vals, data_idx = top_p_arrays(matrix, p, axis=axis, pool=pool)
        cs_vals, cs_idx = top_p_arrays(checksums, p, axis=axis, pool=pool)
        # A zero vector's search picks indices 0..p-1, each worth 0.
        top_vals = interleave_rows(
            data_vals, cs_vals, layout, items=items, fill=0.0
        )
        top_idx = interleave_rows(
            data_idx, cs_idx, layout, items=items, fill=np.arange(p)
        )
    elif norms:
        vec_norms = interleave_rows(
            _norms(matrix, axis), _norms(checksums, axis),
            layout, items=items, fill=0.0,
        )
    return FusedEncodeResult(
        side=side,
        data=matrix,
        checksums=checksums,
        layout=layout,
        items=items,
        top_values=top_vals,
        top_indices=top_idx,
        norms=vec_norms,
    )


@functools.lru_cache(maxsize=256)
def _encoded_order(layout: PartitionedLayout, width: int, items: int) -> np.ndarray:
    """Source index of every encoded vector of ``items`` stacked groups.

    Sources are numbered as :func:`fused_encode` lays its vectors side by
    side: the ``items * width`` data vectors, then the ``items * nb``
    checksum vectors, then one zero vector that every padding vector maps
    to.
    """
    bs, nb = layout.block_size, layout.num_blocks
    item = np.arange(items)[:, None, None]
    block = np.arange(nb)[None, :, None]
    offset = np.arange(bs + 1)[None, None, :]
    data = item * width + block * bs + offset
    zero = items * (width + nb)
    order = np.where(block * bs + offset < width, data, zero)
    order[:, :, bs] = (items * width + np.arange(items)[:, None] * nb
                       + np.arange(nb)[None, :])
    order.flags.writeable = False
    return order.reshape(-1)


def _norms(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms of every vector along ``axis``, summed in order.

    Column sums run row by row at every width (numpy would sum a single
    column pairwise), so a vector's norm never depends on its neighbours.
    """
    if axis == 0 and matrix.shape[1] == 1:
        squares = np.add.accumulate(matrix * matrix, axis=0)
        return np.sqrt(squares[-1])
    return np.linalg.norm(matrix, axis=axis)
