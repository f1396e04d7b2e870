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
from ..bounds.upper_bound import top_p_arrays, top_p_row_stack
from ..errors import ConfigurationError
from .sideproduct import block_checksums, interleave_rows

__all__ = [
    "FusedEncodeResult",
    "fused_encode",
    "fused_encode_pair",
    "pair_search_order",
]

#: Operand bytes up to which the scheme data is computed in one pass over
#: the operand's and its checksums' vectors side by side, and (for the
#: pair's bytes together) a raw pair's two operands in one pass
#: (:func:`fused_encode_pair`).  Over the gemm-small shape cycle the joint
#: pair search cuts the engine's encode stage from 300 to 222 us per
#: product (2-CPU x86 host, best of 3); a large operand would pay for the
#: stacked copy.
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
    matrix, width, layout, checksums = _layout_and_checksums(
        matrix, side, block_size, checksums, items
    )
    axis = 1 if side == "a" else 0
    top_vals = top_idx = vec_norms = None
    small = matrix.nbytes <= _SMALL_OPERAND_BYTES
    if p is not None and small:
        # A small operand is searched in one pass over its vectors, its
        # checksum vectors and one zero vector (what a padding vector
        # holds) stacked as rows, then gathered into encoded order: fewer
        # calls than two searches and two interleaves.
        vals, idx = top_p_row_stack(
            [_search_rows(matrix, checksums, side)], p, pool=pool
        )
        order = _encoded_order(layout, width, items)
        top_vals, top_idx = vals[order], idx[order]
    elif norms and small:
        # Norms sum along the operand's own axis: stacking columns as rows
        # would change the summation order.
        cat_axis = 1 - axis
        zero_shape = list(matrix.shape)
        zero_shape[cat_axis] = 1
        zero = np.zeros(zero_shape, dtype=matrix.dtype)
        vectors = np.concatenate((matrix, checksums, zero), axis=cat_axis)
        vec_norms = _norms(vectors, axis)[_encoded_order(layout, width, items)]
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


def fused_encode_pair(
    a: np.ndarray,
    b: np.ndarray,
    block_size: int,
    *,
    p: int,
    order: np.ndarray,
    pool=None,
) -> tuple[FusedEncodeResult, FusedEncodeResult]:
    """Encode a small raw pair ``a @ b`` for ``aabft`` in one top-p pass.

    :func:`fused_encode`'s small-operand search over both operands at
    once, so the result is bitwise two :func:`fused_encode` calls (``"a"``
    for ``a``, ``"b"`` for ``b``): every searched vector has the inner
    length, so ``a``'s search rows and ``b``'s share one stack, and
    ``order`` (:func:`pair_search_order`, kept on the execution plan)
    gathers the encoded rows of ``a`` followed by the encoded columns of
    ``b``.
    """
    a, _, row_layout, ea = _layout_and_checksums(a, "a", block_size)
    b, _, col_layout, eb = _layout_and_checksums(b, "b", block_size)
    vals, idx = top_p_row_stack(
        [_search_rows(a, ea, "a"), _search_rows(b, eb, "b")], p, pool=pool
    )
    vals, idx = vals[order], idx[order]
    split = row_layout.encoded_rows
    return (
        FusedEncodeResult(
            side="a", data=a, checksums=ea, layout=row_layout,
            top_values=vals[:split], top_indices=idx[:split],
        ),
        FusedEncodeResult(
            side="b", data=b, checksums=eb, layout=col_layout,
            top_values=vals[split:], top_indices=idx[split:],
        ),
    )


def pair_search_order(
    m: int, n: int, q: int, dtype, block_size: int
) -> np.ndarray | None:
    """The gather order of :func:`fused_encode_pair`'s stacked search:
    ``a``'s :func:`_encoded_order`, then ``b``'s offset past ``a``'s
    ``m + nb`` vectors and zero row.  ``None`` when the
    ``(m x n) @ (n x q)`` pair of ``dtype`` is larger than
    :data:`_SMALL_OPERAND_BYTES`, where the operands are searched one by
    one.
    """
    if (m + q) * n * np.dtype(dtype).itemsize > _SMALL_OPERAND_BYTES:
        return None
    row_layout = _layout(m, block_size)
    order = np.concatenate((
        _encoded_order(row_layout, m, 1),
        _encoded_order(_layout(q, block_size), q, 1)
        + (m + row_layout.num_blocks + 1),
    ))
    order.flags.writeable = False
    return order


def _layout(width: int, block_size: int) -> PartitionedLayout:
    """The layout of ``width`` vectors zero-padded to whole blocks."""
    return PartitionedLayout(width + (-width) % block_size, block_size)


def _layout_and_checksums(
    matrix: np.ndarray,
    side: str,
    block_size: int,
    checksums: np.ndarray | None = None,
    items: int = 1,
) -> tuple[np.ndarray, int, PartitionedLayout, np.ndarray]:
    """``(matrix, width, layout, checksums)`` of one operand (or a stack of
    ``items`` right operands); ``checksums`` is computed unless given."""
    matrix = np.asarray(matrix)
    width = matrix.shape[0] if side == "a" else matrix.shape[1] // items
    layout = _layout(width, block_size)
    if checksums is None:
        if side == "a":
            checksums = block_checksums(matrix, "a", block_size)
        else:
            # Item j's rows are the j-th width-long run of every row.  The
            # C-order copy fixes the summation order: numpy sums a strided
            # (transposed or Fortran-order) block in a different order.
            k = matrix.shape[0]
            checksums = block_checksums(
                np.ascontiguousarray(matrix).reshape(k * items, width),
                "b", block_size,
            ).reshape(k, items * layout.num_blocks)
    return matrix, width, layout, checksums


def _search_rows(matrix: np.ndarray, checksums: np.ndarray, side: str) -> tuple:
    """An operand's searched vectors and its checksum vectors, as rows."""
    return (matrix, checksums) if side == "a" else (matrix.T, checksums.T)


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
