"""Host-level GEMM: ``tiled_matmul`` is one bitwise ``np.matmul`` call."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import tiled_matmul


def operands(m=130, n=70, q=95, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (n, q))


class TestTiledMatmul:
    def test_single_tile_equals_blas_call(self):
        a, b = operands()
        assert tiled_matmul(a, b).tobytes() == (a @ b).tobytes()

    def test_float32_bitwise_identity(self):
        a, b = operands()
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        result = tiled_matmul(a32, b32)
        assert result.dtype == np.float32
        assert result.tobytes() == np.matmul(a32, b32).tobytes()

    def test_out_parameter_is_filled_in_place(self):
        a, b = operands()
        out = np.empty((a.shape[0], b.shape[1]))
        returned = tiled_matmul(a, b, out=out)
        assert returned is out
        assert out.tobytes() == (a @ b).tobytes()

    def test_shape_validation(self):
        a, b = operands()
        with pytest.raises(ShapeError):
            tiled_matmul(a, b[:-1, :])
        with pytest.raises(ShapeError):
            tiled_matmul(a[0], b)
        with pytest.raises(ShapeError):
            tiled_matmul(a, b, out=np.empty((1, 1)))
