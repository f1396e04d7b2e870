"""Simulated GPU kernels of the A-ABFT pipeline (paper Section V).

Algorithm 1 (encode + top-p), the global top-p reduction, Algorithm 3
(block matmul with fault hooks), Algorithm 2 (bounds + check), the SEA norm
kernels and the TMR baseline driver.
"""

from .check import CheckKernel
from .correct import CorrectionKernel
from .encode import EncodeColumnChecksumsKernel, EncodeRowChecksumsKernel
from .encode_fused import FusedEncodeResult, fused_encode
from .matmul import BlockMatmulKernel, sequential_inner_product
from .matmul_tiled import RegisterTiledMatmulKernel, tiled_matmul
from .norms import ColumnNormKernel, RowNormKernel
from .reduce import TopPReduceKernel
from .tmr import TmrCompareKernel, TmrOutcome, run_tmr_matmul

__all__ = [
    "BlockMatmulKernel",
    "RegisterTiledMatmulKernel",
    "CheckKernel",
    "CorrectionKernel",
    "ColumnNormKernel",
    "EncodeColumnChecksumsKernel",
    "EncodeRowChecksumsKernel",
    "FusedEncodeResult",
    "fused_encode",
    "RowNormKernel",
    "TmrCompareKernel",
    "TmrOutcome",
    "TopPReduceKernel",
    "run_tmr_matmul",
    "sequential_inner_product",
    "tiled_matmul",
]
