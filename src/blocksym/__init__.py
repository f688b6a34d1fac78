"""Blocked compact symmetric tensor storage and change-of-basis kernels.

The package stores symmetric (and leading-group partially symmetric)
tensors by canonical blocks, computes the change of basis
``C = A x_0 X x_1 X ... x_{m-1} X`` four ways (elementwise oracle, scalar
temporaries, dense mode-product chain, algorithm-by-blocks over compact
storage), instruments flop/memop counts, and evaluates the matching
analytical cost model in exact arithmetic.
"""

from .change_of_basis import (
    max_relative_error,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
    sttsm_scalar_temps,
)
from .counters import OpCounter
from .costs import (
    ApproxCosts,
    CostReport,
    approx_costs,
    bcss_costs,
    bcss_impl_memops,
    crossover_table,
    dense_costs,
    metadata_sweep,
    savings_table,
)
from .dense import (
    DenseTensor,
    MultiIndex,
    ipermute,
    matmul_ref,
    mode_multiply,
    permute,
    set_matmul_backend,
)
from .errors import (
    BlockDivisibilityError,
    FormatError,
    ModeError,
    ParameterError,
    RangeError,
    ShapeError,
    SymmetryError,
)
from .generate import random_bcss, random_matrix, random_symmetric
from .indexing import (
    canonicalize,
    hypertriangle_iter,
    is_sym_in_modes,
    simplex_count,
    symmetry_violation,
)
from .io import load_bcss, load_tensor, save_bcss, save_tensor
from .storage import (
    BcssTensor,
    PartialSymTensor,
    compress,
    decompress,
    measured_meta_k,
    meta_bytes,
)

__version__ = "0.1.0"
