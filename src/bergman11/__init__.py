"""Coefficient-space engine for weighted Bergman spaces on the unit disc and
the first-order operator theory of the SU(1,1) discrete series."""

from .weights import (
    CoeffVector,
    WeightParam,
    bergman_norm_sq,
    inner_product,
    monomial_norm_sq,
    monomial_norms_sq,
    smooth_seminorm_sq,
    sobolev_norm_sq,
)
from .quadrature import KernelPoint, QuadratureGrid, integrate, kernel_eval, reproduce
from .su11 import (
    BasisCoords,
    GroupElement,
    LieElement,
    basis_elements,
    bracket,
    coords,
    exp_at,
    from_coords,
)
from .representation import derivative_check, group_act, xnorm_sq
from .operators import (
    ClassifyVerdict,
    FirstOrderOp,
    RepDecomposition,
    SymmetricForm,
    TriDiag,
    apply,
    bracket_op,
    classify_symmetric,
    commutator_matrix,
    derived_op,
    from_rep,
    gram_matrix,
    hermiticity_defect,
    symmetric_tridiagonal,
    to_rep,
    zhu_scan,
)
from .uncertainty import (
    UncertaintyReport,
    consistency_check,
    lie_up,
    optimal_shifts,
    soltani_up,
)
from .weightshift import (
    FrameConstants,
    ShiftOp,
    domain_identification_check,
    frame_constants,
    frame_ratio,
    kernel_coeffs,
    kernel_shift_residual,
    shift_apply,
    shift_invert,
)

__version__ = "0.1.0"
