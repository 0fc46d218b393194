"""Energy-minimizing rotations for the Cosserat shear-stretch energy.

Computes the relaxed polar decomposition: the rotations R in SO(n) that
globally minimize W(R; D) = ||sym(R D - I)||_F^2 for positive diagonal D,
together with the full critical-point classification, the constructive
block-diagonalization of matrices with symmetric squares, and an
independent multistart/gradient-flow verification oracle.

``__all__`` is the public API; the submodules and underscore names are
internal.
"""

__version__ = "0.1.0"

from .blockdiag import (
    Block,
    BlockDecomposition,
    block_diagonalize,
    scalar_square_blocks,
)
from .critical import (
    CriticalPoint,
    PartitionLabel,
    SubsetLabel,
    critical_value,
    energy,
    energy_weighted,
    enumerate_critical,
    is_critical,
    realize,
)
from .errors import (
    Degenerate,
    DegenerateD,
    DimensionMismatch,
    InfeasibleLabel,
    InvalidWeights,
    NonClassicalRange,
    NonInvertibleOrReflective,
    NotLambdaSquare,
    NotSkew,
    NotSymmetricSquare,
    RpolarError,
    StepTooLarge,
    TiesNotStrictWarning,
    TooLarge,
)
from .linalg import (
    PolarFactors,
    as_rotation,
    exp_skew,
    frob_norm,
    frob_norm_sq,
    polar_decompose,
    random_rotation,
    skew,
    sym,
)
from .oracle import (
    DescentReport,
    DescentResult,
    FlowTrajectory,
    biot_flow,
    brute_force_min,
    descend,
    integrate_flow,
    riemannian_gradient,
)
from .relaxed import (
    MinimizerSet,
    SchemeStep,
    SchemeTrace,
    optimal_k,
    rpolar_classical,
    rpolar_diag,
    rpolar_full,
    scheme_minimize,
)

__all__ = [
    # closed-form minimizers
    "rpolar_diag", "rpolar_full", "rpolar_classical", "optimal_k", "scheme_minimize",
    "MinimizerSet", "SchemeStep", "SchemeTrace",
    # energies and the critical-point classification
    "energy", "energy_weighted", "critical_value", "enumerate_critical", "realize",
    "is_critical", "CriticalPoint", "PartitionLabel", "SubsetLabel",
    # block-diagonalization of matrices with symmetric squares
    "block_diagonalize", "scalar_square_blocks", "Block", "BlockDecomposition",
    # verification oracle
    "brute_force_min", "descend", "integrate_flow", "biot_flow", "riemannian_gradient",
    "DescentReport", "DescentResult", "FlowTrajectory",
    # dense matrix helpers
    "sym", "skew", "frob_norm", "frob_norm_sq", "as_rotation", "exp_skew",
    "random_rotation", "polar_decompose", "PolarFactors",
    # errors and warnings
    "RpolarError", "Degenerate", "DegenerateD", "DimensionMismatch", "InfeasibleLabel",
    "InvalidWeights", "NonClassicalRange", "NonInvertibleOrReflective", "NotLambdaSquare",
    "NotSkew", "NotSymmetricSquare", "StepTooLarge", "TooLarge", "TiesNotStrictWarning",
]  # fmt: skip
