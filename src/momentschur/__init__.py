"""Subspace Schur complements and truncated matricial moment sequences.

The package has three mathematical layers on top of a tolerance-aware linear
algebra kernel:

- ``linalg``: the Hermitian test, PSD verdicts, the Loewner order,
  Moore-Penrose inverse, rank and range tests, subspaces, projectors and the
  shared tolerance policy;
- ``schur``: the Schur complement S(A, V) of a PSD matrix relative to a
  subspace, its block-formula twin, the variational identity, the unique
  splitting A = S + (A - S), and the report of ranks and identity checks
  the ``schur`` command prints;
- ``hamburger``: the block Hankel ``Tower`` engine, which computes
  nonnegative definiteness, extendability, the admissible interval for the
  last block and the class test once for both moment problems, the shift
  ``alpha_shift`` its half-line tower reads, and the public functions of
  the problem on the line; ``stieltjes`` runs the problem on a half line
  [alpha, oo) on the same engine, with a second, shifted tower.

A JSON command line front end lives in ``cli`` (entry point ``momentschur``).
"""

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MomentSchurError,
    NoConvergence,
    NotHermitian,
    NotHNND,
    NotKNND,
    NotPSD,
    OddOrderUnsupported,
    ParseError,
    ShapeMismatch,
    SplitInvalid,
    TooShort,
)
from .linalg import (
    Subspace,
    Tolerance,
    fiber_projector,
    loewner_leq,
    numerical_rank,
    pinv,
    ranges_intersect_trivially,
    subspace_from_columns,
)
from .schur import (
    SchurResult,
    decompose,
    in_lcr,
    is_unique_split,
    schur_complement,
    schur_complement_via_basis,
    schur_report,
    variational_value,
)
from .hamburger import (
    HamburgerReport,
    MomentSequence,
    alpha_shift,
    block_hankel,
    canonical_rep,
    classify_hamburger,
    in_extension_interval,
    is_hnnd,
    is_hnnde,
    l_matrix,
    r_upper,
    same_class,
    theta,
    y_block,
    z_block,
)
from .stieltjes import (
    StieltjesReport,
    canonical_rep_stieltjes,
    classify_stieltjes,
    in_extension_interval_stieltjes,
    is_knnd,
    is_knnde,
    kappa,
    r_upper_stieltjes,
    same_class_stieltjes,
    u_lower,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "HamburgerReport",
    "IndexOutOfRange",
    "MomentSchurError",
    "MomentSequence",
    "NoConvergence",
    "NotHNND",
    "NotHermitian",
    "NotKNND",
    "NotPSD",
    "OddOrderUnsupported",
    "ParseError",
    "SchurResult",
    "ShapeMismatch",
    "SplitInvalid",
    "StieltjesReport",
    "Subspace",
    "Tolerance",
    "TooShort",
    "alpha_shift",
    "block_hankel",
    "canonical_rep",
    "canonical_rep_stieltjes",
    "classify_hamburger",
    "classify_stieltjes",
    "decompose",
    "fiber_projector",
    "in_extension_interval",
    "in_extension_interval_stieltjes",
    "in_lcr",
    "is_hnnd",
    "is_hnnde",
    "is_knnd",
    "is_knnde",
    "is_unique_split",
    "kappa",
    "l_matrix",
    "loewner_leq",
    "numerical_rank",
    "pinv",
    "r_upper",
    "r_upper_stieltjes",
    "ranges_intersect_trivially",
    "same_class",
    "same_class_stieltjes",
    "schur_complement",
    "schur_complement_via_basis",
    "schur_report",
    "subspace_from_columns",
    "theta",
    "u_lower",
    "variational_value",
    "y_block",
    "z_block",
]
