"""Numerical layer of reduced stability conditions on polarized varieties.

Interlaced real-rooted pencils, central charges (Vandermonde determinants,
computed from root-polynomial coefficients), support-property quadratic
forms, Bogomolov-type discriminants, wall loci, and hypersurface-restriction
maps on parameter tuples.

Imported before numpy, redstab loads OpenBLAS with one thread: its matrices
are at most 9 x 9, and an idle BLAS worker spins ~0.1 s of CPU at start-up.
For more, set OPENBLAS_NUM_THREADS before the import, or import numpy first.
"""

import os
import sys

if "numpy" not in sys.modules:  # a loaded OpenBLAS no longer reads it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .charge import (
    ALL_NONNEG,
    ALL_NONPOS,
    MIXED,
    CentralCharge,
    Decomposition,
    ReducedCharge,
    charge_of_poly,
    decompose,
    eval_charge,
    gamma,
    in_Bn,
    in_Un,
    kernel_parameter,
    poly_of_charge,
    reduced_charge,
    split_central,
)
from .errors import (
    AlphaSearchFailed,
    AmbientMismatch,
    AssumptionViolated,
    ComplexRoots,
    DecompositionFailed,
    DegenerateInput,
    DependentCharacters,
    IndexOutOfRange,
    InKernelOfLine,
    InvalidAmbient,
    InvalidParams,
    LatticeMismatch,
    NotDistinctRoots,
    NotInKernel,
    RedstabError,
    SearchBudgetExceeded,
    SepTooSmall,
    SepViolation,
    SingularForm,
    WrongSignature,
)
from .geometry import (
    FamilyCheckReport,
    NSLattice,
    NSVector,
    ThreefoldParams,
    ab_delta,
    ab_twist,
    criterion_bayer_step,
    criterion_neg_def,
    criterion_restrict,
    delta_H,
    family_equiv_check,
    max_alpha,
    nabla_beta,
    params_from_tuples,
    q_K_beta,
    threefold_charge,
    threefold_kernel_tuples,
    twisted_chern,
    validity_iff_interlaced,
)
from .interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    is_interlaced,
    left_interlaced,
    member_with_root,
    pencil_canonical,
    pencil_project,
    poly_to_roots,
    roots_to_poly,
    sep,
    sep_exceeds,
    sep_pencil,
    shift_pencil,
    stabilizing_shift,
)
from .plots import emit_csv, emit_plot, emit_svg, figure_hilb, figure_surface
from .quadform import (
    QuadraticForm,
    SupportReport,
    deform_form,
    dual_form,
    in_WQ,
    kernel_of_line,
    line_charges,
    q_line,
    q_tilde,
    tilde,
    verify_support,
    zero_form,
)
from .restrict import (
    RestrictedCharge,
    RestrictionSpec,
    compose_with_pushforward,
    pushforward_matrix,
    restrict_charge,
    xi,
    xi_multi,
)
from .walls import (
    WallLocus,
    hilb_boundary,
    hilb_bounds,
    hilb_locus,
    hilb_wall_line,
    numerical_wall,
    sb_v_surface,
)

__version__ = "0.1.0"
