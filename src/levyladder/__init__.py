"""levyladder: exact and Monte-Carlo verification of first-passage,
creeping and ladder-process identities for finite-activity Levy processes
and killed bivariate subordinators.

The package pairs every identity with two independent computational routes
(exact lattice dynamic programming, closed-form Laplace exponents, or
disjoint Monte-Carlo streams) and compares them within explicit error
budgets that combine Monte-Carlo standard errors with deterministic
truncation and discretisation bounds.
"""

from .processes import (
    BivariateSubordinatorSpec,
    DiscreteAtoms,
    ExponentialJumps,
    JumpLaw,
    ProcessSpec,
    UniformJumps,
    kappa_biv,
    kappa_biv_rho_derivative,
    sample_skeleton,
)
from .fixtures import B1, FIXTURES, P1, P2, P3, S1, fixture, spec_from_config
from .rng import RngPolicy
from .results import CheckReport, EstimateWithError
from .rw_ladder import (
    LadderRenewalTable,
    LatticeWalkSpec,
    brute_force_tables,
    green_function,
    ladder_epochs,
    renewal_tables,
    v_exact,
    vhat_exact,
)
from .passage import (
    AlphaBatch,
    LadderJumpBatch,
    PassageBatch,
    PassageRecord,
    SubPassageBatch,
    SubPassageRecord,
    estimate_p,
    kappa_from_ladder,
    sample_alpha,
    sample_biv_passages,
    sample_ladder_jumps,
    sample_passages,
)
from .renewal import (
    RenewalGrid,
    check_subpint,
    dual_ladder_cells,
    dual_ladder_measure,
    estimate_V,
    exact_V,
    fluct_boxes,
)
from .transforms import (
    TransformParams,
    check_resolvent_creep,
    lt_V,
    slfi_check,
    slfi_fluct_check,
    slfi_rhs_closed_form,
    wiener_hopf_check,
)
from .lawcheck import (
    Axis,
    DiscreteMeasureND,
    check_alpha_embedding,
    check_amicale,
    check_cor_jtop,
    check_quadruple,
    check_quintuple,
    quintuple_empirical,
    quintuple_rhs_lattice,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
