"""Numerical laboratory for measure-valued dynamics.

Discrete probability measures evolve under probability vector fields
(velocity distributions attached to each point of the measure) via an
explicit lattice scheme, with exact discrete optimal transport and
constrained fiber metrics for verification.
"""

from .errors import (
    BoxOverflowError,
    MdeLabError,
    NumericalError,
    SublinearityError,
    SupportBoundError,
    ValidationError,
)
from .measure import (
    ArrayRows,
    DiscreteMeasure,
    LatticeMeasure,
    LiftedMeasure,
    base_marginal,
    dirac,
    lifted_from_dict,
    lifted_to_dict,
    load_json,
    make_lattice_measure,
    make_lifted,
    make_measure,
    measure_from_dict,
    measure_to_dict,
    push_forward,
    support_radius,
    uniform_1d,
)
from .transport import (
    TransportPlan,
    WassersteinResult,
    kr_dual_gap,
    plan_is_optimal,
    validate_plan,
    wasserstein,
)
from .fiber_metric import (
    FiberCostKind,
    LiftedPlan,
    constrained_fiber_cost,
    fiber_convolution,
    induced_base_plan,
    monotone_fiber_cost_1d,
    neutral_element,
    scalar_action,
    tangent_wasserstein,
    validate_lifted_plan,
    wt_bound_check,
)
from .kernels import (
    KernelSpec,
    interaction_field,
    kernel_from_dict,
    kernel_selfcheck,
    kernel_to_dict,
    make_kernel,
)
from .pvf import (
    PVF_KINDS,
    PvfSpec,
    VelocityField,
    add_fields,
    check_h1,
    constant_pvf,
    evaluate,
    field_from_dict,
    field_to_dict,
    interaction_pvf,
    linear_field,
    median_split_pvf,
    ode_lift_pvf,
    one_sided_ode_pvf,
    phi_diffusion_pvf,
    poly_field,
    pvf_from_dict,
    pvf_to_dict,
    scale_field,
    sgn_sqrt_field,
    sinusoidal_field,
    sublinear_constant,
)
from .las import (
    LatticeConfig,
    Trajectory,
    av_discretize,
    ax_discretize,
    interpolate,
    las_solve,
    las_step,
)
from .analysis import (
    ConvergenceReport,
    StationaryFlow,
    TestFunction,
    bump_family,
    convergence_study,
    distributional_residual,
    gronwall_check,
    max_family_residual,
    oracle,
    semigroup_check,
    step_displacement_check,
    support_bound_check,
    time_lipschitz_check,
    weak_residual,
)
from .particles import (
    ParticleState,
    empirical,
    integrate,
    make_state,
    meanfield_compare,
    permute_state,
    stability_check,
    stability_rate,
    state_from_dict,
)
from .selfcheck import CheckResult, run_all_checks
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
