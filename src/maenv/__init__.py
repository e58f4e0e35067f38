"""maenv: envelopes of quasi-plurisubharmonic functions and degenerate
complex Monge-Ampere equations, in two reductions where everything is
computable to tolerance:

* complex dimension one on the flat torus [0,1)^2 — curvature is the
  periodic Laplacian over 2*pi, envelopes are obstacle problems, and the
  equations are semilinear;
* radially symmetric potentials on complex projective space — profiles of
  t = log|z|^2 with a slope constraint, envelopes are convex hulls.

The public surface re-exports the grid types, both envelope routes (the
projected-SOR obstacle solver and the penalization scheme), the equation
solver with its structural constructions (minimum composition, Perron
folding), energy/capacity functionals, and the viscosity-side checks and
pipeline.
"""

from .errors import (
    ConfigError,
    EmptySupport,
    FamilyExhausted,
    InfeasibleMask,
    InputNotSupersolution,
    MaenvError,
    NewtonStall,
    NoSubsolution,
    NonConvergence,
    OrderViolation,
    ScenarioFailure,
)
from .torus import (
    GridField,
    MeasureDensity,
    Residual,
    ThetaDensity,
    TorusGrid,
    constant_field,
    curvature_values,
    field_from_function,
    inf_convolution,
    integrate,
    is_theta_psh,
    laplacian_matrix,
    ma_density,
)
from .radial import (
    LocalEnvelope,
    RadialProfile,
    SlopeMeasure,
    TAxis,
    ball_step_obstacle,
    constrained_convex_envelope,
    fs_potential,
    local_envelope_ball,
    orthogonality_defect_radial,
    radial_envelope,
    radial_ma_mass,
)
from .obstacle import (
    ObstacleSolution,
    PenalizationSchedule,
    PenalizedEnvelope,
    SolverReport,
    envelope_mu,
    lower_bound_slack,
    orthogonality_defect,
    penalized_envelope,
    penalized_step,
    psor_envelope,
    psor_envelopes,
)
from .equations import (
    PerronRound,
    PminResult,
    perron_solve,
    pmin_compose,
    solve_ma_exponential,
    subsolution_check,
    supersolution_check,
)
from .energy import (
    CapacityResult,
    QuasiTriangleResult,
    cap_convergence_metric,
    capacity,
    energy_Ip,
    extremal_field,
    generalized_capacity,
    quasi_triangle_check,
)
from .viscosity import (
    PipelineResult,
    check_supersolution_visc,
    mass_bound_check,
    supersolution_envelope_pipeline,
)
from .fields import (
    SupersolutionDatum,
    cosine_field,
    min_two_supersolution,
    ramp_supersolution,
    random_smooth_field,
    random_theta_psh,
    smooth_supersolution,
    step_band,
    supersolution_corpus,
    theta_cosine,
)

__version__ = "0.1.0"
