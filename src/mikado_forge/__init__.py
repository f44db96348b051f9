"""Numerical laboratory for the steady drift-diffusion equation
-div(grad u + b u) = f on the periodic torus: spectral calculus, Mikado
pipe families, fast-oscillation estimates, a pipe-concentration
perturbation iteration, a preconditioned solver with well-posedness
diagnostics, and the classical ball counterexample."""

from .torus import (
    TorusGrid,
    ScalarField,
    VectorField,
    gradient,
    divergence,
    norm,
    dilate,
    lowpass,
    leray_project,
    bandwidth,
    relative_divergence,
    random_scalar,
    random_solenoidal,
)
from .oscillation import (
    OscillationReport,
    antidivergence,
    improved_holder_check,
    riemann_lebesgue_check,
)
from .mikado import (
    MikadoFamily,
    build_family,
    verify_family,
    scaling_report,
    gamma_exponent,
)
from .convexint import (
    IterateTriple,
    StepParams,
    StepReport,
    assemble_step,
    select_parameters,
    run_iteration,
    equation_residual,
    sampled_residual,
    h1_window,
    w1r_window,
    w1q_window,
    validate_mode,
)
from .seeds import seed_triple
from .driftdiff import (
    SolveConfig,
    TruncationSchedule,
    NonConvergence,
    solve,
    approximation_solution,
    energy_check,
    max_principle_sweep,
    moser_gns_check,
    commutator_check,
    uniqueness_probe,
)
from .ball import (
    SphericalPair,
    BallFieldSet,
    make_alpha_beta,
    build_fields,
    energy_defect,
    flux_check,
    singular_norm_report,
    grad_energy,
)

__version__ = "0.1.0"
