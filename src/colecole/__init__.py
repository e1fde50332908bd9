"""Energy-decay preserving time integration for 2D Maxwell's equations in a
Cole-Cole dispersive medium.

The package provides the fractional convolution-quadrature weight machinery
(:mod:`colecole.weights`), a staggered transverse-electric grid and the
eigenbasis in which its adjoint discrete curls are diagonal
(:mod:`colecole.mesh`), the implicit shifted-trapezoidal theta integrator,
which steps in that basis, and a fractional BDF-2 variant
(:mod:`colecole.stepper`),
the discrete energy functional and decay diagnostics (:mod:`colecole.energy`),
a manufactured-solution convergence harness (:mod:`colecole.manufactured`),
and a CSV-emitting experiment CLI (:mod:`colecole.cli`).
"""

from .energy import (
    TRACE,
    DecayReport,
    decay_report,
    discrete_energy,
    dissipation_residual,
    energy_tolerance,
    run_decay_experiment,
)
from .manufactured import (
    ConvergenceRow,
    ManufacturedCase,
    SampledCase,
    convergence_table,
    decay_initial_data,
    error_norms,
    run_case,
)
from .mesh import CurlCurlBasis, GridSpec, ScalarField, VecField, norm_sq
from .stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SimState,
    SolverError,
    Sources,
    Spectrum,
    frac_deriv_current,
    init_state,
    run,
    solve_spd,
    step,
)
from .weights import (
    SchemeParams,
    SymbolKind,
    binomial_series,
    cumulative_weights,
    exponential_tail,
    fbdf2_weights,
    min_theta_gap_grid,
    sftr_weights,
    shift_combine,
    symbol_residual,
    theta_gap,
    varpi_weights,
)

__all__ = [
    "ConvergenceRow",
    "CurlCurlBasis",
    "DecayReport",
    "GridSpec",
    "ManufacturedCase",
    "MaterialParams",
    "Quadrature",
    "SampledCase",
    "ScalarField",
    "SchemeConfig",
    "SchemeParams",
    "SimState",
    "SolverError",
    "Sources",
    "Spectrum",
    "SymbolKind",
    "TRACE",
    "VecField",
    "binomial_series",
    "convergence_table",
    "cumulative_weights",
    "decay_initial_data",
    "decay_report",
    "discrete_energy",
    "dissipation_residual",
    "energy_tolerance",
    "error_norms",
    "exponential_tail",
    "fbdf2_weights",
    "frac_deriv_current",
    "init_state",
    "min_theta_gap_grid",
    "norm_sq",
    "run",
    "run_case",
    "run_decay_experiment",
    "sftr_weights",
    "shift_combine",
    "solve_spd",
    "step",
    "symbol_residual",
    "theta_gap",
    "varpi_weights",
]

__version__ = "0.1.0"
