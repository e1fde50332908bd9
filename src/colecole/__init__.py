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
and a CSV-emitting experiment CLI (:mod:`colecole.cli`), whose sweeps run
their entries side by side in forked processes (:mod:`colecole.sweep`).

The package root exports what a run's callers use; the pieces inside a step
or a weight build are imported from their modules.

The package calls no BLAS routine: every contraction is an ``einsum`` or a
ufunc.  OpenBLAS would still start a worker pool when numpy loads it, and
the idle workers spin for about 0.1 s of CPU per process.  So if numpy is not
loaded yet and ``OPENBLAS_NUM_THREADS`` is not set, importing the package
loads numpy with ``OPENBLAS_NUM_THREADS=1`` and then removes the variable
again: the process keeps one BLAS thread for its life, and the environment
that subprocesses inherit is unchanged.  To keep a pool, set
``OPENBLAS_NUM_THREADS`` yourself or import numpy before the package.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reads it once, as numpy loads it
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del _numpy
del _os, _sys

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
from .mesh import CurlCurlBasis, GridSpec, VecField, norm_sq
from .stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SimState,
    SolverError,
    Sources,
    init_state,
    run,
    step,
)
from .weights import (
    cumulative_weights,
    fbdf2_weights,
    min_theta_gap_grid,
    sftr_weights,
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
    "SchemeConfig",
    "SimState",
    "SolverError",
    "Sources",
    "TRACE",
    "VecField",
    "convergence_table",
    "cumulative_weights",
    "decay_initial_data",
    "decay_report",
    "discrete_energy",
    "dissipation_residual",
    "energy_tolerance",
    "error_norms",
    "fbdf2_weights",
    "init_state",
    "min_theta_gap_grid",
    "norm_sq",
    "run",
    "run_case",
    "run_decay_experiment",
    "sftr_weights",
    "step",
    "varpi_weights",
]

__version__ = "0.1.0"
