"""Discrete energy functional and decay diagnostics.

The energy after step n is

    E~^n = tau0^alpha * tau^alpha * sum_{k=0..n} a_k s_{n-k}
           + ||P^n||^2 + c_p (c_e ||E^n||^2 + c_m ||H^n||^2)

with s_j = ||D^alpha P at t_{j-theta}||^2 (s_0 = 0; ``PHistory.s``) and a_k
the cumulative companion weights of the run's (alpha, theta),
``SimState.a_weights``.  The history keeps every s_j, one scalar per step,
while it folds the old P^k into its exponential tail, so the memory term is
an exact sum over the whole run.  The norms are sums of squares of the state's
coefficients times dx dy (Parseval), so the functional is a sum of per-mode
energies, the memory term included, since each s_j is a sum over modes too.
For the shifted-trapezoidal scheme with theta in [alpha/2, 1/2] the sequence
E~^n is non-increasing, with the per-step bound

    (E~^n - E~^{n-1})/tau + tau0^alpha tau^(1-alpha)/varpi_0 ||d_tau P||^2 <= 0,

where varpi_0 = a_0.  ``dissipation_residual`` evaluates the left side
from the state after a step and the P^{n-1} array held before it, which
stays valid because :func:`colecole.stepper.step` advances the run's one
state in place by rebinding its arrays.  ``run_decay_experiment`` records
a run in one :data:`TRACE` record array, a row per step: each step's energy
without its memory term, then, after the last step, every step's memory term
at once, the first N+1 coefficients of a(z) s(z) (:func:`series_product`).
``decay_report`` checks a trace and summarizes its monotonicity violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manufactured import decay_initial_data
from .mesh import GridSpec, einsum, norm_sq
from .stepper import MaterialParams, Quadrature, SchemeConfig, SimState, init_state, preflight, step
from .weights import series_product


# A run's trace has one row per step, n = 0..N: the step, its time, the
# energy E~^n, the dissipation residual of the step (0 at n = 0) and the
# violation max(0, E~^n - E~^(n-1)).  The names are the columns of the
# ``energy`` CSV.
TRACE = np.dtype(
    [("n", np.int64), ("t", float), ("energy", float), ("dissipation", float), ("violation", float)]
)


@dataclass(frozen=True)
class DecayReport:
    violation_count: int
    max_violation: float
    first_violation_step: int | None
    tolerance: float


def energy_tolerance(initial_energy: float) -> float:
    """Violation threshold 1e-10 * (1 + E~^0), scaled so rounding noise on
    large energies is not misread as a decay violation."""
    return 1e-10 * (1.0 + initial_energy)


def discrete_energy(state: SimState) -> float:
    """Energy functional E~^n for the given state, with the state's own
    weights a_0..a_n."""
    mat, cfg, n = state.material, state.config, state.n
    # einsum, not np.dot: no BLAS threads on the step path.
    memory = mat.tau0**mat.alpha * cfg.tau**mat.alpha * float(
        einsum("i,i->", state.a_weights[: n + 1], state.history.s[n::-1])
    )
    return memory + _instant_energy(state)


def _instant_energy(state: SimState) -> float:
    """E~^n without its memory term: ||P^n||^2 + c_p (c_e ||E^n||^2 + c_m ||H^n||^2)."""
    mat, grid = state.material, state.grid
    return norm_sq(state.p, grid) + mat.c_p * (
        mat.c_e * norm_sq(state.e, grid) + mat.c_m * norm_sq(state.h, grid)
    )


def dissipation_residual(state: SimState, p_prev: np.ndarray, e_prev: float, e_new: float) -> float:
    """Left side of the per-step dissipation bound of the step that took the
    run to ``state``, given P^{n-1} (``state.p`` before the step) and the
    energies e_prev and e_new before and after it (:func:`discrete_energy`);
    varpi_0 is read from the state as a_0.

    Nonpositive (within :func:`energy_tolerance`) for source-free
    shifted-trapezoidal runs with theta in [alpha/2, 1/2]; recorded without a
    sign guarantee for the BDF-2 comparison kernel.
    """
    mat, grid, tau = state.material, state.grid, state.config.tau
    dp = (1.0 / tau) * (state.p - p_prev)
    return (e_new - e_prev) / tau + (
        mat.tau0**mat.alpha * tau ** (1.0 - mat.alpha) / state.a_weights[0]
    ) * norm_sq(dp, grid)


def decay_report(trace: np.ndarray) -> DecayReport:
    """Count energy increases beyond :func:`energy_tolerance` of E~^0 in a
    :data:`TRACE` record array.  :class:`ValueError` at the first step whose
    energy is negative or not finite, or whose dissipation or violation is
    not finite, which no count could describe."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    energy, dissipation, violation = trace["energy"], trace["dissipation"], trace["violation"]
    finite = np.isfinite(energy) & np.isfinite(dissipation) & np.isfinite(violation)
    bad = np.flatnonzero(~finite | (energy < 0.0))
    if len(bad):
        i, n = bad[0], trace["n"][bad[0]]
        if not finite[i]:
            raise ValueError(f"non-finite energy record at step {n}: {energy[i]}, {dissipation[i]}")
        raise ValueError(f"discrete energy must be nonnegative, got {energy[i]} at step {n}")
    tol = energy_tolerance(float(energy[0]))
    over = np.flatnonzero(violation > tol)
    first = int(trace["n"][over[0]]) if len(over) else None
    return DecayReport(len(over), float(violation.max()), first, tol)


def run_decay_experiment(
    alpha: float,
    theta: float,
    grid: GridSpec,
    tau: float,
    n_steps: int,
    quadrature: Quadrature = Quadrature.SFTR,
) -> tuple[SimState, np.ndarray, DecayReport]:
    """Source-free decay run with unit material coefficients.

    Initial data is the standard experiment profile (polynomial-times-sine
    electric field, cubic-product magnetic field, zero polarization); the
    returned :data:`TRACE` array holds the energy and dissipation residual of
    every step.  The trace is checked once, when the last step is done, by
    :func:`decay_report`: :class:`ValueError` at the first step whose energy
    is negative or not finite, or whose dissipation residual is not finite.
    The BDF-2 kernel is monitored with the same functional: its state
    carries the trapezoidal companion weights at the run's (alpha, theta).
    :class:`MemoryError` if the run would not fit in physical memory, before
    the initial data are sampled.
    """
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    preflight(grid, material, config)
    # straight in: the dof-space initial data are freed once transformed
    state = init_state(grid, material, config, *decay_initial_data(grid))
    trace = np.zeros(n_steps + 1, TRACE)
    instant, residual, n = discrete_energy(state), 0.0, 0  # E~^0 has no memory term: s_0 = 0
    trace[0] = 0, state.time, instant, 0.0, 0.0
    # a record that is not finite ends the run, which cannot go on from it
    while n < n_steps and all(map(math.isfinite, (instant, residual, state.history.s[n]))):
        p_prev, previous = state.p, instant
        n = step(state).n
        instant = _instant_energy(state)
        residual = dissipation_residual(state, p_prev, previous, instant)
        trace[n] = n, state.time, instant, residual, 0.0
    # Every step's memory term at once.  Past a non-finite s_j none is
    # defined, and the FFT would spread it to the steps before.
    s = state.history.s
    known = int(np.argmin(np.isfinite(s))) or len(s)  # s_0 = 0: 0 only if none is bad
    memory = np.full(n_steps + 1, np.nan)
    memory[:known] = series_product(state.a_weights[:known], s[:known])
    memory[0] = 0.0  # s_0 = 0: E~^0 is discrete_energy's
    memory *= material.tau0**alpha * tau**alpha
    trace["energy"] += memory
    trace["dissipation"][1:] += np.diff(memory) / tau
    np.maximum(0.0, np.diff(trace["energy"]), out=trace["violation"][1:])
    return state, trace, decay_report(trace)
