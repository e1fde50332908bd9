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
state in place by rebinding its arrays; ``decay_report`` summarizes
monotonicity violations of a recorded trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manufactured import decay_initial_data
from .mesh import GridSpec, norm_sq
from .stepper import MaterialParams, Quadrature, SchemeConfig, SimState, init_state, preflight, step


@dataclass
class EnergyTrace:
    """Per-step energy record of one run."""

    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    dissipations: list[float] = field(default_factory=list)
    violations: list[float] = field(default_factory=list)

    def append(self, n: int, t: float, energy: float, dissipation: float) -> None:
        if not (math.isfinite(energy) and math.isfinite(dissipation)):
            raise ValueError(f"non-finite energy record at step {n}: {energy}, {dissipation}")
        if energy < 0.0:
            raise ValueError(f"discrete energy must be nonnegative, got {energy}")
        violation = 0.0
        if self.energies:
            violation = max(0.0, energy - self.energies[-1])
        self.steps.append(n)
        self.times.append(t)
        self.energies.append(energy)
        self.dissipations.append(dissipation)
        self.violations.append(violation)

    def __len__(self) -> int:
        return len(self.steps)


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
    mat, cfg, grid, n = state.material, state.config, state.grid, state.n
    # einsum, not np.dot: no BLAS threads on the step path.
    memory = mat.tau0**mat.alpha * cfg.tau**mat.alpha * float(
        np.einsum("i,i->", state.a_weights[: n + 1], state.history.s[n::-1])
    )
    return (
        memory
        + norm_sq(state.p, grid)
        + mat.c_p * (mat.c_e * norm_sq(state.e, grid) + mat.c_m * norm_sq(state.h, grid))
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
    mat, cfg, grid = state.material, state.config, state.grid
    tau = cfg.tau
    dp = (1.0 / tau) * (state.p - p_prev)
    return (e_new - e_prev) / tau + (
        mat.tau0**mat.alpha * tau ** (1.0 - mat.alpha) / state.a_weights[0]
    ) * norm_sq(dp, grid)


def decay_report(trace: EnergyTrace) -> DecayReport:
    """Count energy increases beyond :func:`energy_tolerance` of E~^0 in a trace."""
    if not trace.energies:
        raise ValueError("empty trace")
    tol = energy_tolerance(trace.energies[0])
    count = 0
    max_violation = 0.0
    first: int | None = None
    for n, v in zip(trace.steps, trace.violations):
        if v > tol:
            count += 1
            if first is None:
                first = n
        max_violation = max(max_violation, v)
    return DecayReport(count, max_violation, first, tol)


def run_decay_experiment(
    alpha: float,
    theta: float,
    grid: GridSpec,
    tau: float,
    n_steps: int,
    quadrature: Quadrature = Quadrature.SFTR,
) -> tuple[SimState, EnergyTrace, DecayReport]:
    """Source-free decay run with unit material coefficients.

    Initial data is the standard experiment profile (polynomial-times-sine
    electric field, cubic-product magnetic field, zero polarization); the
    returned trace holds the energy and dissipation residual of every step.
    The BDF-2 kernel is monitored with the same functional: its state
    carries the trapezoidal companion weights at the run's (alpha, theta).
    :class:`MemoryError` if the run would not fit in physical memory, before
    the initial data are sampled.
    """
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    preflight(grid, material, config)
    e0, h0 = decay_initial_data(grid)
    state = init_state(grid, material, config, e0, h0)
    energy = discrete_energy(state)
    trace = EnergyTrace()
    trace.append(0, 0.0, energy, 0.0)
    while state.n < n_steps:
        p_prev = state.p
        step(state)
        new_energy = discrete_energy(state)
        r = dissipation_residual(state, p_prev, energy, new_energy)
        trace.append(state.n, state.time, new_energy, r)
        energy = new_energy
    return state, trace, decay_report(trace)
