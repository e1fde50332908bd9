"""Manufactured exact solution, its sources, and the temporal convergence
harness.

The prescribed fields on (0,1)^2 with unit material coefficients are

    E(x,y,t) = e^-t ((x^2+1) sin(pi y),  sin(pi x) (y - 1/2))
    P(x,y,t) = t^3  ((x^2+1) y (y-1),    x (x-1) (y - 1/2))
    H(x,y,t) = e^-t (x^3+1)(y^3+1)

E is tangential-zero on the boundary and P vanishes at t = 0, so the triple
is admissible initial-boundary data.  Substituting into the forced system
yields closed-form sources; the only fractional ingredient is the Caputo
derivative of the cubic time factor,
d^alpha/dt^alpha t^3 = 6 t^(3-alpha) / Gamma(4-alpha).

Every field and source is separable: scalar time factors times five spatial
profiles, phi_E, phi_P, phi_H, phi_cH = curl phi_H (on the edges) and
phi_cE = curl phi_E (at the cell centres):

    f1 = c_e dE/dt + dP/dt - curl H          = 3t^2 phi_P - e^-t (phi_E + phi_cH)
    f2 = c_m dH/dt + curl E                  = e^-t (phi_cE - phi_H)
    f3 = tau0^alpha D^alpha P + P - c_p E    = (D^alpha t^3 + t^3) phi_P - e^-t phi_E

:meth:`ManufacturedCase.sample` evaluates the profiles once on the dofs of a
grid, each vector component on its own dof set.  The :class:`SampledCase` it
returns gives the exact fields and the sources at any t as time factors
times those arrays, so a run evaluates no formula of the coordinates per
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stepper
from .mesh import GridSpec, ScalarField, VecField, norm_e, norm_h, sample_scalar, sample_vec
from .stepper import MaterialParams, Quadrature, SchemeConfig, SimState, init_state, step


def caputo_cubic_factor(t: float | np.ndarray, alpha: float) -> float | np.ndarray:
    """Caputo derivative of t^3: 6 t^(3-alpha) / Gamma(4-alpha)."""
    return 6.0 / math.gamma(4.0 - alpha) * np.power(t, 3.0 - alpha)


def _sin_pi(v):
    """sin(pi*v), exactly zero at integer v (where the analytic value is zero)."""
    v = np.asarray(v, dtype=float)
    return np.where(v == np.floor(v), 0.0, np.sin(np.pi * v))


# The spatial profiles as functions of (x, y): an (x, y) component pair for
# the edge fields E, P and curl H, one function for the cell fields H and curl E.
PROFILES = {
    "e": (lambda x, y: (x * x + 1.0) * _sin_pi(y), lambda x, y: _sin_pi(x) * (y - 0.5)),
    "p": (lambda x, y: (x * x + 1.0) * y * (y - 1.0), lambda x, y: x * (x - 1.0) * (y - 0.5)),
    "h": lambda x, y: (x**3 + 1.0) * (y**3 + 1.0),
    "curl_h": (lambda x, y: (x**3 + 1.0) * 3.0 * y * y, lambda x, y: -3.0 * x * x * (y**3 + 1.0)),
    "curl_e": lambda x, y: np.pi * (
        np.cos(np.pi * x) * (y - 0.5) - (x * x + 1.0) * np.cos(np.pi * y)
    ),
}


@dataclass(frozen=True, eq=False)
class SampledCase:
    """A manufactured case on the dofs of one grid: the five spatial profiles
    (see the module docstring), each sampled once."""

    material: MaterialParams
    grid: GridSpec
    e: VecField
    p: VecField
    h: ScalarField
    curl_h: VecField
    curl_e: ScalarField

    def exact(self, t: float) -> tuple[VecField, VecField, ScalarField]:
        """(E, P, H) on the dofs at time t."""
        decay = math.exp(-t)
        return decay * self.e, t**3 * self.p, decay * self.h

    def sources(self, t: float) -> tuple[VecField, ScalarField, VecField]:
        """(f1, f2, f3) on the dofs at time t: the ``sources`` callable of
        :func:`colecole.stepper.step`."""
        decay = math.exp(-t)
        frac = caputo_cubic_factor(t, self.material.alpha)
        return (
            (3.0 * t * t) * self.p - decay * (self.e + self.curl_h),
            decay * (self.curl_e - self.h),
            (frac + t**3) * self.p - decay * self.e,
        )

    def initial_state(self, config: SchemeConfig) -> SimState:
        e0, _, h0 = self.exact(0.0)
        return init_state(self.grid, self.material, config, e0.enforce_pec(), h0)


@dataclass(frozen=True)
class ManufacturedCase:
    """The manufactured solution for one fractional order."""

    alpha: float

    def sample(self, grid: GridSpec) -> SampledCase:
        """The case's profiles on the dofs of grid, sampled through
        :mod:`colecole.stepper`, where the benchmark's ``manufactured.sample``
        spans wrap the samplers."""
        vec, scalar = stepper.sample_vec, stepper.sample_scalar
        material = MaterialParams(c_e=1.0, c_m=1.0, c_p=1.0, tau0=1.0, alpha=self.alpha)
        e, p, curl_h = (vec(PROFILES[k], grid) for k in ("e", "p", "curl_h"))
        h, curl_e = (scalar(PROFILES[k], grid) for k in ("h", "curl_e"))
        return SampledCase(material, grid, e, p, h, curl_h, curl_e)


def error_norms(state: SimState, case: SampledCase) -> tuple[float, float, float]:
    """Discrete L2 norms of the (E, H, P) errors at the state's time."""
    e_ex, p_ex, h_ex = case.exact(state.time)
    return (
        norm_e(state.e - e_ex, state.grid),
        norm_h(state.h - h_ex, state.grid),
        norm_e(state.p - p_ex, state.grid),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    err_e: float
    err_h: float
    err_p: float
    rate_e: float | None = None
    rate_h: float | None = None
    rate_p: float | None = None


def run_case(
    case: SampledCase,
    theta: float,
    tau: float,
    quadrature: Quadrature = Quadrature.SFTR,
) -> tuple[float, float, float]:
    """Integrate to t = 1 and return global (max over steps) errors."""
    n_steps = round(1.0 / tau)
    if abs(n_steps * tau - 1.0) > 1e-12:
        raise ValueError(f"tau={tau} does not divide the final time 1")
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    state = case.initial_state(config)
    err_e = err_h = err_p = 0.0
    while state.n < n_steps:
        state = step(state, case.sources)
        ee, eh, ep = error_norms(state, case)
        err_e, err_h, err_p = max(err_e, ee), max(err_h, eh), max(err_p, ep)
    return err_e, err_h, err_p


def convergence_table(
    case: ManufacturedCase,
    theta: float,
    taus: list[float],
    grid: GridSpec,
    quadrature: Quadrature = Quadrature.SFTR,
) -> list[ConvergenceRow]:
    """Global errors and successive log2 rates over a halving tau sequence."""
    sampled = case.sample(grid)
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for tau in taus:
        err_e, err_h, err_p = run_case(sampled, theta, tau, quadrature)
        if prev is None:
            rows.append(ConvergenceRow(tau, err_e, err_h, err_p))
        else:
            ratio = math.log2(prev.tau / tau)
            rows.append(
                ConvergenceRow(
                    tau,
                    err_e,
                    err_h,
                    err_p,
                    rate_e=math.log2(prev.err_e / err_e) / ratio,
                    rate_h=math.log2(prev.err_h / err_h) / ratio,
                    rate_p=math.log2(prev.err_p / err_p) / ratio,
                )
            )
        prev = rows[-1]
    return rows


def decay_initial_data(grid: GridSpec) -> tuple[VecField, ScalarField]:
    """Source-free experiment initial data: the manufactured E and H at t = 0.

    Sampled through :mod:`colecole.mesh`, outside the benchmark's
    ``manufactured.sample`` spans, which time the forced harness only."""
    return sample_vec(PROFILES["e"], grid).enforce_pec(), sample_scalar(PROFILES["h"], grid)
