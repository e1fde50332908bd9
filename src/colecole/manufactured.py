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
grid, each vector component on its own dof set, and transforms them once to
the coefficients of :class:`~colecole.mesh.CurlCurlBasis`, in which a run
keeps its fields.  The :class:`SampledCase` it returns gives the exact fields
and the sources at any t as time factors times those arrays, and its
``initial_state`` gives a run those sources at set-up, so a run evaluates
no formula of the coordinates and computes no transform per step.
Coefficients hold no boundary values: phi_E and phi_P must vanish on the
tangential boundary, as they do, and phi_cH's boundary values only enter f1,
whose boundary values the scheme does not use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stepper
from .mesh import CurlCurlBasis, GridSpec, VecField, norm_sq, sample_scalar, sample_vec
from .stepper import (
    MaterialParams, Quadrature, SchemeConfig, SimState, _initial_state, _layout, preflight, step
)


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
    """A manufactured case on one grid: the five spatial profiles (see the
    module docstring), each sampled once and held as coefficients, e, p and
    curl_h as edge coefficients in the layout of the identity
    :class:`~colecole.mesh.Span` (the (2, nx, ny) array raveled), h and
    curl_e as (nx, ny) cell coefficients.  Its runs are forced: identity span."""

    material: MaterialParams
    grid: GridSpec
    e: np.ndarray
    p: np.ndarray
    h: np.ndarray
    curl_h: np.ndarray
    curl_e: np.ndarray

    def exact(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E, P, H) at time t, as coefficients."""
        decay = math.exp(-t)
        return decay * self.e, t**3 * self.p, decay * self.h

    def sources(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f1, f2, f3) at time t, as coefficients: the
        :data:`~colecole.stepper.Sources` of the case's runs."""
        decay = math.exp(-t)
        frac = caputo_cubic_factor(t, self.material.alpha)
        return (
            (3.0 * t * t) * self.p - decay * (self.e + self.curl_h),
            decay * (self.curl_e - self.h),
            (frac + t**3) * self.p - decay * self.e,
        )

    def initial_state(self, config: SchemeConfig) -> SimState:
        """The state at t = 0 of a run forced by :meth:`sources`."""
        history = preflight(self.grid, self.material, config)
        e0, _, h0 = self.exact(0.0)
        span, e0 = _layout(self.grid, e0, self.sources)
        return _initial_state(self.grid, self.material, config, history, span, e0, h0, self.sources)


@dataclass(frozen=True)
class ManufacturedCase:
    """The manufactured solution for one fractional order."""

    alpha: float

    def sample(self, grid: GridSpec) -> SampledCase:
        """The case's profiles on the dofs of grid as coefficients, sampled
        through :mod:`colecole.stepper`, where the benchmark's
        ``manufactured.sample`` spans wrap the samplers.

        Raises :class:`ValueError` if phi_E or phi_P, and so E, P and f3, are
        not zero on the tangential boundary of grid: coefficients cannot
        hold those values.
        """
        vec, scalar = stepper.sample_vec, stepper.sample_scalar
        material = MaterialParams(alpha=self.alpha)
        e, p, curl_h = (vec(PROFILES[k], grid) for k in ("e", "p", "curl_h"))
        h, curl_e = (scalar(PROFILES[k], grid) for k in ("h", "curl_e"))
        for name, field in (("phi_E", e), ("phi_P", p)):
            if not field.is_pec_compliant():
                raise ValueError(f"{name} is not zero on the tangential boundary of {grid}")
        basis = CurlCurlBasis(grid)
        e, p, curl_h = (basis.forward(f.ex, f.ey).reshape(-1) for f in (e, p, curl_h))
        h, curl_e = (basis.forward_cell(f) for f in (h, curl_e))
        return SampledCase(material, grid, e, p, h, curl_h, curl_e)


def error_norms(state: SimState, case: SampledCase) -> tuple[float, float, float]:
    """Discrete L2 norms of the (E, H, P) errors at the state's time, from
    the coefficients by Parseval."""
    e_ex, p_ex, h_ex = case.exact(state.time)
    grid = state.grid
    return (
        math.sqrt(norm_sq(state.e - e_ex, grid)),
        math.sqrt(norm_sq(state.h - h_ex, grid)),
        math.sqrt(norm_sq(state.p - p_ex, grid)),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a convergence table, its fields in the CSV's column order;
    the rates are None in the first row."""

    tau: float
    err_e: float
    rate_e: float | None
    err_h: float
    rate_h: float | None
    err_p: float
    rate_p: float | None


def _step_count(tau: float) -> int:
    """Number of steps of size tau to the final time 1, which tau must divide."""
    n_steps = round(1.0 / tau)
    if abs(n_steps * tau - 1.0) > 1e-12:
        raise ValueError(f"tau={tau} does not divide the final time 1")
    return n_steps


def run_case(
    case: SampledCase,
    theta: float,
    tau: float,
    quadrature: Quadrature = Quadrature.SFTR,
) -> tuple[float, float, float]:
    """Integrate to t = 1 and return global (max over steps) errors."""
    n_steps = _step_count(tau)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    state = case.initial_state(config)
    err_e = err_h = err_p = 0.0
    while state.n < n_steps:
        step(state)
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
    """Global errors and successive log2 rates over a halving tau sequence,
    all of which is checked before the first run: :class:`MemoryError` if a
    run would not fit in physical memory, before the case is sampled."""
    counts = [_step_count(tau) for tau in taus]
    for k in range(1, len(taus)):
        if counts[k] == counts[k - 1]:
            raise ValueError(f"tau={taus[k]:g} (entry {k + 1}) repeats the step before it")
    material = MaterialParams(alpha=case.alpha)
    for tau, n_steps in zip(taus, counts):
        preflight(grid, material, SchemeConfig(theta, tau, n_steps, quadrature))
    sampled = case.sample(grid)
    rows: list[ConvergenceRow] = []
    prev = None  # (tau, errors) of the previous run
    for tau in taus:
        errs = run_case(sampled, theta, tau, quadrature)
        rates = (None, None, None)
        if prev is not None:
            ratio = math.log2(prev[0] / tau)
            rates = tuple(math.log2(p / e) / ratio for p, e in zip(prev[1], errs))
        (err_e, err_h, err_p), (rate_e, rate_h, rate_p) = errs, rates
        rows.append(ConvergenceRow(tau, err_e, rate_e, err_h, rate_h, err_p, rate_p))
        prev = tau, errs
    return rows


def decay_initial_data(grid: GridSpec) -> tuple[VecField, np.ndarray]:
    """Source-free experiment initial data: the manufactured E and H at t = 0,
    E as an edge pair and H as an (nx, ny) cell array.

    Sampled through :mod:`colecole.mesh`, outside the benchmark's
    ``manufactured.sample`` spans, which time the forced harness only."""
    return sample_vec(PROFILES["e"], grid).enforce_pec(), sample_scalar(PROFILES["h"], grid)
