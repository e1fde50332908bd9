"""Manufactured exact solution, analytic source terms, and the temporal
convergence harness.

The prescribed fields on (0,1)^2 with unit material coefficients are

    E(x,y,t) = e^-t ((x^2+1) sin(pi y),  sin(pi x) (y - 1/2))
    P(x,y,t) = t^3  ((x^2+1) y (y-1),    x (x-1) (y - 1/2))
    H(x,y,t) = e^-t (x^3+1)(y^3+1)

E is tangential-zero on the boundary and P vanishes at t = 0, so the triple
is admissible initial-boundary data.  Substituting into the forced system
yields closed-form sources; the only fractional ingredient is the Caputo
derivative of the cubic time factor,
d^alpha/dt^alpha t^3 = 6 t^(3-alpha) / Gamma(4-alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import GridSpec, ScalarField, VecField, norm_e, norm_h
from .stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SimState,
    SourceSet,
    init_state,
    sample_scalar,
    sample_vec,
    step,
)


def caputo_cubic_factor(t: float | np.ndarray, alpha: float) -> float | np.ndarray:
    """Caputo derivative of t^3: 6 t^(3-alpha) / Gamma(4-alpha)."""
    return 6.0 / math.gamma(4.0 - alpha) * np.power(t, 3.0 - alpha)


def _sin_pi(v):
    """sin(pi*v), exactly zero at integer v (where the analytic value is zero)."""
    v = np.asarray(v, dtype=float)
    return np.where(v == np.floor(v), 0.0, np.sin(np.pi * v))


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, derivatives, and sources for one fractional order."""

    alpha: float

    @property
    def material(self) -> MaterialParams:
        return MaterialParams(c_e=1.0, c_m=1.0, c_p=1.0, tau0=1.0, alpha=self.alpha)

    # -- exact fields -------------------------------------------------------

    def e_exact(self, x, y, t):
        decay = np.exp(-t)
        return decay * (x * x + 1.0) * _sin_pi(y), decay * _sin_pi(x) * (y - 0.5)

    def p_exact(self, x, y, t):
        t3 = t**3
        return t3 * (x * x + 1.0) * y * (y - 1.0), t3 * x * (x - 1.0) * (y - 0.5)

    def h_exact(self, x, y, t):
        return np.exp(-t) * (x**3 + 1.0) * (y**3 + 1.0)

    # -- analytic derivatives entering the sources --------------------------

    def _curl_h(self, x, y, t):
        decay = np.exp(-t)
        return decay * (x**3 + 1.0) * 3.0 * y * y, -decay * 3.0 * x * x * (y**3 + 1.0)

    def _curl_e(self, x, y, t):
        return np.exp(-t) * np.pi * (
            np.cos(np.pi * x) * (y - 0.5) - (x * x + 1.0) * np.cos(np.pi * y)
        )

    # -- sources -------------------------------------------------------------

    def f1(self, x, y, t):
        dex, dey = self.e_exact(x, y, t)  # dE/dt = -E for the e^-t factor
        dpx = 3.0 * t * t * (x * x + 1.0) * y * (y - 1.0)
        dpy = 3.0 * t * t * x * (x - 1.0) * (y - 0.5)
        cx, cy = self._curl_h(x, y, t)
        return -dex + dpx - cx, -dey + dpy - cy

    def f2(self, x, y, t):
        return -self.h_exact(x, y, t) + self._curl_e(x, y, t)

    def f3(self, x, y, t):
        frac = caputo_cubic_factor(t, self.alpha)
        sx, sy = (x * x + 1.0) * y * (y - 1.0), x * (x - 1.0) * (y - 0.5)
        px, py = self.p_exact(x, y, t)
        ex, ey = self.e_exact(x, y, t)
        return frac * sx + px - ex, frac * sy + py - ey

    def sources(self) -> SourceSet:
        return SourceSet(f1=self.f1, f2=self.f2, f3=self.f3)

    # -- sampling ------------------------------------------------------------

    def sample_exact(self, grid: GridSpec, t: float) -> tuple[VecField, VecField, ScalarField]:
        e = sample_vec(lambda x, y, tt: self.e_exact(x, y, tt), grid, t)
        p = sample_vec(lambda x, y, tt: self.p_exact(x, y, tt), grid, t)
        h = sample_scalar(lambda x, y, tt: self.h_exact(x, y, tt), grid, t)
        return e, p, h

    def initial_state(self, grid: GridSpec, config: SchemeConfig) -> SimState:
        e0, _, h0 = self.sample_exact(grid, 0.0)
        return init_state(grid, self.material, config, e0.enforce_pec(), h0)


def error_norms(state: SimState, t: float, case: ManufacturedCase) -> tuple[float, float, float]:
    """Discrete L2 norms of (E, H, P) errors against the dof-sampled exact fields."""
    e_ex, p_ex, h_ex = case.sample_exact(state.grid, t)
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
    case: ManufacturedCase,
    grid: GridSpec,
    theta: float,
    tau: float,
    quadrature: Quadrature = Quadrature.SFTR,
) -> tuple[float, float, float]:
    """Integrate to t = 1 and return global (max over steps) errors."""
    n_steps = round(1.0 / tau)
    if abs(n_steps * tau - 1.0) > 1e-12:
        raise ValueError(f"tau={tau} does not divide the final time 1")
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    state = case.initial_state(grid, config)
    sources = case.sources()
    err_e = err_h = err_p = 0.0
    while state.n < n_steps:
        state = step(state, sources)
        ee, eh, ep = error_norms(state, state.time, case)
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
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for tau in taus:
        err_e, err_h, err_p = run_case(case, grid, theta, tau, quadrature)
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
    """Source-free experiment initial data: the manufactured E and H at t = 0."""
    case = ManufacturedCase(alpha=0.5)
    e0, _, h0 = case.sample_exact(grid, 0.0)
    return e0.enforce_pec(), h0
