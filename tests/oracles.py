"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: series powers
go through the Miller recurrence instead of binomial factoring, the companion
weights varpi through a binomial-series product instead of their two-term
recurrence, the one-step solve assembles the raw coupled equations densely
instead of using the integrator's elimination + conjugate gradients, and the
manufactured fields and sources are written out as pointwise closed forms of
(x, y, t) instead of time factors times sampled profiles.
The semi-discrete manufactured case reuses the library's discrete curls on
purpose: it forces the space-discrete system so that its exact solution is
the sampled closed form, leaving only the time-discretization error to
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from colecole.manufactured import ManufacturedCase, _sin_pi, caputo_cubic_factor
from colecole.mesh import GridSpec, ScalarField, VecField, curl_e, curl_h
from colecole.stepper import Quadrature, SimState, Sources
from colecole.weights import SchemeParams, binomial_series


def with_p_history(state: SimState, history: tuple[VecField, ...], **changes) -> SimState:
    """A state fresh from ``init_state`` moved to n = len(history) - 1, with
    P^k = history[k] written into its history rows (history[0] must be zero)."""
    for k, q in enumerate(history):
        np.concatenate((q.ex, q.ey), axis=None, out=state.history.rows[k])
    state.history.filled = len(history)
    return replace(state, n=len(history) - 1, **changes)


def series_power(f: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """Coefficients of f(z)**alpha via the Miller recurrence (f[0] != 0)."""
    f = np.asarray(f, dtype=float)
    g = np.zeros(n + 1)
    g[0] = f[0] ** alpha
    for k in range(1, n + 1):
        s = 0.0
        for j in range(1, min(k, len(f) - 1) + 1):
            s += ((alpha + 1.0) * j - k) * f[j] * g[k - j]
        g[k] = s / (k * f[0])
    return g


def varpi_weights_by_series(params: SchemeParams, n: int) -> np.ndarray:
    """varpi_0..varpi_n as the coefficients of (1-z)^(1-alpha) (d0 + d1 z)^alpha,
    d0 = 1/2 + theta/alpha, d1 = 1/2 - theta/alpha, by binomial-series convolution."""
    a = params.alpha
    d0, d1 = 0.5 + params.shift_ratio, 0.5 - params.shift_ratio
    num = binomial_series(1.0 - a, -1.0, n)
    den = binomial_series(a, d1 / d0, n)
    return d0**a * np.convolve(num, den)[: n + 1]


@dataclass(frozen=True)
class ClosedForm:
    """The manufactured fields and sources of ``ManufacturedCase(alpha)`` as
    pointwise closed forms of (x, y, t), unit material coefficients."""

    alpha: float

    def e(self, x, y, t):
        decay = np.exp(-t)
        return decay * (x * x + 1.0) * _sin_pi(y), decay * _sin_pi(x) * (y - 0.5)

    def p(self, x, y, t):
        t3 = t**3
        return t3 * (x * x + 1.0) * y * (y - 1.0), t3 * x * (x - 1.0) * (y - 0.5)

    def h(self, x, y, t):
        return np.exp(-t) * (x**3 + 1.0) * (y**3 + 1.0)

    def f1(self, x, y, t):
        # c_e dE/dt + dP/dt - curl H; dE/dt = -E for the e^-t factor
        ex, ey = self.e(x, y, t)
        decay = np.exp(-t)
        return (
            -ex + 3.0 * t * t * (x * x + 1.0) * y * (y - 1.0) - decay * (x**3 + 1.0) * 3.0 * y * y,
            -ey + 3.0 * t * t * x * (x - 1.0) * (y - 0.5) + decay * 3.0 * x * x * (y**3 + 1.0),
        )

    def f2(self, x, y, t):
        # c_m dH/dt + curl E
        curl = np.exp(-t) * np.pi * (
            np.cos(np.pi * x) * (y - 0.5) - (x * x + 1.0) * np.cos(np.pi * y)
        )
        return -self.h(x, y, t) + curl

    def f3(self, x, y, t):
        # tau0^alpha D^alpha P + P - c_p E
        frac = caputo_cubic_factor(t, self.alpha)
        (px, py), (ex, ey) = self.p(x, y, t), self.e(x, y, t)
        return (
            frac * (x * x + 1.0) * y * (y - 1.0) + px - ex,
            frac * x * (x - 1.0) * (y - 0.5) + py - ey,
        )


def poly_sources(grid: GridSpec) -> Sources:
    """Smooth sources with distinct space and time dependence in every
    component, sampled on the dofs of grid."""
    xe, ye = grid.ex_coords()
    xn, yn = grid.ey_coords()
    xc, yc = grid.h_coords()

    def sources(t: float) -> tuple[VecField, ScalarField, VecField]:
        return (
            VecField(np.sin(t) * (1.0 + xe * ye), math.cos(t) * (xn - yn)),
            ScalarField(np.cos(2 * t) * (xc + 0.3 * yc * yc)),
            VecField(t * xe * xe, (1.0 - t) * yn),
        )

    return sources


@dataclass(frozen=True)
class SemiDiscreteCase(ManufacturedCase):
    """The manufactured case forced so that it solves the space-discrete system.

    Its curl profiles are the library's ``curl_h``/``curl_e`` of the sampled
    H and E profiles instead of the analytic curls.  E and H share the time
    factor e^-t, so at every t the sources hold the discrete curls of the
    sampled exact fields, the sampled closed-form fields satisfy the
    semi-discrete equations exactly, and
    ``convergence_table(SemiDiscreteCase(alpha, grid), theta, taus, grid)``
    measures the time-discretization error alone.
    """

    grid: GridSpec

    def sample(self, grid):
        if grid != self.grid:
            raise ValueError(f"case built for {self.grid}, sampled on {grid}")
        s = super().sample(grid)
        return replace(s, curl_h=curl_h(s.h, grid), curl_e=curl_e(s.e, grid))


def _flatten(e: VecField, h: ScalarField, p: VecField) -> np.ndarray:
    return np.concatenate([e.ex.ravel(), e.ey.ravel(), h.h.ravel(), p.ex.ravel(), p.ey.ravel()])


def _unflatten(x: np.ndarray, grid: GridSpec) -> tuple[VecField, ScalarField, VecField]:
    nex = grid.nx * (grid.ny + 1)
    ney = (grid.nx + 1) * grid.ny
    nh = grid.nx * grid.ny
    ex = x[:nex].reshape(grid.nx, grid.ny + 1)
    ey = x[nex : nex + ney].reshape(grid.nx + 1, grid.ny)
    h = x[nex + ney : nex + ney + nh].reshape(grid.nx, grid.ny)
    px = x[nex + ney + nh : 2 * nex + ney + nh].reshape(grid.nx, grid.ny + 1)
    py = x[2 * nex + ney + nh :].reshape(grid.nx + 1, grid.ny)
    return VecField(ex, ey), ScalarField(h), VecField(px, py)


def _pec_mask(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    mask_ex = np.zeros((grid.nx, grid.ny + 1), dtype=bool)
    mask_ex[:, 0] = mask_ex[:, -1] = True
    mask_ey = np.zeros((grid.nx + 1, grid.ny), dtype=bool)
    mask_ey[0, :] = mask_ey[-1, :] = True
    return mask_ex, mask_ey


def dense_step_solution(
    state: SimState, sources: Sources | None = None
) -> tuple[VecField, ScalarField, VecField]:
    """One step of the coupled scheme by direct dense solve of the raw equations.

    Unknowns are (E^n, H^n, P^n) stacked; the matrix is probed column by
    column from the equation set itself (no elimination, no iterative solve).
    """
    grid, mat, cfg = state.grid, state.material, state.config
    n = state.n + 1
    tau, theta = cfg.tau, cfg.theta
    one_m = 1.0 - theta
    t_mid = (n - theta) * tau
    if sources is None:
        f1 = VecField.zeros(grid)
        f2 = ScalarField.zeros(grid)
        f3 = VecField.zeros(grid)
    else:
        f1, f2, f3 = sources(t_mid)

    # History part of the fractional quadrature, straight from its definition.
    kern = state.kernel
    hist = VecField.zeros(grid)
    if cfg.quadrature is Quadrature.SFTR:
        p0 = state.p_history[0]
        for k in range(1, n):
            hist.ex += kern[n - k] * (state.p_history[k].ex - p0.ex)
            hist.ey += kern[n - k] * (state.p_history[k].ey - p0.ey)
        hist.ex -= kern[0] * p0.ex
        hist.ey -= kern[0] * p0.ey
    else:
        for k in range(0, n):
            hist.ex += kern[n - k] * state.p_history[k].ex
            hist.ey += kern[n - k] * state.p_history[k].ey
    hist = tau ** (-mat.alpha) * hist
    kappa = mat.tau0**mat.alpha * tau ** (-mat.alpha) * kern[0]

    mask_ex, mask_ey = _pec_mask(grid)

    def lhs_apply(x: np.ndarray) -> np.ndarray:
        e, h, p = _unflatten(x, grid)
        ch = curl_h(h, grid)
        row_e = VecField(
            (mat.c_e / tau) * e.ex + p.ex / tau - one_m * ch.ex,
            (mat.c_e / tau) * e.ey + p.ey / tau - one_m * ch.ey,
        )
        row_e.ex[mask_ex] = e.ex[mask_ex]  # boundary rows carry E = 0
        row_e.ey[mask_ey] = e.ey[mask_ey]
        row_h = ScalarField((mat.c_m / tau) * h.h + one_m * curl_e(e, grid).h)
        row_p = VecField(
            (kappa + one_m) * p.ex - mat.c_p * one_m * e.ex,
            (kappa + one_m) * p.ey - mat.c_p * one_m * e.ey,
        )
        return _flatten(row_e, row_h, row_p)

    ch_prev = curl_h(state.h, grid)
    rhs_e = VecField(
        (mat.c_e / tau) * state.e.ex + state.p.ex / tau + theta * ch_prev.ex + f1.ex,
        (mat.c_e / tau) * state.e.ey + state.p.ey / tau + theta * ch_prev.ey + f1.ey,
    )
    rhs_e.ex[mask_ex] = 0.0
    rhs_e.ey[mask_ey] = 0.0
    rhs_h = ScalarField(
        (mat.c_m / tau) * state.h.h - theta * curl_e(state.e, grid).h + f2.h
    )
    rhs_p = VecField(
        -(mat.tau0**mat.alpha) * hist.ex - theta * state.p.ex + mat.c_p * theta * state.e.ex + f3.ex,
        -(mat.tau0**mat.alpha) * hist.ey - theta * state.p.ey + mat.c_p * theta * state.e.ey + f3.ey,
    )
    b = _flatten(rhs_e, rhs_h, rhs_p)

    size = b.size
    a_mat = np.empty((size, size))
    basis = np.zeros(size)
    for j in range(size):
        basis[j] = 1.0
        a_mat[:, j] = lhs_apply(basis)
        basis[j] = 0.0
    x = np.linalg.solve(a_mat, b)
    return _unflatten(x, grid)
