"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: series powers
go through the Miller recurrence instead of binomial factoring, the companion
weights varpi through a binomial-series product instead of their two-term
recurrence, and the one-step solve assembles the raw coupled equations
densely instead of using the integrator's elimination + conjugate gradients.
The semi-discrete manufactured case reuses the library's discrete curls on
purpose: it forces the space-discrete system so that its exact solution is
the sampled closed form, leaving only the time-discretization error to
measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from colecole.manufactured import ManufacturedCase
from colecole.mesh import GridSpec, ScalarField, VecField, curl_e, curl_h
from colecole.stepper import Quadrature, SimState, SourceSet, sample_scalar, sample_vec
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
class SemiDiscreteCase(ManufacturedCase):
    """The manufactured case forced so that it solves the space-discrete system.

    The curls in f1 and f2 are the library's ``curl_h``/``curl_e`` applied to
    the sampled exact H and E instead of the analytic curls, so the sampled
    closed-form fields satisfy the semi-discrete equations exactly and
    ``convergence_table(SemiDiscreteCase(alpha, grid), theta, taus, grid)``
    measures the time-discretization error alone.

    ``sample_vec`` evaluates f1 on the ex dofs and keeps component 0, then on
    the ey dofs and keeps component 1; the discrete curl is returned in the
    component being kept and NaN in the one being discarded.
    """

    grid: GridSpec

    def _curl_h(self, x, y, t):
        ch = curl_h(sample_scalar(self.h_exact, self.grid, t), self.grid)
        nan = np.full(np.shape(x), np.nan)
        if np.shape(x) == ch.ex.shape:
            return ch.ex, nan
        if np.shape(x) == ch.ey.shape:
            return nan, ch.ey
        raise ValueError(f"coordinates of shape {np.shape(x)} are not edge dofs of {self.grid}")

    def _curl_e(self, x, y, t):
        ce = curl_e(sample_vec(self.e_exact, self.grid, t), self.grid)
        if np.shape(x) != ce.h.shape:
            raise ValueError(f"coordinates of shape {np.shape(x)} are not cell centers of {self.grid}")
        return ce.h


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
    state: SimState, sources: SourceSet | None = None
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
        f1 = sample_vec(sources.f1, grid, t_mid)
        f2 = sample_scalar(sources.f2, grid, t_mid)
        f3 = sample_vec(sources.f3, grid, t_mid)

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
