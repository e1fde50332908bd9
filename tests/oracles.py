"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: series powers
go through the Miller recurrence instead of binomial factoring, the companion
weights varpi through a binomial-series product instead of their two-term
recurrence, the one-step solve assembles the raw coupled equations densely
on the dofs instead of stepping the integrator's mode coefficients with its
elimination and conjugate gradients, the manufactured fields and sources are
written out as pointwise closed forms of (x, y, t) on the dofs instead of
sampled, transformed profiles, the conjugate gradients take any
operator on ``VecField`` values and build a new field for every vector
operation, and the diagonal conjugate gradients run over every coefficient
instead of once per distinct eigenvalue.

The discrete curls live here as stencils on the dof arrays: the library
never applies them, since its state is held in the basis where they are
diagonal (``colecole.mesh.CurlCurlBasis``).  They are the physical-space
check of that basis, of the dense step oracle and of the scheme residual.
The semi-discrete manufactured case uses them on purpose: it forces the
space-discrete system so that its exact solution is the sampled closed form,
leaving only the time-discretization error to measure.

The oracles take and return dof fields, and read a state in its layout
through its ``span``.  Their sources are ``colecole.stepper.Sources`` whose
profiles are on the dofs (edge pairs for f1 and f3, cell arrays for f2):
:func:`on_dofs` sums them at a time t, and :func:`in_coefficients`
transforms each profile once into the sources that
``colecole.stepper.init_state`` gives a run.  :func:`full_span` makes
``init_state`` keep component 0 whole, for tests that compare a run with
the reduced one or need every coordinate.  ``step`` advances a run's one
state in place; :func:`observed_step` keeps a copy of the state from before
it and the history part of the step's fractional derivative, which
:func:`caputo_after` and :func:`scheme_residual` read.

Three checks of the library's weights and helpers live here because only
the tests call them: :func:`symbol_residual` (with :class:`SymbolKind`), the
second-order symbol identity of varpi and a; :func:`theta_gap`, the scalar
gap rho_tilde - rho that ``colecole.weights.min_theta_gap_grid`` scans,
written out from the paper's formulas rather than through the library's;
and :func:`zero_edges`, the zero edge field.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from colecole import stepper
from colecole.manufactured import PROFILES, ManufacturedCase, _sin_pi, caputo_cubic_factor
from colecole.mesh import CurlCurlBasis, GridSpec, Span, VecField, sample_scalar, sample_vec
from colecole.stepper import (
    PHistory, Quadrature, SimState, SolverError, Sources, frac_deriv_current, step,
)
from colecole.weights import binomial_series, cumulative_weights, varpi_weights


def _check_vec(e: VecField, grid: GridSpec) -> None:
    if e.ex.shape != (grid.nx, grid.ny + 1) or e.ey.shape != (grid.nx + 1, grid.ny):
        raise ValueError(
            f"vector field shapes {e.ex.shape}/{e.ey.shape} do not match "
            f"{grid.nx}x{grid.ny} grid"
        )


def _check_scalar(s: np.ndarray, grid: GridSpec) -> None:
    if s.shape != (grid.nx, grid.ny):
        raise ValueError(f"scalar field shape {s.shape} does not match {grid.nx}x{grid.ny} grid")


def zero_edges(grid: GridSpec) -> VecField:
    """The zero edge field on ``grid``."""
    return VecField(np.zeros((grid.nx, grid.ny + 1)), np.zeros((grid.nx + 1, grid.ny)))


def _curl_h_into(h: np.ndarray, dx: float, dy: float, ex: np.ndarray, ey: np.ndarray) -> None:
    """Write the discrete (dH/dy, -dH/dx) of cell values h into the edge arrays
    (ex, ey), boundary rows/columns included (zero)."""
    inner = ex[:, 1:-1]
    np.subtract(h[:, 1:], h[:, :-1], out=inner)
    inner /= dy
    ex[:, 0] = 0.0
    ex[:, -1] = 0.0
    inner = ey[1:-1, :]
    np.subtract(h[1:, :], h[:-1, :], out=inner)
    np.negative(inner, out=inner)
    inner /= dx
    ey[0, :] = 0.0
    ey[-1, :] = 0.0


def _curl_e_into(
    ex: np.ndarray, ey: np.ndarray, dx: float, dy: float, out: np.ndarray, work: np.ndarray
) -> None:
    """Write the discrete dE2/dx - dE1/dy of edge arrays (ex, ey) into the cell
    array ``out``; ``work`` is a cell-sized scratch array."""
    np.subtract(ey[1:, :], ey[:-1, :], out=out)
    out /= dx
    np.subtract(ex[:, 1:], ex[:, :-1], out=work)
    work /= dy
    out -= work


def _inner_into(u: tuple, v: tuple, cell_area: float, prod: tuple) -> float:
    """cell_area * (sum u_x v_x + sum u_y v_y) of (ex, ey) array pairs, the
    products formed in the pair ``prod`` and each sum a pairwise reduction."""
    for uc, vc, pc in zip(u, v, prod):
        np.multiply(uc, vc, out=pc)
    return cell_area * (
        float(np.add.reduce(prod[0], axis=None)) + float(np.add.reduce(prod[1], axis=None))
    )


def curl_h(s: np.ndarray, grid: GridSpec) -> VecField:
    """Discrete (dH/dy, -dH/dx) of the cell array s on edge dofs; boundary
    rows/columns are zero."""
    _check_scalar(s, grid)
    out = VecField(np.empty((grid.nx, grid.ny + 1)), np.empty((grid.nx + 1, grid.ny)))
    _curl_h_into(s, grid.dx, grid.dy, out.ex, out.ey)
    return out


def curl_e(e: VecField, grid: GridSpec) -> np.ndarray:
    """Discrete dE2/dx - dE1/dy at cell centers, an (nx, ny) array."""
    _check_vec(e, grid)
    out = np.empty((grid.nx, grid.ny))
    _curl_e_into(e.ex, e.ey, grid.dx, grid.dy, out, np.empty_like(out))
    return out


def inner_e(u: VecField, v: VecField, grid: GridSpec) -> float:
    """Uniformly weighted dof inner product dx*dy*(sum ex ex' + sum ey ey')."""
    _check_vec(u, grid)
    _check_vec(v, grid)
    prod = (np.empty_like(u.ex), np.empty_like(u.ey))
    return _inner_into((u.ex, u.ey), (v.ex, v.ey), grid.dx * grid.dy, prod)


def inner_h(p: np.ndarray, q: np.ndarray, grid: GridSpec) -> float:
    _check_scalar(p, grid)
    _check_scalar(q, grid)
    return grid.dx * grid.dy * float(np.sum(p * q))


def norm_e(u: VecField, grid: GridSpec) -> float:
    return np.sqrt(inner_e(u, u, grid))


def norm_h(p: np.ndarray, grid: GridSpec) -> float:
    return np.sqrt(inner_h(p, p, grid))


def fmap(f: Callable[..., np.ndarray], *fields):
    """f applied to the components of like fields: the VecField of f over
    their ex arrays and over their ey arrays, or f of cell arrays."""
    if isinstance(fields[0], VecField):
        return VecField(f(*(u.ex for u in fields)), f(*(u.ey for u in fields)))
    return f(*fields)


def combine_theta(u_new, u_old, theta: float):
    """Theta average (1-theta)*u_new + theta*u_old of two like fields."""
    return fmap(lambda a, b: (1.0 - theta) * a + theta * b, u_new, u_old)


def edge_field(coef: np.ndarray, grid: GridSpec) -> VecField:
    """The edge field on the dofs with the (2, nx, ny) coefficients ``coef``,
    or those raveled (left unchanged)."""
    return VecField(*CurlCurlBasis(grid).inverse(np.reshape(coef, (2, grid.nx, grid.ny))))


def on_dofs(sources: Sources | None, grid: GridSpec, t: float):
    """(f1, f2, f3) at time t of sources whose profiles are on the dofs: edge
    pairs for f1 and f3, a cell array for f2; zero fields for None."""
    f1, f2, f3 = zero_edges(grid), np.zeros((grid.nx, grid.ny)), zero_edges(grid)
    if sources is not None:
        for side, terms in ((f1, sources.f1), (f3, sources.f3)):
            for factor, profile in terms:
                side.ex += factor(t) * profile.ex
                side.ey += factor(t) * profile.ey
        for factor, profile in sources.f2:
            f2 += factor(t) * profile
    return f1, f2, f3


def in_coefficients(sources: Sources, grid: GridSpec) -> Sources:
    """Sources on the dofs with each profile transformed once: the sources
    ``init_state`` takes, f1 and f3 as (2, nx, ny) edge coefficients, f2 as
    cell coefficients."""
    basis = CurlCurlBasis(grid)
    edges = lambda terms: tuple((f, basis.forward(e.ex, e.ey)) for f, e in terms)
    cells = tuple((f, basis.forward_cell(c)) for f, c in sources.f2)
    return Sources(edges(sources.f1), cells, edges(sources.f3))


def full_span(monkeypatch, grid: GridSpec) -> Span:
    """Patch ``colecole.stepper`` so that ``init_state`` keeps component 0
    whole, k = nx ny: the span of every (nx, ny) array,
    ``Span((nx, ny), np.eye(nx ny))``, in place of the span of its data."""
    span = Span((grid.nx, grid.ny), np.eye(grid.nx * grid.ny))
    monkeypatch.setattr(stepper, "curl_free_span", lambda *leads: span)
    return span


def split_rows(history: PHistory) -> tuple[np.ndarray, np.ndarray]:
    """The M tail rows and the window of the one array ``history.rows``."""
    m = len(history.poles)
    return history.rows[:m], history.rows[m:]


def with_p_history(state: SimState, history: tuple[np.ndarray, ...], s=None, **changes) -> SimState:
    """A state fresh from ``init_state`` moved to n = len(history) - 1, with
    P^k = history[k] (coefficients) written into its history rows (history[0]
    must be zero, and is not stored; the rest must fit in the window of a
    run that has not folded), and s_k = s[k] beside them if given."""
    assert not np.any(history[0]) and not state.history.folded
    for k, q in enumerate(history[1:]):
        state.history.rows[len(state.history.poles) + k] = q.reshape(-1)
    if s is not None:
        state.history.s[: len(s)] = s
    return replace(state, n=len(history) - 1, **changes)


def observed_step(state: SimState) -> tuple[SimState, np.ndarray]:
    """Step ``state`` in place; return a copy of it from before the step
    (its n, E, P and H; the history and the sources are shared) and the
    history part of the step's D^alpha P, ``frac_deriv_current(state)`` taken
    before it."""
    before, history_part = copy.copy(state), frac_deriv_current(state)
    step(state)
    return before, history_part


def caputo_after(state: SimState, history_part: np.ndarray) -> np.ndarray:
    """D^alpha P at t_{n-theta} of the step that took the run to ``state``,
    as ``step`` forms it: the history part plus tau^-alpha K_0 P^n."""
    return history_part + (state.config.tau ** (-state.material.alpha) * state.kernel[0]) * state.p


def exact_frac_deriv(
    kernel: np.ndarray, p_history, p_new: np.ndarray, scale: float
) -> np.ndarray:
    """scale * sum_{k=1..n} K_{n-k} P^k with P^n = p_new, n = len(p_history),
    from P^0..P^{n-1} = p_history, every lag exact.

    Summed in the association of ``colecole.stepper.frac_deriv_current``
    and then :func:`caputo_after` on a run that has not folded: the rows
    from k = 1 on, then the scale, then scale K_0 p_new, so the two agree bit
    for bit there.
    """
    n = len(p_history)
    acc = np.zeros_like(p_new)
    for k in range(1, n):
        acc += kernel[n - k] * p_history[k]
    acc *= scale
    acc += (scale * kernel[0]) * p_new
    return acc


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


def varpi_weights_by_series(alpha: float, theta: float, n: int) -> np.ndarray:
    """varpi_0..varpi_n as the coefficients of (1-z)^(1-alpha) (d0 + d1 z)^alpha,
    d0 = 1/2 + theta/alpha, d1 = 1/2 - theta/alpha, by binomial-series convolution."""
    d0, d1 = 0.5 + theta / alpha, 0.5 - theta / alpha
    num = binomial_series(1.0 - alpha, -1.0, n)
    den = binomial_series(alpha, d1 / d0, n)
    return d0**alpha * np.convolve(num, den)[: n + 1]


def sftr_weights_by_series(alpha: float, theta: float, n: int) -> np.ndarray:
    """omega_0..omega_n as the coefficients of [(1-z)/(d0 + d1 z)]^alpha,
    d0 = 1/2 + theta/alpha, d1 = 1/2 - theta/alpha: d0^(-alpha) times the
    convolution of the binomial series of (1-z)^alpha and (1 + (d1/d0) z)^(-alpha)."""
    d0, d1 = 0.5 + theta / alpha, 0.5 - theta / alpha
    num = binomial_series(alpha, -1.0, n)
    den = binomial_series(-alpha, d1 / d0, n)
    return d0 ** (-alpha) * np.convolve(num, den)[: n + 1]


def fbdf2_weights_by_series(alpha: float, n: int) -> np.ndarray:
    """FBDF2 weights as the coefficients of (3/2)^alpha (1-z)^alpha (1-z/3)^alpha,
    by binomial-series convolution."""
    num = binomial_series(alpha, -1.0, n)
    den = binomial_series(alpha, -1.0 / 3.0, n)
    return 1.5**alpha * np.convolve(num, den)[: n + 1]


class SymbolKind(enum.Enum):
    VARPI_SYMBOL = "varpi"
    A_SYMBOL = "a"


def symbol_residual(
    kind: SymbolKind, alpha: float, theta: float, tau: float, K: int | None = None
) -> float:
    """Defect of the second-order symbol identity at step size tau.

    For VARPI_SYMBOL the identity is
        tau^(alpha-1) e^((1/2-theta) tau) varpi(e^-tau) = 1 + O(tau^2),
    for A_SYMBOL it is
        tau^alpha e^(-theta tau) a(e^-tau) = 1 + O(tau^2);
    the returned value is |symbol - 1| with the series truncated after K
    terms (default ceil(60/tau), which pushes the tail far below tau^2).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if K is None:
        K = math.ceil(60.0 / tau)
    if kind is SymbolKind.VARPI_SYMBOL:
        seq = varpi_weights(alpha, theta, K - 1)
        prefactor = tau ** (alpha - 1.0) * math.exp((0.5 - theta) * tau)
    elif kind is SymbolKind.A_SYMBOL:
        seq = cumulative_weights(alpha, theta, K - 1)
        prefactor = tau**alpha * math.exp(-theta * tau)
    else:
        raise ValueError(f"unknown symbol kind {kind!r}")

    damping = np.exp(-tau * np.arange(K))
    # Geometric tail bound from the last retained term; |seq| is eventually
    # decreasing for both families, so this dominates the dropped remainder.
    tail = prefactor * abs(seq[-1]) * damping[-1] * math.exp(-tau) / (1.0 - math.exp(-tau))
    if tail > 1e-3 * tau * tau:
        raise ValueError(
            f"K={K} too small: truncation tail bound {tail:.3e} exceeds "
            f"1e-3*tau^2 = {1e-3 * tau * tau:.3e}"
        )
    return abs(prefactor * float(np.einsum("i,i->", seq, damping)) - 1.0)


def theta_gap(x: float, alpha: float, theta: float) -> float:
    """Gap rho_tilde(m) - rho(m) at the real m = 4/x, the quantity whose
    positivity closes the induction behind the companion-weight sign pattern,
    written out here from the paper's rho and rho_tilde (r = theta/alpha):

        rho(k)       = (r - 1/2)(k - 2) / (r(2k - 1) + alpha - 1/2)
                       * 4 theta / (2 theta + alpha) * (1 + 1/k),
        rho_tilde(m) = (r(2m - 3) + alpha - 1/2) / ((r + 1/2) m)
                       * (1 + (2 theta + alpha) / (4 theta) * (m - 1)/m).

    The admissible region is x in (0, 1], alpha in (0, 1), theta in
    [alpha/2, 1/2]; ValueError outside it.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x={x} outside (0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if not 0.5 * alpha <= theta <= 0.5:
        raise ValueError(f"theta={theta} outside [alpha/2, 1/2] for alpha={alpha}")
    m = 4.0 / x
    r = theta / alpha
    rho = (
        (r - 0.5)
        * (m - 2.0)
        / (r * (2.0 * m - 1.0) + alpha - 0.5)
        * (4.0 * theta / (2.0 * theta + alpha))
        * (1.0 + 1.0 / m)
    )
    rho_tilde = (
        (r * (2.0 * m - 3.0) + alpha - 0.5)
        / ((r + 0.5) * m)
        * (1.0 + (2.0 * theta + alpha) / (4.0 * theta) * (m - 1.0) / m)
    )
    return rho_tilde - rho


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
    """Smooth separable sources on the dofs of grid, each vector component
    with its own time factor and profile.  f3 vanishes on the tangential
    boundary, as sources in coefficients must; f1 does not, and its boundary
    values are not used."""
    xe, ye = grid.ex_coords()
    xn, yn = grid.ey_coords()
    xc, yc = grid.h_coords()
    ex0, ey0 = np.zeros_like(xe), np.zeros_like(xn)
    return Sources(
        f1=((math.sin, VecField(1.0 + xe * ye, ey0)), (math.cos, VecField(ex0, xn - yn))),
        f2=((lambda t: math.cos(2 * t), xc + 0.3 * yc * yc),),
        f3=(
            (lambda t: t, VecField(xe * xe * ye * (1.0 - ye), ey0)),
            (lambda t: 1.0 - t, VecField(ex0, yn * xn * (1.0 - xn))),
        ),
    )


def closed_form_sources(alpha: float, grid: GridSpec) -> Sources:
    """The sources of ``ManufacturedCase(alpha)`` on the dofs: the closed forms
    of f1, f2 and f3 at t = 0 and of P at t = 1 as the profiles, times the
    time factors of E (e^-t) and of P (t^3, its derivative and its Caputo
    derivative plus itself)."""
    form = ClosedForm(alpha)
    ex, ey, cells = grid.ex_coords(), grid.ey_coords(), grid.h_coords()

    def edges(f, t):
        return VecField(f(*ex, t)[0], f(*ey, t)[1])

    decay, p = (lambda t: math.exp(-t)), edges(form.p, 1.0)
    return Sources(
        f1=((lambda t: 3.0 * t * t, p), (decay, edges(form.f1, 0.0))),
        f2=((decay, form.f2(*cells, 0.0)),),
        f3=((lambda t: caputo_cubic_factor(t, alpha) + t**3, p), (decay, edges(form.f3, 0.0))),
    )


@dataclass(frozen=True)
class SemiDiscreteCase(ManufacturedCase):
    """The manufactured case forced so that it solves the space-discrete system.

    Its curl profiles are the stencil ``curl_h``/``curl_e`` of the sampled H
    and E profiles, transformed like the others, instead of the analytic
    curls.  E and H share the time factor e^-t, so at every t the sources hold
    the discrete curls of the sampled exact fields, the sampled closed-form
    fields satisfy the semi-discrete equations exactly, and
    ``convergence_table(SemiDiscreteCase(alpha, grid), theta, taus, grid)``
    measures the time-discretization error alone.
    """

    grid: GridSpec

    def coefficients(self, grid):
        if grid != self.grid:
            raise ValueError(f"case built for {self.grid}, sampled on {grid}")
        e, p, h, _, _ = super().coefficients(grid)
        basis = CurlCurlBasis(grid)
        ch = curl_h(sample_scalar(PROFILES["h"], grid), grid)
        ce = curl_e(sample_vec(PROFILES["e"], grid), grid)
        return e, p, h, basis.forward(ch.ex, ch.ey), basis.forward_cell(ce)


def _flatten(e: VecField, h: np.ndarray, p: VecField) -> np.ndarray:
    return np.concatenate([e.ex.ravel(), e.ey.ravel(), h.ravel(), p.ex.ravel(), p.ey.ravel()])


def _unflatten(x: np.ndarray, grid: GridSpec) -> tuple[VecField, np.ndarray, VecField]:
    nex = grid.nx * (grid.ny + 1)
    ney = (grid.nx + 1) * grid.ny
    nh = grid.nx * grid.ny
    ex = x[:nex].reshape(grid.nx, grid.ny + 1)
    ey = x[nex : nex + ney].reshape(grid.nx + 1, grid.ny)
    h = x[nex + ney : nex + ney + nh].reshape(grid.nx, grid.ny)
    px = x[nex + ney + nh : 2 * nex + ney + nh].reshape(grid.nx, grid.ny + 1)
    py = x[2 * nex + ney + nh :].reshape(grid.nx + 1, grid.ny)
    return VecField(ex, ey), h, VecField(px, py)


def _pec_mask(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    mask_ex = np.zeros((grid.nx, grid.ny + 1), dtype=bool)
    mask_ex[:, 0] = mask_ex[:, -1] = True
    mask_ey = np.zeros((grid.nx + 1, grid.ny), dtype=bool)
    mask_ey[0, :] = mask_ey[-1, :] = True
    return mask_ex, mask_ey


def dense_step_solution(
    state: SimState, sources: Sources | None = None
) -> tuple[VecField, np.ndarray, VecField]:
    """One step of the coupled scheme by direct dense solve of the raw equations.

    Unknowns are (E^n, H^n, P^n) on the dofs, stacked; the matrix is probed
    column by column from the equation set itself, with the curl stencils (no
    elimination, no eigenbasis, no iterative solve).  The state and its P
    history are transformed to the dofs first; the history is read from the
    state's window, so the run must not have folded.
    """
    grid, mat, cfg = state.grid, state.material, state.config
    n = state.n + 1
    tau, theta = cfg.tau, cfg.theta
    one_m = 1.0 - theta
    t_mid = (n - theta) * tau
    f1, f2, f3 = on_dofs(sources, grid, t_mid)
    e_prev, p_prev, h_prev = state.fields()
    if state.history.folded:
        raise ValueError("the dense step reads every P^k, and this run has folded some")
    # P^0 = 0 is not stored: window slot k - 1 holds P^k
    window = split_rows(state.history)[1][: n - 1]
    rows = [np.zeros_like(state.p), *window.reshape(-1, *state.p.shape)]
    p_history = [edge_field(state.span.unpack(q), grid) for q in rows]

    # History part of the fractional quadrature, straight from its definition.
    kern = state.kernel
    hist = zero_edges(grid)
    if cfg.quadrature is Quadrature.SFTR:
        p0 = p_history[0]
        for k in range(1, n):
            hist.ex += kern[n - k] * (p_history[k].ex - p0.ex)
            hist.ey += kern[n - k] * (p_history[k].ey - p0.ey)
        hist.ex -= kern[0] * p0.ex
        hist.ey -= kern[0] * p0.ey
    else:
        # sum_{k=0..n-1} g_{n-k} P^k, whose k = 0 term is zero: the kernel
        # stops at g_{N-1}, and g_N only ever multiplies P^0 = 0
        assert not np.any(p_history[0].ex) and not np.any(p_history[0].ey)
        for k in range(1, n):
            hist.ex += kern[n - k] * p_history[k].ex
            hist.ey += kern[n - k] * p_history[k].ey
    hist = fmap(lambda c: tau ** (-mat.alpha) * c, hist)
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
        row_h = (mat.c_m / tau) * h + one_m * curl_e(e, grid)
        row_p = VecField(
            (kappa + one_m) * p.ex - mat.c_p * one_m * e.ex,
            (kappa + one_m) * p.ey - mat.c_p * one_m * e.ey,
        )
        return _flatten(row_e, row_h, row_p)

    ch_prev = curl_h(h_prev, grid)
    rhs_e = VecField(
        (mat.c_e / tau) * e_prev.ex + p_prev.ex / tau + theta * ch_prev.ex + f1.ex,
        (mat.c_e / tau) * e_prev.ey + p_prev.ey / tau + theta * ch_prev.ey + f1.ey,
    )
    rhs_e.ex[mask_ex] = 0.0
    rhs_e.ey[mask_ey] = 0.0
    rhs_h = (mat.c_m / tau) * h_prev - theta * curl_e(e_prev, grid) + f2
    rhs_p = VecField(
        -(mat.tau0**mat.alpha) * hist.ex - theta * p_prev.ex + mat.c_p * theta * e_prev.ex + f3.ex,
        -(mat.tau0**mat.alpha) * hist.ey - theta * p_prev.ey + mat.c_p * theta * e_prev.ey + f3.ey,
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


def textbook_cg(
    apply_op: Callable[[VecField], VecField],
    rhs: VecField,
    grid: GridSpec,
    tol: float,
    maxit: int,
    x0: VecField | None = None,
) -> tuple[VecField, int]:
    """Conjugate gradients for an SPD operator on the tangential-zero subspace.

    Returns (solution, iterations); raises :class:`SolverError` if the
    relative residual does not fall below tol within maxit iterations.
    """
    rhs_norm = norm_e(rhs, grid)
    if rhs_norm == 0.0:
        return zero_edges(grid), 0
    x = zero_edges(grid) if x0 is None else fmap(np.copy, x0)
    r = fmap(np.subtract, rhs, apply_op(x))
    d = fmap(np.copy, r)
    rho = inner_e(r, r, grid)
    threshold = (tol * rhs_norm) ** 2
    if rho <= threshold:
        return x, 0
    for it in range(1, maxit + 1):
        ad = apply_op(d)
        alpha = rho / inner_e(d, ad, grid)
        x = fmap(lambda xc, dc: xc + alpha * dc, x, d)
        r = fmap(lambda rc, ac: rc - alpha * ac, r, ad)
        rho_new = inner_e(r, r, grid)
        if rho_new <= threshold:
            return x, it
        beta = rho_new / rho
        d = fmap(lambda rc, dc: rc + beta * dc, r, d)
        rho = rho_new
    raise SolverError(
        f"conjugate gradients: relative residual {np.sqrt(rho) / rhs_norm:.3e} "
        f"after {maxit} iterations (tol {tol:.1e})",
        residual=float(np.sqrt(rho) / rhs_norm),
        iterations=maxit,
    )


def operator_diagonal(lam: np.ndarray) -> np.ndarray:
    """The (2, nx, ny) diagonal of ``diag I + curl_scale curl_h curl_e`` on the
    edge coefficients, from its (nx, ny) eigenvalues ``lam`` on the tangential
    component (``CurlCurlBasis.eigenvalues``): the normal component's is diag,
    lam's entry at mode (0, 0), on every mode."""
    return np.stack((np.full_like(lam, lam[0, 0]), lam))


def diagonal_cg(
    lam: np.ndarray, rhs: np.ndarray, x0: np.ndarray, tol: float, maxit: int
) -> tuple[np.ndarray, int]:
    """Conjugate gradients for the diagonal operator with entries ``lam``,
    started from x0, with every vector as long as lam: the recurrence that
    ``colecole.stepper.solve_spd`` runs once per distinct eigenvalue.

    Returns (solution, iterations); raises :class:`SolverError` if the
    relative residual does not fall below tol within maxit iterations.
    """

    def dot(u: np.ndarray, v: np.ndarray) -> float:
        return float(np.einsum("i,i->", u.reshape(-1), v.reshape(-1)))

    rhs_norm = math.sqrt(dot(rhs, rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    x = x0.copy()
    r = rhs - lam * x
    rho = dot(r, r)
    threshold = (tol * rhs_norm) ** 2
    if rho <= threshold:
        return x, 0
    d = r.copy()
    for it in range(1, maxit + 1):
        ad = lam * d
        alpha = rho / dot(d, ad)
        r -= alpha * ad
        x += alpha * d
        rho_new = dot(r, r)
        if rho_new <= threshold:
            return x, it
        d *= rho_new / rho
        d += r
        rho = rho_new
    raise SolverError(
        f"conjugate gradients: relative residual {math.sqrt(rho) / rhs_norm:.3e} "
        f"after {maxit} iterations (tol {tol:.1e})",
        residual=math.sqrt(rho) / rhs_norm,
        iterations=maxit,
    )


def scheme_residual(
    state_prev: SimState,
    state_new: SimState,
    history_part: np.ndarray,
    sources: Sources | None = None,
) -> tuple[float, float, float]:
    """Discrete L2 defects of the three scheme equations of one step, from
    the state before it to the state after it (see :func:`observed_step`),
    on the dofs with the curl stencils; D^alpha P is
    ``caputo_after(state_new, history_part)``.

    The electric-field defect is measured on the tangential-zero subspace,
    where the discrete equation lives (the boundary dofs carry the boundary
    condition instead).
    """
    cfg, mat, grid = state_new.config, state_new.material, state_new.grid
    tau, theta = cfg.tau, cfg.theta
    f1, f2, f3 = on_dofs(sources, grid, (state_new.n - theta) * tau)
    e_old, p_old, h_old = state_prev.fields()
    e_new, p_new, h_new = state_new.fields()

    e_bar = combine_theta(e_new, e_old, theta)
    h_bar = combine_theta(h_new, h_old, theta)
    p_bar = combine_theta(p_new, p_old, theta)
    d_alpha = edge_field(state_new.span.unpack(caputo_after(state_new, history_part)), grid)

    r1 = fmap(
        lambda en, eo, pn, po, ch, f: (mat.c_e / tau) * (en - eo) + (pn - po) / tau - ch - f,
        e_new, e_old, p_new, p_old, curl_h(h_bar, grid), f1,
    )
    r1.enforce_pec()
    r2 = fmap(
        lambda hn, ho, ce, f: (mat.c_m / tau) * (hn - ho) + ce - f,
        h_new, h_old, curl_e(e_bar, grid), f2,
    )
    r3 = fmap(
        lambda d, pb, eb, f: (mat.tau0**mat.alpha) * d + pb - mat.c_p * eb - f,
        d_alpha, p_bar, e_bar, f3,
    )
    return norm_e(r1, grid), norm_h(r2, grid), norm_e(r3, grid)
