"""Implicit theta-scheme time integrator for the Cole-Cole Maxwell system.

Per step the scheme solves, with first differences d_tau u = (u^n - u^{n-1})/tau
and theta averages ub = (1-theta) u^n + theta u^{n-1}, all at t_{n-theta}:

    c_e d_tau E + d_tau P - curl_h Hb = f1
    c_m d_tau H + curl_e Eb          = f2
    tau0^alpha D^alpha P + Pb - c_p Eb = f3

where D^alpha P is a convolution quadrature for the Caputo derivative: the
shifted fractional trapezoidal kernel by default, or the theta-combined
fractional BDF-2 kernel.  The polarization equation is dof-local, so P^n is
eliminated as P^n = a E^n + g; substituting the H update then leaves one
symmetric positive definite system

    [(c_e + a)/tau I + (1-theta)^2 (tau/c_m) curl_h curl_e] E^n = rhs

solved matrix-free by conjugate gradients on the tangential-zero subspace.
H^n and P^n are recovered exactly afterwards, so the recorded per-step defect
of the three equations is the linear-solver residual alone.

The stepper works on dof arrays only.  Sources are passed as a callable
``sources(t) -> (f1, f2, f3)`` (:data:`Sources`) that returns the right-hand
sides already on the dofs: f1 and f3 as edge fields, f2 as a cell field.
:func:`step` calls it once per step, at t = t_{n-theta}; ``None`` means no
sources.  Turning formulas into dof values is the caller's business (see
:meth:`colecole.manufactured.ManufacturedCase.sample`).

The history P^0..P^N of a run lives in one (N+1, dofs) array that
:func:`init_state` allocates, and the quadrature's history part is one
contraction of it with the reversed kernel.  That contraction runs on one
thread on purpose: through BLAS it would start threads that keep spinning
during the conjugate-gradient solve that follows and cost more CPU than
they save.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .mesh import (
    GridSpec,
    ScalarField,
    VecField,
    combine_theta,
    curl_e,
    curl_h,
    inner_e,
    norm_e,
    norm_h,
)
# Not used here: perfbench's manufactured.sample spans wrap these two names
# in this module, and ManufacturedCase.sample calls them through it.
from .mesh import sample_scalar, sample_vec  # noqa: F401
from .weights import SchemeParams, fbdf2_weights, sftr_weights, shift_combine


# sources(t) -> (f1, f2, f3) on the dofs at time t; see the module docstring.
Sources = Callable[[float], tuple[VecField, ScalarField, VecField]]


class Quadrature(enum.Enum):
    SFTR = "sftr"
    FBDF2 = "fbdf2"


@dataclass(frozen=True)
class MaterialParams:
    """Physical coefficients: c_e = eps0*eps_inf, c_m = mu0,
    c_p = eps0*(eps_s - eps_inf), relaxation time tau0, fractional order alpha."""

    c_e: float = 1.0
    c_m: float = 1.0
    c_p: float = 1.0
    tau0: float = 1.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        for name in ("c_e", "c_m", "c_p", "tau0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 1)")


@dataclass(frozen=True)
class SchemeConfig:
    theta: float
    tau: float
    n_steps: int
    quadrature: Quadrature = Quadrature.SFTR
    cg_tol: float = 1e-12
    cg_maxit: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 0.5:
            raise ValueError(f"theta={self.theta} outside (0, 1/2]")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass(eq=False)
class PHistory:
    """P^0..P^N of one run as the rows of one preallocated (N+1, dofs) array.

    Row k holds P^k: ex raveled, then ey raveled.  Row 0 is P^0 = 0.  Rows
    [0, filled) have been written; the states of a run share the holder, and
    the state at step n reads rows 0..n.  A later row is written only by
    stepping the state at the tip (n = filled - 1); :func:`step` copies the
    rows of any other state into a new holder first.
    """

    rows: np.ndarray
    filled: int = 1


def _split(flat: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(ex, ey) views of dof vectors laid out as history rows (last axis)."""
    lead = flat.shape[:-1]
    n_ex = grid.nx * (grid.ny + 1)
    return (
        flat[..., :n_ex].reshape(lead + (grid.nx, grid.ny + 1)),
        flat[..., n_ex:].reshape(lead + (grid.nx + 1, grid.ny)),
    )


@dataclass
class SimState:
    """Integrator state after step n; advanced functionally by :func:`step`."""

    n: int
    e: VecField
    p: VecField
    h: ScalarField
    history: PHistory
    s_norm_sq: tuple[float, ...]
    kernel_rev: np.ndarray
    grid: GridSpec
    material: MaterialParams
    config: SchemeConfig

    @property
    def time(self) -> float:
        return self.n * self.config.tau

    @property
    def kernel(self) -> np.ndarray:
        """The run's kernel K_0, K_1, ... (a view of ``kernel_rev``)."""
        return self.kernel_rev[::-1]

    @property
    def p_history(self) -> tuple[VecField, ...]:
        """P^0..P^n as read-only views of the history rows."""
        rows = self.history.rows[: self.n + 1].view()
        rows.flags.writeable = False
        return tuple(map(VecField, *_split(rows, self.grid)))

    @property
    def cg_maxit(self) -> int:
        if self.config.cg_maxit is not None:
            return self.config.cg_maxit
        return 10 * (self.grid.nx + self.grid.ny)


def build_kernel(material: MaterialParams, config: SchemeConfig) -> np.ndarray:
    """Convolution kernel K for the full run.

    It is applied as sum_{k=1..n} K_{n-k} P^k (:func:`frac_deriv_current`),
    which presumes P^0 = 0.  SFTR: K = omega_0..omega_{n_steps-1}, the rule
    being sum omega_{n-k} (P^k - P^0).  FBDF2: K is the theta-combined
    sequence g_j = (1-theta) w~_j + theta w~_{j-1}, the rule being
    sum_{k=0..n} g_{n-k} P^k; its last entry g_{n_steps} only ever multiplies
    P^0, so it is kept but never read.  The state keeps K reversed and
    contiguous (``SimState.kernel_rev``), so that the history part is one
    single-threaded contraction with the preallocated history rows.
    """
    if config.quadrature is Quadrature.SFTR:
        return sftr_weights(SchemeParams(material.alpha, config.theta), config.n_steps - 1).values
    return shift_combine(fbdf2_weights(material.alpha, config.n_steps - 1), config.theta)


def init_state(
    grid: GridSpec,
    material: MaterialParams,
    config: SchemeConfig,
    e0: VecField,
    h0: ScalarField,
) -> SimState:
    """State at n = 0 with P^0 = 0 and weights precomputed for the whole run.

    Allocates the history rows of the whole run, (n_steps + 1) * dofs * 8
    bytes; pages are committed as the steps write them.
    """
    if e0.ex.shape != (grid.nx, grid.ny + 1) or h0.h.shape != (grid.nx, grid.ny):
        raise ValueError("initial data shapes do not match the grid")
    if not e0.is_pec_compliant():
        raise ValueError("initial electric field violates the tangential-zero boundary")
    dofs = e0.ex.size + e0.ey.size
    return SimState(
        n=0,
        e=e0.copy().enforce_pec(),
        p=VecField.zeros(grid),
        h=h0.copy(),
        history=PHistory(np.zeros((config.n_steps + 1, dofs))),
        s_norm_sq=(0.0,),
        kernel_rev=np.ascontiguousarray(build_kernel(material, config)[::-1]),
        grid=grid,
        material=material,
        config=config,
    )


def frac_deriv_current(state: SimState, p_new: VecField) -> VecField:
    """Quadrature value tau^-alpha sum_{k=1..n} K_{n-k} P^k of the Caputo
    derivative of P at t_{n-theta}, where n = state.n + 1, p_new is the
    candidate P^n and K is the run's kernel (see :func:`build_kernel`).

    Precondition: P^0 is zero (as :func:`init_state` fixes it), so row 0 is
    skipped and one sum serves both kernels.  The history part, P^1..P^{n-1},
    is one contraction of the reversed kernel with the history rows.  It is
    an einsum, which runs on the calling thread; ``@`` would go through BLAS,
    whose threads then spin through the solve that follows.  With p_new = 0
    the value is the history part alone, so D(p_new) = D(0) + tau^-alpha
    K_0 p_new.
    """
    n = state.n + 1
    if n > state.history.filled:
        raise ValueError(
            f"state at step {state.n} needs {n} history rows, {state.history.filled} are filled"
        )
    krev = state.kernel_rev
    size = len(krev)
    scale = state.config.tau ** (-state.material.alpha)
    hist = np.einsum("i,ij->j", krev[size - n : size - 1], state.history.rows[1:n])
    hist *= scale
    hist_ex, hist_ey = _split(hist, state.grid)
    lead = scale * krev[-1]
    return VecField(hist_ex + lead * p_new.ex, hist_ey + lead * p_new.ey)


def elimination_coefficients(
    material: MaterialParams, theta: float, tau: float, lead_weight: float
) -> tuple[float, float, float]:
    """(kappa, denom, a) of the dof-local elimination P^n = a E^n + g.

    kappa = tau0^alpha tau^-alpha w0 is the implicit coefficient of the
    quadrature's leading weight; denom = kappa + 1 - theta; a = c_p (1-theta)/denom.
    """
    kappa = material.tau0**material.alpha * tau ** (-material.alpha) * lead_weight
    denom = kappa + (1.0 - theta)
    return kappa, denom, material.c_p * (1.0 - theta) / denom


class SolverError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float, iterations: int) -> None:
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def solve_spd(
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
        return VecField.zeros(grid), 0
    x = VecField.zeros(grid) if x0 is None else x0.copy()
    r = rhs - apply_op(x)
    d = r.copy()
    rho = inner_e(r, r, grid)
    threshold = (tol * rhs_norm) ** 2
    if rho <= threshold:
        return x, 0
    for it in range(1, maxit + 1):
        ad = apply_op(d)
        alpha = rho / inner_e(d, ad, grid)
        x = x + alpha * d
        r = r - alpha * ad
        rho_new = inner_e(r, r, grid)
        if rho_new <= threshold:
            return x, it
        d = r + (rho_new / rho) * d
        rho = rho_new
    raise SolverError(
        f"conjugate gradients: relative residual {np.sqrt(rho) / rhs_norm:.3e} "
        f"after {maxit} iterations (tol {tol:.1e})",
        residual=float(np.sqrt(rho) / rhs_norm),
        iterations=maxit,
    )


def _sources_at(
    sources: Sources | None, grid: GridSpec, t: float
) -> tuple[VecField, ScalarField, VecField]:
    """(f1, f2, f3) on the dofs at time t; all zero when there are no sources."""
    if sources is None:
        return VecField.zeros(grid), ScalarField.zeros(grid), VecField.zeros(grid)
    return sources(t)


def step(state: SimState, sources: Sources | None = None) -> SimState:
    """Advance one step, forced by ``sources`` (see :data:`Sources`) at
    t_{n-theta}; returns the new state (the input is left untouched)."""
    cfg, mat, grid = state.config, state.material, state.grid
    n = state.n + 1
    if n > cfg.n_steps:
        raise ValueError(f"run is configured for {cfg.n_steps} steps, cannot advance to {n}")
    tau, theta = cfg.tau, cfg.theta
    f1, f2, f3 = _sources_at(sources, grid, (n - theta) * tau)

    hist_d = frac_deriv_current(state, VecField.zeros(grid))
    _, denom, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])

    # Elimination of P^n from the dof-local polarization equation.
    g = (1.0 / denom) * (
        (mat.c_p * theta) * state.e - theta * state.p - (mat.tau0**mat.alpha) * hist_d + f3
    )

    one_m = 1.0 - theta
    curl_e_prev = curl_e(state.e, grid)
    rhs = (
        (mat.c_e / tau) * state.e
        + (1.0 / tau) * (state.p - g)
        + curl_h(state.h + (one_m * tau / mat.c_m) * f2, grid)
        - (one_m * theta * tau / mat.c_m) * curl_h(curl_e_prev, grid)
        + f1
    )
    rhs.enforce_pec()

    diag = (mat.c_e + a_coef) / tau
    curl_scale = one_m * one_m * tau / mat.c_m

    def apply_op(v: VecField) -> VecField:
        return diag * v + curl_scale * curl_h(curl_e(v, grid), grid)

    e_new, _ = solve_spd(apply_op, rhs, grid, cfg.cg_tol, state.cg_maxit, x0=state.e)
    p_new = a_coef * e_new + g
    h_new = (
        state.h
        - (tau / mat.c_m) * curl_e(combine_theta(e_new, state.e, theta), grid)
        + (tau / mat.c_m) * f2
    )
    # D(P^n) = D(0) + tau^-alpha K_0 P^n, so the history sum is not run again.
    d_new = hist_d + (tau ** (-mat.alpha) * state.kernel[0]) * p_new
    s_new = inner_e(d_new, d_new, grid)

    history = state.history
    if history.filled != n:
        # Another state has already advanced from this one: branch off a copy.
        rows = np.zeros(history.rows.shape)
        rows[:n] = history.rows[:n]
        history = PHistory(rows)
    np.concatenate((p_new.ex, p_new.ey), axis=None, out=history.rows[n])
    history.filled = n + 1

    return replace(
        state,
        n=n,
        e=e_new,
        p=p_new,
        h=h_new,
        history=history,
        s_norm_sq=state.s_norm_sq + (s_new,),
    )


def scheme_residual(
    state_prev: SimState, state_new: SimState, sources: Sources | None = None
) -> tuple[float, float, float]:
    """Discrete L2 defects of the three scheme equations between two states.

    The electric-field defect is measured on the tangential-zero subspace,
    where the discrete equation lives (the boundary dofs carry the boundary
    condition instead).
    """
    if state_new.n != state_prev.n + 1:
        raise ValueError("states are not consecutive")
    cfg, mat, grid = state_new.config, state_new.material, state_new.grid
    tau, theta = cfg.tau, cfg.theta
    f1, f2, f3 = _sources_at(sources, grid, (state_new.n - theta) * tau)

    e_bar = combine_theta(state_new.e, state_prev.e, theta)
    h_bar = combine_theta(state_new.h, state_prev.h, theta)
    p_bar = combine_theta(state_new.p, state_prev.p, theta)
    d_alpha = frac_deriv_current(state_prev, state_new.p)

    r1 = (
        (mat.c_e / tau) * (state_new.e - state_prev.e)
        + (1.0 / tau) * (state_new.p - state_prev.p)
        - curl_h(h_bar, grid)
        - f1
    )
    r1.enforce_pec()
    r2 = (mat.c_m / tau) * (state_new.h - state_prev.h) + curl_e(e_bar, grid) - f2
    r3 = (mat.tau0**mat.alpha) * d_alpha + p_bar - mat.c_p * e_bar - f3
    return norm_e(r1, grid), norm_h(r2, grid), norm_e(r3, grid)


def run(
    state: SimState,
    sources: Sources | None = None,
    observer: Callable[[SimState, SimState], None] | None = None,
) -> SimState:
    """Advance to the configured final step, optionally observing each pair."""
    while state.n < state.config.n_steps:
        new = step(state, sources)
        if observer is not None:
            observer(state, new)
        state = new
    return state
