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
:func:`solve_spd` is specialised to this operator, d I + c curl_h curl_e.  Its
first :data:`CG_STENCIL_ITERATIONS` iterations apply the curl stencils of
:mod:`colecole.mesh` into work arrays allocated once per solve and update the
iterates in place; a 64x64 decay run at tau = 0.002 needs 4 per step.  A
solve that needs more moves its residual and search direction into the
operator's eigenbasis (:class:`~colecole.mesh.CurlCurlBasis`, DCT-II/DST-I
products computed with numpy.fft), where the operator is diagonal, and
finishes the same recurrence there, each iteration one elementwise product
instead of two stencils.  CG is kept in that basis, although one division per
mode would solve exactly, so that every solution stays the stencil CG's to
round-off: the exact solve moves the errors of the FBDF2 convergence sweep by
up to 2.7e-9 relative, past the 1e-11 tolerance of the benchmark's recorded
values.  :func:`solve_spd` raises :class:`SolverError` when the
residual does not converge, and as soon as the right-hand side or the
residual is not finite.  H^n and P^n are recovered exactly afterwards, so the
recorded per-step defect of the three equations is the linear-solver
residual alone.

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

The state also carries the energy weights a_0..a_N of the run's (alpha,
theta), ``SimState.a_weights``; FBDF2 runs carry the trapezoidal ones too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .mesh import (
    CurlCurlBasis,
    GridSpec,
    ScalarField,
    VecField,
    _check_vec,
    _curl_e_into,
    _curl_h_into,
    _inner_into,
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
from .weights import SchemeParams, cumulative_weights, fbdf2_weights, sftr_weights, shift_combine

# CG stops at relative residual CG_TOL; SolverError after CG_MAXIT_PER_SIDE * (nx + ny) iterations.
CG_TOL = 1e-12
CG_MAXIT_PER_SIDE = 10

CG_STENCIL_ITERATIONS = 6
"""Iterations :func:`solve_spd` runs on the curl stencils before it moves the
iteration to the operator's eigenbasis.  The move costs one forward transform
of the residual and one of the search direction, and at the end one inverse
transform of the correction: measured on a shared 2-vCPU x86 host (numpy 2.4,
medians of interleaved runs), about 7.5 stencil iterations at 48x48, 10 at
64x64 and 13 at 256x256.  An iteration there costs a third (48x48) to a half
(256x256) of a stencil iteration.  A solve that converges within this many
iterations never pays for the move.  Every step of a 64x64 decay run at
tau = 0.002 takes 4; moving from the first iteration on made that run about
25 % slower."""


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
    a_weights: np.ndarray
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
        return sftr_weights(SchemeParams(material.alpha, config.theta), config.n_steps - 1)
    return shift_combine(fbdf2_weights(material.alpha, config.n_steps - 1), config.theta)


def init_state(
    grid: GridSpec,
    material: MaterialParams,
    config: SchemeConfig,
    e0: VecField,
    h0: ScalarField,
) -> SimState:
    """State at n = 0 with P^0 = 0, and the kernel and energy weights of the whole run.

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
        a_weights=cumulative_weights(SchemeParams(material.alpha, config.theta), config.n_steps),
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
) -> tuple[float, float]:
    """(denom, a) of the dof-local elimination P^n = a E^n + g.

    denom = kappa + 1 - theta, where kappa = tau0^alpha tau^-alpha w0 is the
    implicit coefficient of the quadrature's leading weight; a = c_p (1-theta)/denom.
    """
    kappa = material.tau0**material.alpha * tau ** (-material.alpha) * lead_weight
    denom = kappa + (1.0 - theta)
    return denom, material.c_p * (1.0 - theta) / denom


class SolverError(RuntimeError):
    """Conjugate gradients failed to reach the requested tolerance, or met a
    non-finite right-hand side or residual."""

    def __init__(self, message: str, residual: float, iterations: int) -> None:
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _cg_iterations(apply, dot, x, r, d, ad, tmp, rho, threshold, first, last, finite):
    """Conjugate-gradient iterations first..last on (x, r, d) with squared
    residual norm rho, all updated in place.  ``apply(v, out)`` writes A v
    into ``out``, ``dot`` is the inner product, ``tmp`` holds products (it may
    be ``ad`` itself) and ``finite(rho, it)`` vets each new rho.

    Returns (iteration, rho): rho <= threshold means converged at that
    iteration, otherwise d is ready for iteration last + 1.
    """
    for it in range(first, last + 1):
        apply(d, ad)
        alpha = rho / dot(d, ad)
        for xc, rc, dc, adc, tc in zip(x, r, d, ad, tmp):
            rc -= np.multiply(adc, alpha, out=tc)
            xc += np.multiply(dc, alpha, out=tc)
        rho_new = finite(dot(r, r), it)
        if rho_new <= threshold:
            return it, rho_new
        beta = rho_new / rho
        for rc, dc in zip(r, d):
            dc *= beta
            dc += rc
        rho = rho_new
    return last, rho


def solve_spd(
    diag: float,
    curl_scale: float,
    rhs: VecField,
    grid: GridSpec,
    tol: float,
    maxit: int,
    x0: VecField | None = None,
) -> tuple[VecField, int]:
    """Conjugate gradients for ``diag I + curl_scale curl_h curl_e``, the
    step's SPD operator on the tangential-zero subspace.

    Returns (solution, iterations).  Raises :class:`ValueError` before any
    work unless diag is finite and positive and curl_scale finite and not
    negative, and before iterating if rhs - A x0 is not zero on the
    tangential boundary.  Raises :class:`SolverError` if the relative
    residual does not fall below tol within maxit iterations, or as soon as
    the norm of rhs or a squared residual norm is not finite.

    The first :data:`CG_STENCIL_ITERATIONS` iterations apply the curl
    stencils to (ex, ey) work arrays allocated once per call and updated in
    place.  A solve that needs more hands r and d over to the eigenbasis of
    :class:`~colecole.mesh.CurlCurlBasis`, where the operator is diagonal,
    and continues the same recurrence there with the same rho, threshold,
    iteration count and maxit; at convergence the inverse transform of the
    accumulated correction is added to x.  CG is invariant under that
    orthogonal change of basis, so the iterates and iteration counts are
    those of the stencil iteration up to round-off.
    """
    if not (
        math.isfinite(diag) and diag > 0.0 and math.isfinite(curl_scale) and curl_scale >= 0.0
    ):
        raise ValueError(
            "solve_spd needs a finite diag > 0 and a finite curl_scale >= 0, "
            f"got diag={diag}, curl_scale={curl_scale}"
        )
    _check_vec(rhs, grid)
    if x0 is not None:
        _check_vec(x0, grid)
    dx, dy = grid.dx, grid.dy
    area = dx * dy
    prod = (np.empty_like(rhs.ex), np.empty_like(rhs.ey))
    rhs_norm = np.sqrt(_inner_into((rhs.ex, rhs.ey), (rhs.ex, rhs.ey), area, prod))
    if not math.isfinite(rhs_norm):
        raise SolverError(
            f"conjugate gradients: right-hand side norm is {rhs_norm}",
            residual=math.nan,
            iterations=0,
        )
    if rhs_norm == 0.0:
        return VecField.zeros(grid), 0
    cell, cell_work = np.empty((grid.nx, grid.ny)), np.empty((grid.nx, grid.ny))

    def apply_stencils(v: tuple, out: tuple) -> None:
        _curl_e_into(*v, dx, dy, cell, cell_work)
        _curl_h_into(cell, dx, dy, *out)
        for vc, oc, pc in zip(v, out, prod):
            oc *= curl_scale
            oc += np.multiply(vc, diag, out=pc)

    def finite(rho: float, it: int) -> float:
        if not math.isfinite(rho):
            raise SolverError(
                f"conjugate gradients: squared residual norm is {rho} at iteration {it}",
                residual=float(np.sqrt(rho) / rhs_norm),
                iterations=it,
            )
        return rho

    sol = VecField.zeros(grid) if x0 is None else x0.copy()
    x = (sol.ex, sol.ey)
    ad = (np.empty_like(sol.ex), np.empty_like(sol.ey))
    apply_stencils(x, ad)
    r = (rhs.ex - ad[0], rhs.ey - ad[1])
    # A acts as diag I on the boundary dofs (columns 0 and ny of ex, rows 0 and
    # nx of ey), which the eigenbasis lacks: their residual must start at zero.
    if r[0][:, :: grid.ny].any() or r[1][:: grid.nx].any():
        raise ValueError(
            "solve_spd: rhs - A x0 is not zero on the tangential boundary; "
            "rhs and x0 must be tangential-zero"
        )
    d = (r[0].copy(), r[1].copy())
    rho = finite(_inner_into(r, r, area, prod), 0)
    threshold = (tol * rhs_norm) ** 2
    if rho <= threshold:
        return sol, 0
    def inner(u: tuple, v: tuple) -> float:
        return _inner_into(u, v, area, prod)

    last = min(maxit, CG_STENCIL_ITERATIONS)
    it, rho = _cg_iterations(
        apply_stencils, inner, x, r, d, ad, prod, rho, threshold, 1, last, finite
    )
    if rho > threshold and it < maxit:
        # Release the stencil work arrays, then move r and d one at a time.
        del apply_stencils, inner, ad, prod, cell, cell_work
        basis = CurlCurlBasis(grid)
        # One stacked coefficient array per vector, as 1-tuples for _cg_iterations.
        r = (basis.forward(*r),)
        d = (basis.forward(*d),)
        lam = basis.eigenvalues(diag, curl_scale)
        ad = (np.empty_like(r[0]),)
        correction = (np.zeros_like(r[0]),)

        def apply_eigen(v: tuple, out: tuple) -> None:
            np.multiply(v[0], lam, out=out[0])

        def dot(u: tuple, v: tuple) -> float:
            # einsum, not BLAS: no threads on the step path.
            return area * float(np.einsum("kij,kij->", u[0], v[0]))

        it, rho = _cg_iterations(
            apply_eigen, dot, correction, r, d, ad, ad, rho, threshold, it + 1, maxit, finite
        )
        if rho <= threshold:
            del apply_eigen, r, d, ad, lam
            ex, ey = basis.inverse(correction[0])
            sol.ex += ex
            sol.ey += ey
    if rho <= threshold:
        return sol, it
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
    denom, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])

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
    maxit = CG_MAXIT_PER_SIDE * (grid.nx + grid.ny)
    e_new, _ = solve_spd(diag, curl_scale, rhs, grid, CG_TOL, maxit, x0=state.e)
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
