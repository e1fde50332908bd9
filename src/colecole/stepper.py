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

on the tangential-zero edge fields.

A run keeps its fields as coefficients in the eigenbasis of
:class:`~colecole.mesh.CurlCurlBasis`: E and P as (2, nx, ny) edge
coefficients and H as (nx, ny) cell coefficients.  Both curls multiply each
mode by |v| there, the elimination is dof-local, and the energies are sums of
squares (Parseval), so a step is per-mode arithmetic: it applies no stencil
and computes no transform.  :func:`init_state` transforms the initial data
once, and :meth:`SimState.fields` transforms a state back to dof arrays.

The operator above is diagonal in that basis, with the same eigenvalues on
every step of a run.  :func:`init_state` groups them by exact value once
(:class:`Spectrum`), and :func:`solve_spd` runs conjugate gradients once per
group, warm-started from E^{n-1}: the iterates are CG's, and an iteration
costs the number of groups, not of coefficients.  One division per mode
would solve exactly; CG is kept so that every solution stays, to round-off,
the one the same CG gives on the curl stencils, where the benchmark's
recorded values come from (the division moves the FBDF2 convergence errors
by up to 2.7e-9 relative, past their 1e-11 tolerance).  H^n and P^n are
recovered exactly afterwards, so the per-step defect of the three equations
is the linear-solver residual alone.

Sources are passed as a callable ``sources(t) -> (f1, f2, f3)``
(:data:`Sources`) that returns the right-hand sides as coefficients: f1 and
f3 as edge coefficients (``CurlCurlBasis.forward``), f2 as cell coefficients
(``CurlCurlBasis.forward_cell``).  :func:`step` calls it once per step, at
t = t_{n-theta}; ``None`` means no sources.  Coefficients hold no boundary
values.  Those of f1 are not used by the scheme, whose boundary rows carry
E = 0; f3 must vanish on the tangential boundary, as
:meth:`colecole.manufactured.ManufacturedCase.sample` checks.

The P history of a run takes bounded memory (:class:`PHistory`).  The
quadrature sums the last n0 lags exactly, from a window of n0 + 2B + 1
recent P^k (B = HISTORY_FOLD = 16), and :func:`step` folds the B oldest rows
of a full window into M accumulators, one per real pole r_m of an
exponential fit to the kernel's lags from n0 on
(:func:`colecole.weights.exponential_tail`, within 1e-15 |K_0|).  n0 is
HISTORY_EXACT = 20, or for SFTR with theta < alpha/2 the lag from which the
kernel's alternating part is below 1e-16 |K_0|
(:func:`colecole.weights.alternating_lags`) if later.  Runs of at most
n0 + 2B steps never fold and sum every P^k exactly.  A step's history part
is two single-threaded contractions (:func:`frac_deriv_current`).  s_0..s_N
sit beside the window.  :func:`preflight` raises :class:`MemoryError` if
the run would not fit in physical memory; :func:`init_state` calls it before
it allocates, and so do the experiment loops before they sample initial data.

A run has one state: :func:`step` advances it in place.  The state owns its
run's history; copies of it share the history, and only the stepped state
matches it.

The state also carries the energy weights a_0..a_N of the run's (alpha,
theta), ``SimState.a_weights``; FBDF2 runs carry the trapezoidal ones too.
It carries the constants of the run's steps as well, which :func:`init_state`
builds once: |v| of every mode and the grouped :class:`Spectrum` of the
E-solve.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import CurlCurlBasis, GridSpec, ScalarField, VecField, norm_sq
# Not used here: perfbench's manufactured.sample spans wrap these two names
# in this module, and ManufacturedCase.sample calls them through it.
from .mesh import sample_scalar, sample_vec  # noqa: F401
from .weights import (
    TAIL_FIT_ROWS,
    TAIL_MAX_POLES,
    SchemeParams,
    alternating_lags,
    cumulative_weights,
    exponential_tail,
    fbdf2_weights,
    sftr_weights,
    shift_combine,
)

# CG stops at relative residual CG_TOL; SolverError after CG_MAXIT_PER_SIDE * (nx + ny) iterations.
CG_TOL = 1e-12
CG_MAXIT_PER_SIDE = 10

# At least HISTORY_EXACT lags are exact (see PHistory); a fold takes HISTORY_FOLD rows.
HISTORY_EXACT = 20
HISTORY_FOLD = 16


# sources(t) -> (f1, f2, f3) as coefficients at time t; see the module docstring.
Sources = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]


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
    """The P history of one run in bounded memory, and s_0..s_N (see
    :func:`step`) in an (N+1,) array beside it.

    ``window`` holds recent P^k as raveled coefficients: slot i holds
    P^(folded + i).  P^0 .. P^(folded-1) are folded into the (M, 2 nx ny)
    ``tail``: tail_m = sum_{k < folded} r_m^(folded-1-k) P^k, with the
    ``poles`` r and ``weights`` c of :func:`colecole.weights.exponential_tail`,
    fitted from lag ``exact`` = n0 (at most N) on; the three are None in a
    run of at most n0 + 2B steps, which never folds.  P^0 = 0 and s_0 = 0.
    The state of a run owns its history, and :func:`step` writes P^n and s_n
    into it as it advances that state to step n.
    """

    window: np.ndarray
    s: np.ndarray
    exact: int
    poles: np.ndarray | None = None
    weights: np.ndarray | None = None
    tail: np.ndarray | None = None
    folded: int = 0


class Spectrum:
    """The (2, nx, ny) eigenvalues ``lam`` of a step's E-solve
    (``CurlCurlBasis.eigenvalues``) grouped by exact value: ``values`` holds
    the distinct ones in ascending order, and ``values[index]`` is lam, bit for
    bit.  Only component 1 is sorted: component 0 is diag on every mode, the
    value of component 1 at mode (0, 0), so all of it maps to that group.

    Raises :class:`ValueError` unless every eigenvalue is finite and positive,
    so that a :func:`solve_spd` on it is well posed, or if component 0 is not
    one value of component 1.
    """

    def __init__(self, lam: np.ndarray) -> None:
        low, high = lam.min(), lam.max()
        if not (low > 0.0 and high < math.inf):
            raise ValueError(
                "the E-solve needs finite, positive eigenvalues (diag > 0, curl_scale >= 0), "
                f"got entries in [{low}, {high}]"
            )
        self.values, inverse = np.unique(lam[1], return_inverse=True)
        group = min(np.searchsorted(self.values, lam[0, 0, 0]), len(self.values) - 1)
        if np.any(lam[0] != self.values[group]):
            raise ValueError("component 0 of the eigenvalues must be one value of component 1")
        self.index = np.full(lam.shape, group, dtype=inverse.dtype)
        self.index[1] = inverse.reshape(lam.shape[1:])


@dataclass
class SimState:
    """Integrator state after step n; advanced in place by :func:`step`.

    ``e`` and ``p`` are the (2, nx, ny) edge coefficients of E^n and P^n,
    ``h`` the (nx, ny) cell coefficients of H^n (see
    :class:`~colecole.mesh.CurlCurlBasis`); :meth:`fields` gives the dof arrays.
    ``curl_modulus`` (|v| of every mode) and ``spectrum`` (the eigenvalues of
    the E-solve's operator) are constant over the run.  The state owns its
    run's ``history``; copies share it, and only the stepped state matches it.
    """

    n: int
    e: np.ndarray
    p: np.ndarray
    h: np.ndarray
    history: PHistory
    kernel_rev: np.ndarray
    a_weights: np.ndarray
    grid: GridSpec
    material: MaterialParams
    config: SchemeConfig
    curl_modulus: np.ndarray
    spectrum: Spectrum

    @property
    def time(self) -> float:
        return self.n * self.config.tau

    @property
    def kernel(self) -> np.ndarray:
        """The run's kernel K_0, K_1, ... (a view of ``kernel_rev``)."""
        return self.kernel_rev[::-1]

    def fields(self) -> tuple[VecField, VecField, ScalarField]:
        """(E^n, P^n, H^n) on the dofs, transformed back from the coefficients."""
        basis = CurlCurlBasis(self.grid)
        return (
            VecField(*basis.inverse(self.e.copy())),
            VecField(*basis.inverse(self.p.copy())),
            ScalarField(basis.inverse_cell(self.h)),
        )


def build_kernel(material: MaterialParams, config: SchemeConfig) -> np.ndarray:
    """Convolution kernel K_0..K_{N-1} of a run of N steps.

    It is applied as sum_{k=1..n} K_{n-k} P^k (:func:`frac_deriv_current`),
    which presumes P^0 = 0.  SFTR: K = omega_0..omega_{N-1}, the rule being
    sum omega_{n-k} (P^k - P^0).  FBDF2: K is the theta-combined sequence
    g_j = (1-theta) w~_j + theta w~_{j-1}, the rule being
    sum_{k=0..n} g_{n-k} P^k.  The state keeps K reversed and
    contiguous (``SimState.kernel_rev``), so that the window's part of the
    history is one single-threaded contraction with its rows.
    """
    if config.quadrature is Quadrature.SFTR:
        return sftr_weights(SchemeParams(material.alpha, config.theta), config.n_steps - 1)
    return shift_combine(fbdf2_weights(material.alpha, config.n_steps - 1), config.theta)[:-1]


def physical_memory_bytes() -> int:
    """Physical memory of this machine in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def preflight(grid: GridSpec, material: MaterialParams, config: SchemeConfig) -> tuple[int, int]:
    """(n0, rows) of a run's P history (see :class:`PHistory`): the lags it
    sums exactly and its window rows.  Raises :class:`MemoryError` unless
    the run fits in physical memory; it allocates nothing grid-sized, so a
    run calls it before its initial data."""
    steps = config.n_steps
    sftr = config.quadrature is Quadrature.SFTR
    lags = alternating_lags(SchemeParams(material.alpha, config.theta)) if sftr else 0
    exact = min(steps, max(HISTORY_EXACT, lags))  # every lag if lags is math.inf
    rows = min(steps, exact + 2 * HISTORY_FOLD) + 1
    _require_memory(grid, config, rows, TAIL_MAX_POLES if rows <= steps else 0)
    return exact, rows


def _require_memory(grid: GridSpec, config: SchemeConfig, rows: int, poles: int) -> None:
    """Raise :class:`MemoryError` unless a run with a P window of ``rows``
    rows and a tail of ``poles`` poles fits in physical memory."""
    steps, dofs = config.n_steps, 2 * grid.nx * grid.ny
    # The window; for a run that folds, its tail and a fold's temporary (M
    # rows each) and the fit's workspace (three arrays of its row blocks).
    # Twenty-five values per step: s, the kernel, the energy weights, the
    # fit's lags and targets, the weights' FFT check (three arrays of up to
    # 4 (N+1)) and the five columns of the energy trace.
    # Under 32 coefficient arrays: the step constants (three), their build
    # (five), a step's temporaries and the states it holds.
    fit = 3 * (TAIL_FIT_ROWS + poles) * (poles + 1) if poles else 0
    need = 8 * (rows * dofs + 2 * poles * dofs + fit + 25 * (steps + 1) + 32 * dofs)
    have = physical_memory_bytes()
    if need > have:
        raise MemoryError(
            f"a run of {steps} steps on {grid.nx}x{grid.ny} needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def init_state(
    grid: GridSpec,
    material: MaterialParams,
    config: SchemeConfig,
    e0: VecField,
    h0: ScalarField,
) -> SimState:
    """State at n = 0 with P^0 = 0, and the kernel, energy weights and step
    constants of the whole run.

    e0 must be zero on the tangential boundary; it is transformed to
    coefficients once.  Allocates a P window of min(n_steps, n0 + 32) + 1
    rows of 2 nx ny * 8 bytes (n0 as in :class:`PHistory`) and, if the run
    folds, a tail of M such rows.  Before it builds anything it raises
    :class:`MemoryError` if the run would not fit in physical memory.
    """
    if (
        e0.ex.shape != (grid.nx, grid.ny + 1)
        or e0.ey.shape != (grid.nx + 1, grid.ny)
        or h0.h.shape != (grid.nx, grid.ny)
    ):
        raise ValueError("initial data shapes do not match the grid")
    if not e0.is_pec_compliant():
        raise ValueError("initial electric field violates the tangential-zero boundary")
    basis = CurlCurlBasis(grid)
    return _initial_state(
        grid, material, config, basis.forward(e0.ex, e0.ey), basis.forward_cell(h0.h)
    )


def _initial_state(
    grid: GridSpec, material: MaterialParams, config: SchemeConfig, e: np.ndarray, h: np.ndarray
) -> SimState:
    """:func:`init_state` for initial data given as coefficients, which the
    state takes over."""
    steps = config.n_steps
    exact, rows = preflight(grid, material, config)
    kernel_rev = np.ascontiguousarray(build_kernel(material, config)[::-1])
    poles = weights = tail = None
    dofs = 2 * grid.nx * grid.ny
    if rows <= steps:
        poles, weights = exponential_tail(kernel_rev[::-1], exact)
        tail = np.zeros((len(poles), dofs))
    history = PHistory(np.zeros((rows, dofs)), np.zeros(steps + 1), exact, poles, weights, tail)
    tau, theta = config.tau, config.theta
    one_m = 1.0 - theta
    _, a_coef = elimination_coefficients(material, theta, tau, kernel_rev[-1])
    basis = CurlCurlBasis(grid)
    lam = basis.eigenvalues((material.c_e + a_coef) / tau, one_m * one_m * tau / material.c_m)
    curl_modulus = basis.curl_modulus()
    return SimState(
        n=0,
        e=e,
        p=np.zeros_like(e),
        h=h,
        history=history,
        kernel_rev=kernel_rev,
        a_weights=cumulative_weights(SchemeParams(material.alpha, config.theta), config.n_steps),
        grid=grid,
        material=material,
        config=config,
        curl_modulus=curl_modulus,
        spectrum=Spectrum(lam),
    )


def frac_deriv_current(state: SimState) -> np.ndarray:
    """History part tau^-alpha sum_{k=1..n-1} K_{n-k} P^k of the quadrature
    value of the Caputo derivative of P at t_{n-theta}, as coefficients,
    where n = state.n + 1 and K is the run's kernel (see :func:`build_kernel`);
    the step adds the part of P^n, tau^-alpha K_0 P^n.

    Precondition: P^0 is zero (as :func:`init_state` fixes it), so it is
    skipped and one sum serves both kernels.  The history part, P^1..P^{n-1},
    is one contraction of the reversed kernel with the window's rows, plus,
    once rows are folded, one of the weights c_m r_m^(n + 1 - folded - n0)
    with the tail, both einsums on the calling thread: through BLAS (``@``)
    they would start threads that spin through the rest of the step and cost
    more CPU than they save.
    """
    n = state.n + 1
    history = state.history
    folded = history.folded
    krev = state.kernel_rev
    first = 0 if folded else 1  # slot of P^1 or of P^folded, the first row summed
    end = len(krev) - 1
    hist = np.einsum(
        "i,ij->j", krev[end - n + folded + first : end], history.window[first : n - folded]
    )
    if folded:
        lead = history.poles ** (n + 1 - folded - history.exact)
        lead *= history.weights
        hist += np.einsum("m,mj->j", lead, history.tail)
    hist = hist.reshape(state.p.shape)
    hist *= state.config.tau ** (-state.material.alpha)
    return hist


def _fold(history: PHistory) -> None:
    """Fold the HISTORY_FOLD oldest window rows into the tail, shift the rest
    of the window down by as many slots and advance ``folded``."""
    fold, window = HISTORY_FOLD, history.window
    powers = np.power.outer(history.poles, np.arange(fold, -1, -1.0))  # r^B .. r^0
    history.tail *= powers[:, :1]
    history.tail += np.einsum("mb,bj->mj", powers[:, 1:], window[:fold])
    for start in range(0, len(window) - fold, fold):  # chunks that do not overlap
        end = min(start + 2 * fold, len(window))
        window[start : end - fold] = window[start + fold : end]
    history.folded += fold


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


def solve_spd(
    spectrum: Spectrum, rhs: np.ndarray, x0: np.ndarray, tol: float, maxit: int
) -> tuple[np.ndarray, int]:
    """Conjugate gradients for the diagonal operator with eigenvalues
    ``spectrum``, started from x0 (which is not modified).  The basis is
    orthonormal, so the iterates and iteration counts are, up to round-off,
    those of CG on the step's operator with the curl stencils on the dofs.

    On a diagonal operator, CG's k-th residual is R_k(lam) r0, r0 = rhs -
    lam x0, and its iterate x0 + (1 - R_k(lam))/lam r0, for a polynomial R_k
    fixed by the scalars alpha and beta.  Those depend on lam and r0 only
    through the weights w_g = sum of r0_i^2 over the coefficients with lam_i
    = values[g] (Gauss quadrature with the spectral measure of r0).  So the
    recurrence runs on sqrt(w) R and sqrt(w) D, D the search direction, at
    the distinct eigenvalues, where ||r||^2 and d.Ad are einsum dot products
    (on the calling thread; BLAS would start threads), and x is assembled
    once, at convergence.  An iteration costs the number of distinct
    eigenvalues.

    Returns (solution, iterations).  Raises :class:`ValueError` unless rhs
    and x0 have the spectrum's shape, and :class:`SolverError` if the
    relative residual does not fall below tol within maxit iterations, or as
    soon as the norm of rhs or a squared residual norm is not finite.
    """
    index = spectrum.index
    if rhs.shape != index.shape or x0.shape != index.shape:
        raise ValueError(f"solve_spd: shapes {index.shape}, {rhs.shape}, {x0.shape} differ")
    rhs_norm = math.sqrt(np.einsum("ijk,ijk->", rhs, rhs))
    if not math.isfinite(rhs_norm):
        raise SolverError(
            f"conjugate gradients: right-hand side norm is {rhs_norm}",
            residual=math.nan,
            iterations=0,
        )
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    # Component 0 is one group: summed apart, it keeps bincount off one bin.
    lam, group, index = spectrum.values, index[0, 0, 0], index[1]
    r0 = np.empty_like(rhs)
    r0[0] = lam[group]
    np.take(lam, index, out=r0[1])
    r0 *= x0
    np.subtract(rhs, r0, out=r0)
    w = np.bincount(index.reshape(-1), weights=np.square(r0[1]).reshape(-1))
    w[group] += np.einsum("ij,ij->", r0[0], r0[0])
    rho, threshold = w.sum(), (tol * rhs_norm) ** 2
    sqrt_w = np.sqrt(w)
    r, d = sqrt_w.copy(), sqrt_w.copy()  # sqrt(w) R and sqrt(w) D
    work = np.empty_like(lam)
    for it in range(maxit + 1):
        if rho <= threshold:
            # X = (1 - R)/lam; where w = 0, r0 is 0 in the whole group and r stays 0
            np.subtract(sqrt_w, r, out=r)
            np.divide(r, sqrt_w * lam, out=r, where=sqrt_w > 0.0)
            r0[0] *= r[group]
            r0[1] *= np.take(r, index)
            r0 += x0
            return r0, it
        if it == maxit or not math.isfinite(rho):
            break
        np.multiply(lam, d, out=work)
        alpha = rho / np.einsum("i,i->", d, work)
        work *= alpha
        r -= work
        rho_new = np.einsum("i,i->", r, r)
        d *= rho_new / rho
        d += r
        rho = rho_new
    raise SolverError(
        f"conjugate gradients: relative residual {math.sqrt(rho) / rhs_norm:.3e} "
        f"after {it} iterations (tol {tol:.1e})",
        residual=math.sqrt(rho) / rhs_norm,
        iterations=it,
    )


def step(state: SimState, sources: Sources | None = None) -> SimState:
    """Advance ``state`` one step in place, forced by ``sources`` (see
    :data:`Sources`) at t_{n-theta}, and return it.

    It advances ``n`` and rebinds ``e``, ``p`` and ``h`` to new arrays,
    never writing into the old ones, so arrays read from the state before
    the step keep E^{n-1}, P^{n-1} and H^{n-1}.  Raises :class:`ValueError`
    past the configured run.
    """
    cfg, mat, grid = state.config, state.material, state.grid
    n = state.n + 1
    if n > cfg.n_steps:
        raise ValueError(f"run is configured for {cfg.n_steps} steps, cannot advance to {n}")
    history = state.history
    tau, theta = cfg.tau, cfg.theta
    one_m = 1.0 - theta
    f1, f2, f3 = (0.0, 0.0, 0.0) if sources is None else sources((n - theta) * tau)
    e, p, h = state.e, state.p, state.h

    hist_d = frac_deriv_current(state)
    denom, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])

    # Elimination of P^n from the dof-local polarization equation.
    g = (1.0 / denom) * ((mat.c_p * theta) * e - theta * p - (mat.tau0**mat.alpha) * hist_d + f3)

    # rhs = (c_e/tau) E + (P - g)/tau + curl_h(H + (1-theta) tau/c_m f2)
    #       - (1-theta) theta tau/c_m curl_h curl_e E + f1,
    # where curl_e E = -|v| b and curl_h c = (0, -|v| c) on each mode.
    v = state.curl_modulus
    rhs = (mat.c_e / tau) * e + (1.0 / tau) * (p - g) + f1
    rhs[1] -= v * (h + (one_m * tau / mat.c_m) * f2 + (one_m * theta * tau / mat.c_m) * v * e[1])

    maxit = CG_MAXIT_PER_SIDE * (grid.nx + grid.ny)
    e_new, _ = solve_spd(state.spectrum, rhs, e, CG_TOL, maxit)
    p_new = a_coef * e_new + g
    # H^n = H^{n-1} - tau/c_m curl_e(theta average of E) + tau/c_m f2
    h_new = h + (tau / mat.c_m) * (v * (one_m * e_new[1] + theta * e[1]) + f2)
    # D(P^n) = history part + tau^-alpha K_0 P^n, so the history sum is not run again.
    d_new = hist_d + (tau ** (-mat.alpha) * state.kernel[0]) * p_new
    s_new = norm_sq(d_new, grid)

    slot = n - history.folded
    if slot == len(history.window):
        _fold(history)
        slot -= HISTORY_FOLD
    history.window[slot] = p_new.reshape(-1)
    history.s[n] = s_new
    state.n, state.e, state.p, state.h = n, e_new, p_new, h_new
    return state


def run(state: SimState, sources: Sources | None = None) -> SimState:
    """Advance ``state`` in place to the configured final step and return it."""
    while state.n < state.config.n_steps:
        step(state, sources)
    return state
