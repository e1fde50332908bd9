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
:class:`~colecole.mesh.CurlCurlBasis`, and every per-coordinate array (E,
P, H, the history rows, |v|, the E-solve's eigenvalues, the source
profiles) as one vector of its :class:`~colecole.mesh.Span` layout: k
coordinates of component 0 (the curl-free half, where |v| = 0 and the cell
arrays H and f2 are 0), then the nx ny tangential coefficients.  On
component 0 every mode follows one scalar recurrence, uncoupled from H, so
the component stays in the span of E^0's and of the sources' profiles,
which k orthonormal coordinates hold exactly: k = 1 without sources (0 if
E^0 has no component 0), 3 for the manufactured case.  Both curls multiply
each coordinate by |v|, the elimination is dof-local, and the energies are
sums of squares (Parseval), so a step is per-coordinate arithmetic with no
stencil, transform or shape: a slice of every vector steps as that slice of
the run.  :func:`init_state` transforms the initial data once, and
:meth:`SimState.fields` transforms a state back to dof arrays.

The operator above is diagonal in that basis, with the same eigenvalues on
every step of a run, which :func:`init_state` holds as one vector of the
layout, the divisor (:class:`Spectrum`).  :func:`solve_spd` solves a run
without sources exactly, one division per coordinate.  A forced run groups
the divisor by exact value once, and solves by conjugate gradients once per
group, warm-started from E^{n-1}, to relative residual CG_TOL: the
benchmark's recorded convergence errors are that CG's, and the division
moves them by up to 2.7e-9 relative, past their 1e-11 tolerance.  H^n and
P^n are recovered exactly afterwards.

A run's sources (:class:`Sources`) are time factors times coefficient
profiles: :func:`step` adds each factor at t_{n-theta} times its profile in
place.  Coefficients hold no boundary values: f1's are not used (the boundary
rows carry E = 0), and f3 must vanish there, as ``ManufacturedCase`` checks.

The P history of a run takes bounded memory (:class:`PHistory`).  The
quadrature sums the last n0 lags exactly, from a window of the
W = min(N, n0 + 2B + 1) latest P^k (B = HISTORY_FOLD = 16; P^0 = 0 is not
stored).  A run of N > W steps folds the B oldest rows of a full window into
M accumulators, one pole at a time, so a fold's temporary is one row.  The
accumulators serve the lags from n0 + B + 3 on, the first a step reads from
them.  There is one per real pole r_m of an exponential fit to the kernel's
lags from n0 on (:func:`colecole.weights.exponential_tail`, within
1e-15 |K_0|), less the poles whose terms on those lags sum to at most
1e-18 |K_0|.  n0 is HISTORY_EXACT = 20, or for SFTR with theta < alpha/2
the lag from which the kernel's alternating part is below 1e-16 |K_0|
(:func:`colecole.weights.alternating_lags`) if later.  Accumulators and
window are one array, and a step's history part is one single-threaded
contraction of it (:func:`frac_deriv_current`).  s_0..s_N sit beside it.
:func:`preflight` refuses a run that would not fit in physical memory, or
whose tau the E-solve cannot represent; :func:`init_state` calls it before
it transforms initial data, and the experiment loops before they sample them.

A run has one state: :func:`step` advances it in place.  The state owns its
run's history; copies of it share the history, and only the stepped state
matches it.  A step holds only what its next part reads: it folds a full
window as soon as its history sum has read it, builds g in the history row
that P^n then takes, E^n in the right-hand side's buffer (:func:`solve_spd`)
and D^alpha P^n in the history part's, and two scratch vectors, dropped
for the solve, take the products, the sources' terms included.  A step
allocates at most five vectors of the run's layout.  As the history moves
before the solve, a step that raises leaves the state ``stepping``, and
:func:`step` refuses it from then on.

The state also carries the energy weights a_0..a_N of the run's (alpha,
theta), ``SimState.a_weights``; FBDF2 runs carry the trapezoidal ones too.
It carries the constants of the run's steps as well, which :func:`init_state`
builds once: |v| of every coordinate, the E-solve's :class:`Spectrum`,
the span of component 0 and the sources in its layout.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import CurlCurlBasis, GridSpec, Span, VecField, as_count, curl_free_span, einsum, norm_sq
# Not used here: perfbench's manufactured.sample spans wrap these two names
# in this module, and ManufacturedCase.coefficients calls them through it.
from .mesh import sample_scalar, sample_vec  # noqa: F401
from .weights import (
    TAIL_FIT_ROWS,
    TAIL_MAX_POLES,
    TAIL_TOLERANCE,
    alternating_lags,
    check_alpha,
    check_theta,
    cumulative_weights,
    exponential_tail,
    fbdf2_weights,
    sftr_weights,
    shift_combine,
)

CG_TOL = 1e-12
CG_MAXIT_PER_SIDE = 10

# At least HISTORY_EXACT lags are exact (see PHistory); a fold takes HISTORY_FOLD rows.
HISTORY_EXACT = 20
HISTORY_FOLD = 16


@dataclass(frozen=True, eq=False)
class Sources:
    """The right-hand sides f1, f2 and f3 of a run, each a tuple of (factor,
    profile) terms, the side at time t the sum of factor(t) profile.  Profiles
    are coefficients: (nx, ny) cell arrays for f2 and (2, nx, ny) edge arrays
    for f1 and f3 as :func:`init_state` takes them or, in a state, layout vectors."""

    f1: tuple[tuple[Callable[[float], float], np.ndarray], ...]
    f2: tuple[tuple[Callable[[float], float], np.ndarray], ...]
    f3: tuple[tuple[Callable[[float], float], np.ndarray], ...]


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
        check_alpha(self.alpha)


@dataclass(frozen=True)
class SchemeConfig:
    theta: float
    tau: float
    n_steps: int
    quadrature: Quadrature = Quadrature.SFTR

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_steps", as_count("n_steps", self.n_steps))
        check_theta(self.theta)
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass(eq=False)
class PHistory:
    """The P history of one run in bounded memory, and s_0..s_N (see
    :func:`step`) in an (N+1,) array beside it; s_0 = 0.

    ``rows`` holds vectors of the run's span layout, k + nx ny values each:
    M tail rows, then a window of W = min(N, n0 + 2B + 1) rows whose slot i
    is P^(folded + 1 + i); P^0 = 0 is not stored.
    tail_m = sum_{k <= folded} r_m^(folded-k) P^k, with the ``poles`` r and
    ``weights`` c of :func:`colecole.weights.exponential_tail`, fitted from
    lag ``exact`` = n0 (at most N) on.  A run folds only when
    N > W; one that does not has M = 0.  A fold leaves n0 + B + 1 rows in the
    window, so the tail is read from lag n0 + B + 3 on, and M counts the
    poles kept for those lags (see :func:`_read_poles`).
    The state of a run owns its history, and :func:`step` writes P^n and s_n
    into it as it advances that state to step n.
    """

    rows: np.ndarray
    s: np.ndarray
    exact: int
    poles: np.ndarray
    weights: np.ndarray
    folded: int = 0


def check_eigenvalues(low: float, high: float, subject: str) -> None:
    """:class:`ValueError`, led by ``subject``, unless the smallest E-solve eigenvalue
    is a normal float and the square of the largest finite (as Python floats: no warning)."""
    low, high = float(low), float(high)
    if not (low >= np.finfo(float).tiny and high * high < math.inf):
        raise ValueError(
            f"{subject} the E-solve's eigenvalues in [{low:.3g}, {high:.3g}]: "
            "the smallest must be a normal float and the square of the largest finite"
        )


class Spectrum:
    """A run's E-solve eigenvalues on its layout, the ``divisor``: diag on
    component 0, then ``CurlCurlBasis.eigenvalues`` raveled (``Span.pad``).
    A run without sources keeps it, and :func:`solve_spd` divides by it.  A
    ``grouped`` one, a forced run's, keeps ``values``, its distinct entries
    ascending, and ``index``, the group of each coordinate (``values[index]``
    is the divisor bit for bit), and not the divisor; what a spectrum does
    not keep is None.  ``shape`` (nx, ny) bounds the CG's iterations.

    Raises :class:`ValueError` unless the eigenvalues pass
    :func:`check_eigenvalues`.
    """

    def __init__(self, divisor: np.ndarray, shape: tuple[int, int], grouped: bool) -> None:
        check_eigenvalues(divisor.min(), divisor.max(), "the spectrum puts")
        self.divisor, self.values, self.index, self.shape = divisor, None, None, shape
        if grouped:
            self.values, self.index = np.unique(divisor, return_inverse=True)
            self.divisor = None


@dataclass
class SimState:
    """Integrator state after step n; advanced in place by :func:`step`.

    ``e``, ``p`` and ``h`` hold the coefficients of E^n, P^n and H^n (see
    :class:`~colecole.mesh.CurlCurlBasis`) as vectors of the layout of ``span``,
    H 0 on component 0; :meth:`fields` gives the dof arrays.  ``kernel``
    (K_0..K_{N-1} of :func:`build_kernel`, read-only), ``a_weights``,
    ``curl_modulus`` (|v| of every coordinate), ``spectrum`` (the E-solve's),
    ``span`` and ``sources`` (in its layout; no terms for none) are constant
    over the run.  The state owns its run's ``history``; copies share it, and
    only the stepped state matches it.  ``stepping`` is True while a step
    changes the history, and stays True once a step has raised part-way.
    """

    n: int
    e: np.ndarray
    p: np.ndarray
    h: np.ndarray
    history: PHistory
    kernel: np.ndarray
    a_weights: np.ndarray
    grid: GridSpec
    material: MaterialParams
    config: SchemeConfig
    curl_modulus: np.ndarray
    spectrum: Spectrum
    span: Span
    sources: Sources
    stepping: bool = False

    @property
    def time(self) -> float:
        return self.n * self.config.tau

    def fields(self) -> tuple[VecField, VecField, np.ndarray]:
        """(E^n, P^n, H^n) on the dofs, transformed back from the coefficients
        (component 0 mapped back from the span): E and P as edge pairs, H as
        an (nx, ny) cell array."""
        basis, span = CurlCurlBasis(self.grid), self.span
        e, p = (VecField(*basis.inverse(span.unpack(x))) for x in (self.e, self.p))
        return e, p, basis.inverse_cell(span.unpad(self.h))


def build_kernel(material: MaterialParams, config: SchemeConfig) -> np.ndarray:
    """Convolution kernel K_0..K_{N-1} of a run of N steps.

    It is applied as sum_{k=1..n} K_{n-k} P^k (:func:`frac_deriv_current`),
    which presumes P^0 = 0.  SFTR: K = omega_0..omega_{N-1}, the rule being
    sum omega_{n-k} (P^k - P^0).  FBDF2: K is the theta-combined sequence
    g_j = (1-theta) w~_j + theta w~_{j-1}, the rule being
    sum_{k=0..n} g_{n-k} P^k, whose term g_n P^0 is zero.  The state keeps
    this array as ``SimState.kernel``.
    """
    if config.quadrature is Quadrature.SFTR:
        return sftr_weights(material.alpha, config.theta, config.n_steps - 1)
    return shift_combine(fbdf2_weights(material.alpha, config.n_steps - 1), config.theta)


def physical_memory_bytes() -> int:
    """Physical memory of this machine in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def preflight(
    grid: GridSpec, material: MaterialParams, config: SchemeConfig, k: int = 1
) -> tuple[int, int]:
    """(n0, W) of a run's P history (see :class:`PHistory`): the lags it
    sums exactly and its window rows; the run folds if W < n_steps.  It
    allocates nothing grid-sized, so a run calls it before its initial data.
    :class:`ValueError` unless bounds of the E-solve's eigenvalues, from
    (c_e + a)/tau to that plus (1-theta)^2 tau max|v|^2/c_m, pass
    :func:`check_eigenvalues`, at 0 < a < c_p and |v|^2 < 4/dx^2 + 4/dy^2.
    :class:`MemoryError` unless the run, whose span has at most ``k`` rows,
    fits in physical memory by :func:`memory_estimate`."""
    mat, tau, one_m, sx, sy = material, config.tau, 1.0 - config.theta, 2 / grid.dx, 2 / grid.dy
    high = (mat.c_e + mat.c_p) / tau + one_m * one_m * tau * (sx * sx + sy * sy) / mat.c_m
    check_eigenvalues(mat.c_e / tau, high, f"tau={tau} puts")
    need, have = memory_estimate(grid, material, config, k), physical_memory_bytes()
    if need > have:
        raise MemoryError(
            f"a run of {config.n_steps} steps on {grid.nx}x{grid.ny} needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory"
        )
    return _history_rows(material, config)


def _history_rows(material: MaterialParams, config: SchemeConfig) -> tuple[int, int]:
    """(n0, W) of :func:`preflight`."""
    sftr = config.quadrature is Quadrature.SFTR
    lags = alternating_lags(material.alpha, config.theta) if sftr else 0
    exact = min(config.n_steps, max(HISTORY_EXACT, lags))  # every lag if lags is math.inf
    return exact, min(config.n_steps, exact + 2 * HISTORY_FOLD + 1)


def memory_estimate(
    grid: GridSpec, material: MaterialParams, config: SchemeConfig, k: int = 1
) -> int:
    """An upper bound, in bytes, of what a run allocates whose span has at
    most ``k`` rows: its W window rows and, if it folds, TAIL_MAX_POLES tail
    rows, each of k + nx ny values, since it is taken before the fit."""
    _, window = _history_rows(material, config)
    poles = TAIL_MAX_POLES if window < config.n_steps else 0
    steps, row, dofs = config.n_steps, k + grid.nx * grid.ny, 2 * grid.nx * grid.ny
    # Besides the rows, for a run that folds, the fit's workspace (three
    # arrays of its row blocks).  Twenty-five values per step: s, the kernel,
    # the energy weights, the fit's lags and targets, one FFT series product
    # at a time (three arrays of up to 4 (N+1): the weights' check, then a decay
    # run's memory terms) and the five columns of the energy trace.
    # Ten arrays of 2 nx ny values, a layout vector a half: a forced step holds
    # the state (1.5), |v| and the spectrum's index (1), its temporaries and the
    # solve's (2.5), the span's three rows (1.5) and the case's profiles (2.5);
    # a one-step forced run peaks at 9.7, traced at 256^2.  256 KiB for what a
    # process allocates once (numpy.fft's import takes about 120 KiB).
    fit = 3 * (TAIL_FIT_ROWS + poles) * (poles + 1) if poles else 0
    return 8 * ((window + poles) * row + fit + 25 * (steps + 1) + 10 * dofs) + 2**18


def init_state(
    grid: GridSpec,
    material: MaterialParams,
    config: SchemeConfig,
    e0: VecField,
    h0: np.ndarray,
    sources: Sources | None = None,
) -> SimState:
    """State at n = 0 with P^0 = 0, the kernel, energy weights and step constants
    of the whole run, and its ``sources`` (:class:`Sources`, None for none).

    e0 is the edge pair of E^0 and h0 the (nx, ny) cell array of H^0, taken
    as floats.  Both must be finite, as must every source profile, and e0
    zero on the tangential boundary, or :class:`ValueError` is raised, then
    what :func:`preflight` raises, before anything is transformed; each is
    then transformed once, E^0 and the f1 and f3 profiles are packed into
    the layout of the span of their component 0
    (:func:`~colecole.mesh.curl_free_span`, in that order), and H^0 and the
    f2 profiles padded into it.
    Allocates the M + W rows of (k + nx ny) * 8 bytes of :class:`PHistory`,
    M at most TAIL_MAX_POLES; a fold adds a temporary of one row.
    """
    nx, ny, h0 = grid.nx, grid.ny, np.asarray(h0, dtype=float)
    if (e0.ex.shape, e0.ey.shape, h0.shape) != ((nx, ny + 1), (nx + 1, ny), (nx, ny)):
        raise ValueError("initial data shapes do not match the grid")
    f1, f2, f3 = (sources.f1, sources.f2, sources.f3) if sources else ((), (), ())
    checked = {"initial data E0": (e0.ex, e0.ey), "initial data H0": (h0,)}
    for tag, terms in (("f1", f1), ("f2", f2), ("f3", f3)):
        checked[f"source {tag}"] = [profile for _, profile in terms]
    for name, arrays in checked.items():
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"{name} has a NaN or infinite entry")
    if not e0.is_pec_compliant():
        raise ValueError("initial electric field violates the tangential-zero boundary")
    history = preflight(grid, material, config, 1 + len(f1) + len(f3))
    basis = CurlCurlBasis(grid)
    e = basis.forward(e0.ex, e0.ey)
    span = curl_free_span(e[0], *(profile[0] for _, profile in f1 + f3))
    f1, f3 = (tuple((f, span.pack(profile)) for f, profile in terms) for terms in (f1, f3))
    f2 = tuple((f, span.pad(profile)) for f, profile in f2)
    e = span.pack(e)  # E^0's (2, nx, ny) coefficients go before H^0's transform
    h = span.pad(basis.forward_cell(h0))
    return _initial_state(grid, material, config, history, span, e, h, Sources(f1, f2, f3))


def _initial_state(
    grid: GridSpec,
    material: MaterialParams,
    config: SchemeConfig,
    history: tuple[int, int],
    span: Span,
    e: np.ndarray,
    h: np.ndarray,
    sources: Sources,
) -> SimState:
    """:func:`init_state` given :func:`preflight`'s pair, the span, and E^0, H^0
    and the sources as a state holds them."""
    exact, window = history
    kernel = build_kernel(material, config)
    poles = weights = np.empty(0)
    if window < config.n_steps:
        # A fold leaves n0 + B + 1 of the n0 + 2B + 1 window rows, so the tail
        # is first read at lag n0 + B + 3: from pole exponent B + 3.
        poles, weights = _read_poles(
            *exponential_tail(kernel, exact), abs(kernel[0]), HISTORY_FOLD + 3
        )
    tau, theta = config.tau, config.theta
    one_m = 1.0 - theta
    _, a_coef = elimination_coefficients(material, theta, tau, kernel[0])
    basis = CurlCurlBasis(grid)
    # built before the history, so their temporaries do not sit on top of it
    diag, curl_scale = (material.c_e + a_coef) / tau, one_m * one_m * tau / material.c_m
    forced = bool(sources.f1 or sources.f2 or sources.f3)
    spectrum = Spectrum(span.pad(basis.eigenvalues(diag, curl_scale), diag), span.shape, forced)
    curl_modulus = span.pad(basis.curl_modulus())
    rows = np.zeros((len(poles) + window, len(e)))
    return SimState(
        n=0,
        e=e,
        p=np.zeros_like(e),
        h=h,
        history=PHistory(rows, np.zeros(config.n_steps + 1), exact, poles, weights),
        kernel=kernel,
        a_weights=cumulative_weights(material.alpha, config.theta, config.n_steps),
        grid=grid,
        material=material,
        config=config,
        curl_modulus=curl_modulus,
        spectrum=spectrum,
        span=span,
        sources=sources,
    )


def _read_poles(
    poles: np.ndarray, weights: np.ndarray, scale: float, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """The poles and weights of an exponential tail that a run reads from
    exponent ``first`` on, in their order.  Drops the poles of smallest
    |c_m| r_m^first while those sum to at most 1e-3 * TAIL_TOLERANCE * scale:
    each |c_m| r_m^j falls with j, so no read lag moves by more than that."""
    size = np.abs(weights) * poles**first
    order = np.argsort(size, kind="stable")
    dropped = np.searchsorted(np.cumsum(size[order]), 1e-3 * TAIL_TOLERANCE * scale, side="right")
    keep = np.ones(len(poles), dtype=bool)
    keep[order[:dropped]] = False
    return poles[keep], weights[keep]


def frac_deriv_current(state: SimState) -> np.ndarray:
    """History part tau^-alpha sum_{k=1..n-1} K_{n-k} P^k of the quadrature
    value of the Caputo derivative of P at t_{n-theta}, as coefficients,
    where n = state.n + 1 and K is the run's kernel (see :func:`build_kernel`);
    the step adds the part of P^n, tau^-alpha K_0 P^n.

    Precondition: P^0 is zero (as :func:`init_state` fixes it), so it is
    not stored and one sum serves both kernels.  The history part is one
    contraction of the history's live rows, the M tail rows and the window's
    P^(folded+1)..P^(n-1), with one coefficient vector: the weights
    c_m r_m^(n - folded - n0), then the lags K_{n-1-folded}..K_1.  It is an
    einsum on the calling thread: through BLAS (``@``) it would start threads
    that spin through the rest of the step and cost more CPU than they save.
    """
    n, history = state.n + 1, state.history
    live = n - 1 - history.folded  # window rows summed
    # the tail rows are zero until the first fold; max(0, .) keeps r^-j from overflowing
    lead = history.poles ** max(0, n - history.folded - history.exact) * history.weights
    coef = np.concatenate((lead, state.kernel[live:0:-1]))
    hist = einsum("i,ij->j", coef, history.rows[: len(coef)])
    hist *= state.config.tau ** (-state.material.alpha)
    return hist


def _fold(history: PHistory) -> None:
    """Fold the HISTORY_FOLD oldest window rows into the tail, shift the rest
    of the window down by as many slots and advance ``folded``.  The tail is
    folded one pole at a time, so the fold's temporary is one row."""
    fold, m = HISTORY_FOLD, len(history.poles)
    tail, window = history.rows[:m], history.rows[m:]
    powers = np.power.outer(history.poles, np.arange(fold, -1, -1.0))  # r^B .. r^0
    for row, power in zip(tail, powers):
        row *= power[0]
        row += einsum("b,bj->j", power[1:], window[:fold])
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
    """The E-solve met a non-finite right-hand side or residual, or conjugate
    gradients missed their tolerance.  A :func:`step` that raises it
    leaves a state that cannot step on."""

    def __init__(self, message: str, residual: float, iterations: int) -> None:
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        # pickled with all three arguments, so that it crosses a process boundary
        return type(self), (self.args[0], self.residual, self.iterations)


def solve_spd(spectrum: Spectrum, rhs: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, int]:
    """The E-solve with eigenvalues ``spectrum``, in the buffer of ``rhs``:
    rhs / divisor if the spectrum keeps its divisor, else conjugate
    gradients from x0 (only read), whose iterates and counts are, up to
    round-off, CG's with the curl stencils on the dofs (the basis is
    orthonormal).  rhs and x0 are vectors of the spectrum's layout.

    On a diagonal operator, CG's k-th residual is R_k(lam) r0, r0 = rhs -
    lam x0, and its iterate x0 + (1 - R_k(lam))/lam r0, for a polynomial R_k
    fixed by the scalars alpha and beta.  Those depend on lam and r0 only
    through the weights w_g = sum of r0_i^2 over the coordinates with lam_i
    = values[g] (Gauss quadrature with the spectral measure of r0), a
    bincount over ``spectrum.index``.  So the recurrence runs on sqrt(w) R
    and sqrt(w) D, D the search direction, at the distinct eigenvalues,
    where ||r||^2 and d.Ad are einsum dot products (on the calling thread;
    BLAS would start threads), and x is assembled once, at convergence.

    Returns (solution, iterations), 0 for the division.  Raises
    :class:`ValueError` unless rhs and x0 have the shape of the layout,
    and :class:`SolverError` as soon as the norm of rhs or a squared residual
    norm is not finite, or if the relative residual is not below CG_TOL
    within CG_MAXIT_PER_SIDE * (nx + ny) iterations.
    """
    lam, index, divisor = spectrum.values, spectrum.index, spectrum.divisor
    layout = (index if divisor is None else divisor).shape
    if rhs.shape != layout or x0.shape != layout:
        raise ValueError(f"solve_spd: shapes {rhs.shape}, {x0.shape} are not the layout's {layout}")
    tol, maxit = CG_TOL, CG_MAXIT_PER_SIDE * sum(spectrum.shape)
    rhs_norm = math.sqrt(einsum("i,i->", rhs, rhs))
    if not math.isfinite(rhs_norm):
        raise SolverError(f"E-solve: right-hand side norm is {rhs_norm}", math.nan, 0)
    if rhs_norm == 0.0:
        rhs.fill(0.0)
        return rhs, 0
    if divisor is not None:
        # Forced runs keep the CG only as perfbench/references.json records its
        # iterates (converge_fbdf2); it goes when that file is recorded again.
        return np.divide(rhs, divisor, out=rhs), 0
    r0, scratch = rhs, np.take(lam, index)  # r0 = rhs - lam x0
    r0 -= np.multiply(scratch, x0, out=scratch)
    w = np.bincount(index, weights=np.square(r0, out=scratch))
    rho, threshold = w.sum(), (tol * rhs_norm) ** 2
    sqrt_w = np.sqrt(w, out=w)
    r, d = sqrt_w.copy(), sqrt_w.copy()  # sqrt(w) R and sqrt(w) D
    work = scratch[: len(lam)]  # scratch is free until the solution is scattered
    for it in range(maxit + 1):
        if rho <= threshold:
            # X = (1 - R)/lam; where w = 0, r0 is 0 in the whole group and r stays 0
            np.subtract(sqrt_w, r, out=r)
            np.divide(r, np.multiply(sqrt_w, lam, out=work), out=r, where=sqrt_w > 0.0)
            r0 *= np.take(r, index, out=scratch, mode="clip")  # unbuffered; index is in range
            r0 += x0
            return r0, it
        if it == maxit or not math.isfinite(rho):
            break
        np.multiply(lam, d, out=work)
        alpha = rho / einsum("i,i->", d, work)
        work *= alpha
        r -= work
        rho_new = einsum("i,i->", r, r)
        d *= rho_new / rho
        d += r
        rho = rho_new
    raise SolverError(
        f"conjugate gradients: relative residual {math.sqrt(rho) / rhs_norm:.3e} "
        f"after {it} iterations (tol {tol:.1e})",
        residual=math.sqrt(rho) / rhs_norm,
        iterations=it,
    )


def step(state: SimState) -> SimState:
    """Advance ``state`` one step in place, forced by its sources (see
    :class:`Sources`) at t_{n-theta}, and return it.

    It advances ``n`` and rebinds ``e``, ``p`` and ``h`` to new arrays,
    never writing into the old ones, so arrays read from the state before
    the step keep E^{n-1}, P^{n-1} and H^{n-1}.  Raises :class:`ValueError`
    past the configured run, and for a state whose last step raised part-way
    (``SimState.stepping``): that step may have folded the history and
    written P^n's row, so the run cannot go on.
    """
    cfg, mat, grid = state.config, state.material, state.grid
    n = state.n + 1
    if n > cfg.n_steps:
        raise ValueError(f"run is configured for {cfg.n_steps} steps, cannot advance to {n}")
    if state.stepping:
        raise ValueError(f"step {n} of this run raised part-way; the run cannot go on")
    history, sources = state.history, state.sources
    tau, theta = cfg.tau, cfg.theta
    one_m, t = 1.0 - theta, (n - theta) * tau
    e, p, h, v = state.e, state.p, state.h, state.curl_modulus
    hist_d = frac_deriv_current(state)
    state.stepping = True  # until the step ends: the history moves from here on
    slot = len(history.poles) + n - 1 - history.folded  # row of P^n
    if slot == len(history.rows):  # a full window, whose rows the sum has read
        _fold(history)
        slot -= HISTORY_FOLD
    row = history.rows[slot]  # free until P^n is written to it: g's buffer, then scratch
    denom, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])

    # Products go to two scratch vectors, dropped for the solve; sums are
    # taken in place in each formula's order, a source's terms in theirs.
    # Elimination of P^n = a E^n + g from the polarization equation:
    # g = (1/denom) ((c_p theta) E - theta P - tau0^alpha hist_d + f3)
    g = np.multiply(e, mat.c_p * theta, out=row)
    work = np.multiply(p, theta)
    g -= work
    g -= np.multiply(hist_d, mat.tau0**mat.alpha, out=work)
    for factor, profile in sources.f3:
        g += np.multiply(profile, factor(t), out=work)
    g *= 1.0 / denom

    # rhs = (c_e/tau) E + (P - g)/tau + curl_h(H + (1-theta) tau/c_m f2)
    #       - (1-theta) theta tau/c_m curl_h curl_e E + f1,
    # where curl_e E = -|v| b and curl_h c = (0, -|v| c) on each coordinate,
    # |v| = 0 on component 0.
    rhs = np.multiply(e, mat.c_e / tau)
    rhs += np.multiply(np.subtract(p, g, out=work), 1.0 / tau, out=work)
    for factor, profile in sources.f1:
        rhs += np.multiply(profile, factor(t), out=work)
    f2 = [(factor(t), profile) for factor, profile in sources.f2]
    curl, cell = work, np.multiply(v, one_m * theta * tau / mat.c_m)
    np.add(h, np.multiply(cell, e, out=cell), out=curl)
    for value, profile in f2:
        curl += np.multiply(profile, value * one_m * tau / mat.c_m, out=cell)
    rhs -= np.multiply(curl, v, out=curl)
    del work, curl, cell

    e_new, _ = solve_spd(state.spectrum, rhs, e)  # in rhs's buffer
    p_new = np.multiply(e_new, a_coef)
    p_new += g  # g + a E^n; g's row is scratch from here on
    # H^n = H^{n-1} + tau/c_m (|v| ((1-theta) E^n + theta E^{n-1}) + f2), 0 on
    # component 0; the increment built in H^n's buffer and H^{n-1} added last
    h_new = np.multiply(e_new, one_m)
    h_new += np.multiply(e, theta, out=row)
    h_new *= v
    for value, profile in f2:
        h_new += np.multiply(profile, value, out=row)
    h_new *= tau / mat.c_m
    h_new += h
    # D(P^n) = history part + tau^-alpha K_0 P^n, so the history sum is not run again.
    hist_d += np.multiply(p_new, tau ** (-mat.alpha) * state.kernel[0], out=row)
    row[:] = p_new
    history.s[n] = norm_sq(hist_d, grid)
    state.n, state.e, state.p, state.h, state.stepping = n, e_new, p_new, h_new, False
    return state


def run(state: SimState) -> SimState:
    """Advance ``state`` in place to the configured final step and return it."""
    while state.n < state.config.n_steps:
        step(state)
    return state
