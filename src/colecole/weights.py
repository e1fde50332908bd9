"""Convolution-quadrature weight sequences for Caputo derivatives of order alpha.

Four families are generated here.  Each function returns the first n+1
coefficients as a read-only float64 array, values[k] the k-th:

* ``sftr_weights`` -- omega_k of the shifted fractional trapezoidal rule,
  generated by  omega(z) = [(1-z) / (1/2 (1+z) + (theta/alpha)(1-z))]^alpha.
* ``varpi_weights`` -- the companion sequence varpi_k with
  varpi(z) * omega(z) = 1 - z.
* ``cumulative_weights`` -- partial sums a_j = sum_{k<=j} varpi_k, the kernel
  of the discrete fractional integral entering the discrete energy
  (:func:`colecole.stepper.init_state` keeps them on the run's state).
* ``fbdf2_weights`` -- weights of the fractional BDF-2 rule, generated by
  (3/2 - 2z + z^2/2)^alpha.

omega, varpi and the FBDF2 weights are each c (1-z)^p (1+qz)^r with |q| < 1,
and one three-term recurrence (``_series``) generates all three (Lubich,
Discretized fractional calculus, SIAM J. Math. Anal. 1986).  The a_j are
the cumulative sum of varpi, cross-checked against the product of two
``binomial_series`` by ``series_product``, an FFT convolution.

The SFTR families take (alpha, theta) as plain floats.  ``check_alpha`` and
``check_theta`` write the rules alpha in (0, 1) and theta in (0, 1/2] once,
with one message each; the families, :class:`colecole.stepper.MaterialParams`
and :class:`colecole.stepper.SchemeConfig` call them.  ``decay_guaranteed``
tells whether theta >= alpha/2, the hypothesis of the energy-decay theorem.

``exponential_tail`` fits a run's kernel from lag n0 on by a sum of real
geometric sequences, c_m r_m^(j - n0), within 1e-15 |K_0| on every lag, so
that :mod:`colecole.stepper` can fold old history rows into one accumulator
per pole r_m.  Only smooth lags have such a tail: for theta < alpha/2 the
SFTR kernel has a part that alternates in sign, which ``alternating_lags``
bounds, and a run's n0 lies past it.

For theta in [alpha/2, 1/2] the companion sequence has a sign pattern
(varpi_0 > 0, varpi_k <= 0 for k >= 1) that makes a_j positive and
non-increasing; that structure is what the energy-decay argument of the
integrator rests on.  ``min_theta_gap_grid`` evaluates the scan that
certifies the sign pattern numerically: the minimum over theta of the gap
rho_tilde - rho.  The scalar gap at one (x, alpha, theta) and the
second-order symbol identity of varpi and a are test oracles
(``theta_gap``, ``symbol_residual`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np


def check_alpha(alpha: float) -> None:
    """Raise :class:`ValueError` unless the fractional order alpha lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"alpha={alpha} outside (0, 1); the fractional order of the "
            "Cole-Cole relaxation must be a proper fraction"
        )


def check_theta(theta: float) -> None:
    """Raise :class:`ValueError` unless the shift theta lies in (0, 1/2]."""
    if not 0.0 < theta <= 0.5:
        raise ValueError(
            f"theta={theta} outside (0, 1/2]; the shifted trapezoidal "
            "generating function is defined only for 0 < theta <= 1/2"
        )


def decay_guaranteed(alpha: float, theta: float) -> bool:
    """True iff theta >= alpha/2, the hypothesis of the energy-decay theorem."""
    return theta >= 0.5 * alpha


def binomial_series(gamma: float, scale: float, n: int) -> np.ndarray:
    """First n+1 Taylor coefficients of (1 + scale*z)**gamma.

    The cumulative product of c_k / c_{k-1} = scale * ((gamma + 1)/k - 1),
    with c_0 = 1.  The ratio is not formed as (gamma - k + 1)/k: rounding
    gamma - k + 1 drops the low bits of gamma, always in the same direction,
    and at gamma = -0.99 the product drifts 1.3e-12 by k = 10^5.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = np.arange(1, n + 1, dtype=float)
    ratios = scale * ((gamma + 1.0) / k - 1.0)
    return np.concatenate(([1.0], np.cumprod(ratios)))


def series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First n+1 Taylor coefficients of a(z) b(z) from the first n+1 of each, by
    real FFTs zero-padded to a power of two past 2n + 1, O(n log n).  It forms
    :func:`cumulative_weights`' check, the ``weights`` table's ``conv_check``
    column and the memory terms of a decay run's energy trace."""
    size = 1 << (2 * len(a) - 1).bit_length()
    spectrum = np.fft.rfft(a, size)
    spectrum *= np.fft.rfft(b, size)
    return np.fft.irfft(spectrum, size)[: len(a)]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _series(scale: float, p: float, q: float, r: float, n: int) -> np.ndarray:
    """First n+1 Taylor coefficients of scale (1-z)^p (1+qz)^r, |q| < 1.

    f = (1-z)^p (1+qz)^r solves (1-z)(1+qz) f' = [(rq-p) - q(p+r) z] f, whence
    f_{k+1} = [((rq-p) - (q-1)k) f_k + q((k-1) - (p+r)) f_{k-1}] / (k+1).
    The recurrence is forward-stable: its other solution decays like (-q)^k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lead, order = r * q - p, p + r
    vals = np.empty(n + 1)
    prev, cur = 0.0, scale
    for k in range(n + 1):
        vals[k] = cur
        prev, cur = cur, ((lead - (q - 1.0) * k) * cur + q * ((k - 1) - order) * prev) / (k + 1)
    return _read_only(vals)


def _denominator_coeffs(alpha: float, theta: float) -> tuple[float, float]:
    # 1/2 (1+z) + (theta/alpha)(1-z) = d0 + d1 z, with d0 > 0 always; every
    # SFTR-family function checks its (alpha, theta) here.
    check_alpha(alpha)
    check_theta(theta)
    r = theta / alpha
    return 0.5 + r, 0.5 - r


def alternating_lags(alpha: float, theta: float) -> int | float:
    """First lag j with (1+1/q)^alpha q^j / Gamma(alpha) <= 1e-16, q = d1/d0:
    0 if q <= 0 (theta >= alpha/2), math.inf if q rounds to 1.

    For q > 0 the cut of (1+qz)^(-alpha) at z = -1/q gives the SFTR kernel a
    part of about (1+1/q)^alpha (-q)^j j^(alpha-1) / Gamma(alpha) |K_0|
    (Lubich 1986); dropping j^(alpha-1) <= 1 keeps the bound.
    """
    d0, d1 = _denominator_coeffs(alpha, theta)
    q = d1 / d0
    if not 0.0 < q < 1.0:
        return 0 if q <= 0.0 else math.inf
    excess = alpha * (math.log1p(q) - math.log(q)) - math.lgamma(alpha) - math.log(1e-16)
    return max(0, math.ceil(excess / -math.log(q)))


def sftr_weights(alpha: float, theta: float, n: int) -> np.ndarray:
    """Shifted-fractional-trapezoidal weights omega_0..omega_n:
    omega(z) = d0^(-alpha) (1-z)^alpha (1 + (d1/d0) z)^(-alpha)."""
    d0, d1 = _denominator_coeffs(alpha, theta)
    return _series(d0 ** (-alpha), alpha, d1 / d0, -alpha, n)


def varpi_weights(alpha: float, theta: float, n: int) -> np.ndarray:
    """Companion weights varpi_0..varpi_n with varpi(z) * omega(z) = 1 - z:
    varpi(z) = d0^alpha (1-z)^(1-alpha) (1 + (d1/d0) z)^alpha."""
    d0, d1 = _denominator_coeffs(alpha, theta)
    return _series(d0**alpha, 1.0 - alpha, d1 / d0, alpha, n)


def cumulative_weights(alpha: float, theta: float, n: int) -> np.ndarray:
    """Cumulative sums a_j = sum_{k<=j} varpi_k for j = 0..n.

    The same numbers are the Taylor coefficients of
    (1-z)^(-alpha) (d0 + d1 z)^alpha = varpi(z)/(1-z); both evaluations are
    computed and must agree to 1e-12, which guards the recurrence path;
    :class:`FloatingPointError` (an :class:`ArithmeticError`) if they do not.
    The series product (:func:`series_product`) makes the check O(n log n).
    """
    vals = np.cumsum(varpi_weights(alpha, theta, n))
    d0, d1 = _denominator_coeffs(alpha, theta)
    series = binomial_series(-alpha, -1.0, n), binomial_series(alpha, d1 / d0, n)
    direct = d0**alpha * series_product(*series)
    defect = float(np.max(np.abs(vals - direct)))
    if defect > 1e-12:
        raise FloatingPointError(
            f"cumulative-weight cross-check failed: partial sums and series "
            f"expansion disagree by {defect:.3e}"
        )
    return _read_only(vals)


def fbdf2_weights(alpha: float, n: int) -> np.ndarray:
    """Fractional BDF-2 weights: coefficients of (3/2 - 2z + z^2/2)^alpha
    = (3/2)^alpha (1-z)^alpha (1 - z/3)^alpha."""
    check_alpha(alpha)
    return _series(1.5**alpha, alpha, -1.0 / 3.0, alpha, n)


def shift_combine(w: np.ndarray, theta: float) -> np.ndarray:
    """Combined kernel g_j = (1-theta) w_j + theta w_{j-1}, with w_{-1} = 0,
    for j = 0..n: from w_0..w_n, the first n+1 coefficients of the combined
    generating function (1 - theta + theta z) w(z), read-only like w."""
    if not 0.0 <= theta <= 0.5:
        raise ValueError(f"theta={theta} outside [0, 1/2]")
    out = (1.0 - theta) * w
    out[1:] += theta * w[:-1]
    return _read_only(out)


# exponential_tail: node counts M tried (32, 48, ..., TAIL_MAX_POLES), the
# largest decay rate s_m, and the rows of the least-squares problem reduced at once.
TAIL_MIN_POLES = 32
TAIL_POLE_STEP = 16
TAIL_MAX_POLES = 128
TAIL_MAX_RATE = 6.0
TAIL_FIT_ROWS = 256
TAIL_TOLERANCE = 1e-15


def _fit_block(rates: np.ndarray, target: np.ndarray, start: int) -> np.ndarray:
    """Rows start.. (at most TAIL_FIT_ROWS) of the fit's least-squares
    problem: [r_m^i | target_i] for i = start.., r_m = e^(-rates_m)."""
    stop = min(start + TAIL_FIT_ROWS, len(target))
    block = np.empty((stop - start, len(rates) + 1))
    np.multiply.outer(np.arange(start, stop, dtype=float), -rates, out=block[:, :-1])
    np.exp(block[:, :-1], out=block[:, :-1])
    block[:, -1] = target[start:stop]
    return block


def _householder(stack: np.ndarray) -> None:
    """Reduce the columns of stack but the last to upper triangular form in
    place by Householder reflections, which act on the last column too."""
    rows, cols = stack.shape
    for k in range(min(rows, cols - 1)):
        v = stack[k:, k].copy()
        norm = math.sqrt(np.einsum("i,i->", v, v))
        if norm == 0.0:
            continue
        v[0] += math.copysign(norm, v[0])
        w = np.einsum("i,ij->j", v, stack[k:, k:])
        w *= -2.0 / np.einsum("i,i->", v, v)
        stack[k:, k:] += np.multiply.outer(v, w)


def exponential_tail(kernel: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Real poles r and weights c with sum_m c_m r_m^(j - n0) = K_j to within
    1e-15 |K_0| on every lag j = n0..N-1 of kernel = K_0..K_{N-1}.

    The decay rates s_m, r_m = e^(-s_m), are M geometrically spaced values in
    [0.25/N, 6]; c is the least-squares fit to K_n0..K_{N-1}.  M starts at
    32 and grows by 16 until the bound holds; :class:`ValueError` if it has
    not by M = 128, or once a fit misses by no less than the one before,
    since more poles then only add round-off.  The least-squares problem is
    reduced by Householder reflections, TAIL_FIT_ROWS rows at a time onto
    the triangle of the rows before, and checked block by block, so the fit
    needs O(M^2) memory whatever N is.  It is einsum and ufuncs throughout:
    no LAPACK, whose BLAS threads would keep spinning after the call.
    """
    size = len(kernel)
    if not 0 < n0 < size:
        raise ValueError(f"n0={n0} must lie in (0, {size})")
    bound = TAIL_TOLERANCE * abs(kernel[0])
    target = np.asarray(kernel[n0:], dtype=float)
    starts = range(0, len(target), TAIL_FIT_ROWS)
    previous = math.inf
    for poles in range(TAIL_MIN_POLES, TAIL_MAX_POLES + 1, TAIL_POLE_STEP):
        rates = (0.25 / size) * (TAIL_MAX_RATE * size / 0.25) ** (np.arange(poles) / (poles - 1))
        stack = np.zeros((poles + TAIL_FIT_ROWS, poles + 1))  # [R | Q^T K] over the new rows
        for start in starts:
            block = _fit_block(rates, target, start)
            stack[poles:] = 0.0
            stack[poles : poles + len(block)] = block
            _householder(stack)
        weights = np.zeros(poles)
        for k in range(poles - 1, -1, -1):  # back substitution; a zero pivot keeps c_k = 0
            if stack[k, k] != 0.0:
                rest = np.einsum("i,i->", stack[k, k + 1 : poles], weights[k + 1 :])
                weights[k] = (stack[k, poles] - rest) / stack[k, k]
        worst = 0.0
        for start in starts:
            block = _fit_block(rates, target, start)
            misfit = np.einsum("jm,m->j", block[:, :-1], weights) - block[:, -1]
            worst = max(worst, float(np.max(np.abs(misfit))))
        if worst <= bound:
            return _read_only(np.exp(-rates)), _read_only(weights)
        if worst >= previous:
            break
        previous = worst
    raise ValueError(
        f"no exponential tail of at most {TAIL_MAX_POLES} poles fits the kernel's "
        f"{len(target)} lags from {n0} within {TAIL_TOLERANCE:g} |K_0|: off by {worst:.3e}"
    )


def _rho(alpha: float, theta: float | np.ndarray, k: float | np.ndarray) -> float | np.ndarray:
    r = theta / alpha
    return (
        (r - 0.5)
        * (k - 2.0)
        / (r * (2.0 * k - 1.0) + alpha - 0.5)
        * (4.0 * theta / (2.0 * theta + alpha))
        * (1.0 + 1.0 / k)
    )


def _rho_tilde(alpha: float, theta: float | np.ndarray, m: float | np.ndarray) -> float | np.ndarray:
    r = theta / alpha
    return (
        (r * (2.0 * m - 3.0) + alpha - 0.5)
        / ((r + 0.5) * m)
        * (1.0 + (2.0 * theta + alpha) / (4.0 * theta) * (m - 1.0) / m)
    )


def min_theta_gap_grid(
    x_points: int, alpha_points: int, theta_samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min over theta of the gap rho_tilde - rho at the real m = 4/x, scanned
    over a uniform (x, alpha) grid.  The gap's positivity closes the induction
    behind the companion-weight sign pattern.

    x_i = i/x_points for i = 1..x_points covers (0, 1]; alpha_j =
    j/(alpha_points+1) for j = 1..alpha_points covers the interior of (0, 1).
    For each cell the minimum is taken over theta_samples uniform samples of
    [alpha/2, 1/2] (endpoints included).  Returns (x values, alpha values,
    grid) with grid shape (x_points, alpha_points).
    """
    if min(x_points, alpha_points, theta_samples) < 2:
        raise ValueError("all scan resolutions must be >= 2")
    xs = np.arange(1, x_points + 1) / x_points
    alphas = np.arange(1, alpha_points + 1) / (alpha_points + 1)
    m = (4.0 / xs)[:, None]  # broadcast over theta samples
    grid = np.empty((x_points, alpha_points))
    for j, a in enumerate(alphas):
        thetas = np.linspace(0.5 * a, 0.5, theta_samples)[None, :]
        grid[:, j] = np.min(_rho_tilde(a, thetas, m) - _rho(a, thetas, m), axis=1)
    return xs, alphas, grid
