"""Weight-sequence generation, recursions, symbols, and the sign-gap scan."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from colecole import weights
from colecole.weights import (
    TAIL_MAX_POLES,
    alternating_lags,
    binomial_series,
    check_alpha,
    check_theta,
    cumulative_weights,
    decay_guaranteed,
    exponential_tail,
    fbdf2_weights,
    min_theta_gap_grid,
    series_product,
    sftr_weights,
    shift_combine,
    varpi_weights,
)

from oracles import (
    SymbolKind,
    fbdf2_weights_by_series,
    series_power,
    sftr_weights_by_series,
    symbol_residual,
    theta_gap,
    varpi_weights_by_series,
)

# (alpha, theta) pairs exercised by the sequence-level property tests
PARAM_GRID = [
    (a, th)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9)
    for th in (0.5 * a, 0.4 * a + 0.1, 0.5)
]


def test_range_checks_and_decay_hypothesis():
    # alpha in (0, 1) and theta in (0, 1/2]; the SFTR families check the pair
    for alpha in (1.2, 1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=rf"^alpha={alpha} outside \(0, 1\); "):
            check_alpha(alpha)
    for theta in (0.6, 0.0, math.nan):
        with pytest.raises(ValueError, match=rf"^theta={theta} outside \(0, 1/2\]; "):
            check_theta(theta)
    check_alpha(0.999)
    check_theta(0.5)
    for alpha, theta in ((1.2, 0.4), (0.5, 0.0), (0.5, 0.6)):
        with pytest.raises(ValueError, match="outside"):
            sftr_weights(alpha, theta, 4)
    assert decay_guaranteed(0.5, 0.25)
    assert not decay_guaranteed(0.5, 0.2)


def test_binomial_series_examples():
    np.testing.assert_allclose(binomial_series(1.0, -1.0, 2), [1.0, -1.0, 0.0], atol=0)
    np.testing.assert_allclose(binomial_series(2.0, 1.0, 3), [1.0, 2.0, 1.0, 0.0], atol=0)
    # closed-form binomial coefficients binom(1/2, k) (-1)^k
    np.testing.assert_allclose(binomial_series(0.5, -1.0, 2), [1.0, -0.5, -0.125], rtol=1e-15)
    with pytest.raises(ValueError, match="n must be >= 0"):
        binomial_series(0.5, 1.0, -1)


def test_sftr_reduces_to_grunwald_letnikov_at_half_alpha():
    # theta = alpha/2 collapses the denominator to 1, so omega(z) = (1-z)^alpha
    w = sftr_weights(0.5, 0.25, 1)
    np.testing.assert_allclose(w, [1.0, -0.5], atol=0)
    for alpha in (0.1, 0.3, 0.7, 0.9):
        w = sftr_weights(alpha, 0.5 * alpha, 256)
        gl = binomial_series(alpha, -1.0, 256)
        assert w[0] == 1.0
        np.testing.assert_allclose(w, gl, atol=1e-14)


@pytest.mark.parametrize(
    "alpha, theta",
    # the decay benchmark's pairs, and the ends of the admissible range
    [(0.5, 0.5), (0.6, 0.5), (0.7, 0.5), (0.8, 0.5), (0.9, 0.5), (0.4, 0.45)]
    + [(0.1, 0.05), (0.99, 0.495)],
)
def test_sftr_recurrence_matches_series_convolution(alpha, theta):
    rec = sftr_weights(alpha, theta, 10_000)
    ser = sftr_weights_by_series(alpha, theta, 10_000)
    assert len(rec) == 10_001
    np.testing.assert_allclose(rec, ser, rtol=0, atol=1e-15)


def test_sftr_leading_weight_at_half_shift():
    w = sftr_weights(0.5, 0.5, 0)
    np.testing.assert_allclose(w[0], 1.5**-0.5, rtol=1e-15)


def test_varpi_first_values():
    w = varpi_weights(0.5, 0.25, 2)
    assert w[0] == 1.0
    # (alpha - theta/alpha - 1/2) / (theta/alpha + 1/2) * varpi_0
    assert w[1] == pytest.approx(-0.5, rel=1e-15)
    # alpha (alpha-1) / (2 (theta/alpha + 1/2)^2) * varpi_0
    assert w[2] == pytest.approx(-0.125, rel=1e-15)


def test_varpi_leading_value_formula():
    for alpha, theta in PARAM_GRID:
        w = varpi_weights(alpha, theta, 0)
        assert w[0] == pytest.approx((0.5 + theta / alpha) ** alpha, rel=1e-15)


def test_varpi_recursion_matches_series_expansion():
    for alpha, theta in PARAM_GRID:
        rec = varpi_weights(alpha, theta, 512)
        ser = varpi_weights_by_series(alpha, theta, 512)
        np.testing.assert_allclose(rec, ser, atol=1e-13)


def test_convolution_identity():
    # varpi(z) * omega(z) = 1 - z
    for alpha, theta in PARAM_GRID:
        conv = np.convolve(sftr_weights(alpha, theta, 512), varpi_weights(alpha, theta, 512))
        assert abs(conv[0] - 1.0) <= 1e-12
        assert abs(conv[1] + 1.0) <= 1e-12
        assert np.max(np.abs(conv[2:513])) <= 1e-12


def test_cumulative_check_is_an_fft_convolution(monkeypatch):
    # the 1e-12 cross-check over all N + 1 entries costs O(N log N): at
    # N = 10^5 the quadratic convolution took seconds, and so did the FBDF2
    # weights as a convolution of two binomial series
    def quadratic(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", quadratic)
    # alpha near 1 needs a drift-free binomial series for its reference
    pairs = ((0.5, 0.5), (0.1, 0.05), (0.9, 0.45), (0.95, 0.5), (0.99, 0.495), (0.99, 0.01))
    for alpha, theta in pairs:
        a = cumulative_weights(alpha, theta, 10**5)
        assert len(a) == 10**5 + 1
        assert np.all(np.diff(a) <= 0.0) or not decay_guaranteed(alpha, theta)
    assert len(fbdf2_weights(0.5, 10**5)) == 10**5 + 1
    monkeypatch.undo()
    np.testing.assert_allclose(
        cumulative_weights(0.7, 0.5, 300), np.cumsum(varpi_weights_by_series(0.7, 0.5, 300)),
        rtol=0, atol=1e-13,
    )


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 1000])
def test_series_product_is_the_truncated_convolution(n):
    # zero-padded past 2n + 1, the circular product is the linear one
    a, b = np.random.default_rng(n).standard_normal((2, n + 1))
    product = series_product(a, b)
    assert product.shape == (n + 1,)
    np.testing.assert_allclose(product, np.convolve(a, b)[: n + 1], rtol=0, atol=1e-12)


def test_cumulative_cross_check_failure_raises(monkeypatch):
    # the partial sums do not read binomial_series, the check's series do
    real = weights.binomial_series
    monkeypatch.setattr(weights, "binomial_series", lambda *a: real(*a) + 1e-9)
    with pytest.raises(ArithmeticError, match="cross-check failed"):
        cumulative_weights(0.5, 0.5, 16)


KERNELS = {
    "sftr-0.1-0.05": lambda n: sftr_weights(0.1, 0.05, n - 1),
    "sftr-0.5-0.5": lambda n: sftr_weights(0.5, 0.5, n - 1),
    "sftr-0.99-0.495": lambda n: sftr_weights(0.99, 0.495, n - 1),
    "fbdf2-0.5-0.5": lambda n: shift_combine(fbdf2_weights(0.5, n - 1), 0.5),
}


@pytest.mark.parametrize("n_steps", [100, 400, 4000])
@pytest.mark.parametrize("kernel", KERNELS)
def test_exponential_tail_fits_every_read_lag(kernel, n_steps):
    k = KERNELS[kernel](n_steps)
    assert len(k) == n_steps
    poles, weights = exponential_tail(k, 20)
    m = len(poles)
    assert m in range(32, TAIL_MAX_POLES + 1, 16) and weights.shape == (m,)
    rates = -np.log(poles)
    assert rates[0] == pytest.approx(0.25 / n_steps, rel=1e-12)
    assert rates[-1] == pytest.approx(6.0, rel=1e-12)
    np.testing.assert_allclose(rates[1:] / rates[:-1], rates[1] / rates[0], rtol=1e-9)
    lags = np.arange(n_steps - 20)
    fit = (weights * poles ** lags[:, None]).sum(axis=1)
    assert np.max(np.abs(fit - k[20:])) <= 1e-15 * abs(k[0])


def test_exponential_tail_refuses_what_it_cannot_fit(monkeypatch):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="no exponential tail"):
        exponential_tail(rng.standard_normal(300), 20)
    # theta < alpha/2: the kernel's part in (-d1/d0)^j, d1/d0 = 0.957, makes
    # it change sign at every lag up to 313, which no sum of at most 128
    # positive-pole exponentials can; the fits stop improving well before
    # M = 128, and so does the search
    tried = set()
    block = weights._fit_block
    monkeypatch.setattr(weights, "_fit_block", lambda r, *a: tried.add(len(r)) or block(r, *a))
    with pytest.raises(ValueError, match="no exponential tail"):
        exponential_tail(sftr_weights(0.9, 0.01, 399), 20)
    assert 32 in tried and max(tried) < TAIL_MAX_POLES
    for n0 in (0, 300):
        with pytest.raises(ValueError, match="n0"):
            exponential_tail(np.ones(300), n0)


# the theta < alpha/2 pairs of the grid alpha x theta, theta in {0.001, 0.01,
# 0.3, 0.45}, whose tail a 4000-step run fits
ALTERNATING = [
    (a, th)
    for a in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
    for th in (0.001, 0.01, 0.3, 0.45)
    if th < 0.5 * a and alternating_lags(a, th) + 33 <= 4000
]


@pytest.mark.parametrize("alpha, theta", ALTERNATING)
def test_exponential_tail_fits_from_where_the_kernel_stops_alternating(alpha, theta):
    # the fit holds within 1e-15 |K_0| at its unrounded rates s_m; read from
    # the poles r_m = e^(-s_m) rounded to doubles, as a run reads it, the
    # tail is up to 7.1e-15 |K_0| off at (0.05, 0.001), whose weights cancel
    k = sftr_weights(alpha, theta, 3999)
    n0 = max(20, alternating_lags(alpha, theta))
    poles, weights = exponential_tail(k, n0)
    fit = (weights * poles ** np.arange(4000 - n0)[:, None]).sum(axis=1)
    assert np.max(np.abs(fit - k[n0:])) <= 1e-14 * abs(k[0])


def _alternating_part(a, theta, j):
    """|part in (-q)^j| / |K_0| of omega_j, q = d1/d0 > 0, from the cut
    x >= 1/q of (1 + qz)^(-alpha): sin(pi a)/pi times the integral of
    (1+x)^a (qx-1)^(-a) x^(-j-1), with x = (1+u)/q."""
    d0, d1 = weights._denominator_coeffs(a, theta)
    q = d1 / d0
    g = lambda u: (1.0 + (1.0 + u) / q) ** a * (1.0 + u) ** (-j - 1.0)
    near = quad(g, 0.0, 1.0, weight="alg", wvar=(-a, 0.0), limit=200)[0]
    far = quad(lambda u: u ** (-a) * g(u), 1.0, np.inf)[0]
    return math.sin(math.pi * a) / math.pi * q**j * (near + far)


def test_alternating_lags_bound_the_alternating_part():
    assert alternating_lags(0.9, 0.45) == 0
    assert alternating_lags(0.5, 1e-18) == math.inf  # d1/d0 rounds to 1
    for (alpha, theta), lag in {(0.9, 0.2): 40, (0.9, 0.01): 842, (0.5, 0.01): 458}.items():
        assert alternating_lags(alpha, theta) == lag
        assert _alternating_part(alpha, theta, lag) <= 1e-16
        # the oracle: omega_j / K_0 = (-1)^j part - the cut x >= 1 of (1-z)^alpha
        c = math.sin(math.pi * alpha) / math.pi
        d0, d1 = weights._denominator_coeffs(alpha, theta)
        f = lambda u: (1.0 + d1 / d0 * (1.0 + u)) ** (-alpha) * (1.0 + u) ** -6.0
        smooth = quad(f, 0.0, 1.0, weight="alg", wvar=(alpha, 0.0))[0]
        smooth += quad(lambda u: u**alpha * f(u), 1.0, np.inf)[0]
        k = sftr_weights(alpha, theta, 5) * d0**alpha
        assert -_alternating_part(alpha, theta, 5) - c * smooth == pytest.approx(k[5], rel=1e-12)


def test_cumulative_examples_and_kind_check():
    varpi = varpi_weights(0.5, 0.25, 2)
    a = cumulative_weights(0.5, 0.25, 2)
    assert a[0] == varpi[0]
    assert a[1] == pytest.approx(0.5, rel=1e-15)
    assert a[2] == pytest.approx(0.375, rel=1e-15)
    # a plain array carries no family tag; what is left to reject is a bad length
    for family in (varpi_weights, cumulative_weights):
        with pytest.raises(ValueError, match="n must be >= 0"):
            family(0.5, 0.25, -1)


def test_sign_pattern_and_monotone_cumulative():
    # varpi_0 > 0 and varpi_k <= 0 for k >= 1; partial sums positive non-increasing
    for alpha, theta in PARAM_GRID:
        varpi = varpi_weights(alpha, theta, 2000)
        assert varpi[0] > 0.0
        assert np.all(varpi[1:] <= 0.0)
        a = cumulative_weights(alpha, theta, 2000)
        assert np.all(a > 0.0)
        assert np.all(np.diff(a) <= 0.0)


def test_tail_decay_rates_slowly_varying():
    # |varpi_k| k^(2-alpha) and a_k k^(1-alpha) flatten out over dyadic k
    ks = np.array([500, 1000, 2000])
    for alpha, theta in PARAM_GRID:
        varpi = varpi_weights(alpha, theta, 2000)
        a = cumulative_weights(alpha, theta, 2000)
        scaled_v = np.abs(varpi[ks]) * ks ** (2.0 - alpha)
        scaled_a = a[ks] * ks ** (1.0 - alpha)
        for scaled in (scaled_v, scaled_a):
            ratios = scaled[1:] / scaled[:-1]
            assert np.all(ratios >= 0.8) and np.all(ratios <= 1.25)


def test_fbdf2_leading_values():
    w = fbdf2_weights(0.5, 1)
    assert w[0] == pytest.approx(1.5**0.5, rel=1e-15)
    # first derivative of the generating function at 0: -2 alpha (3/2)^(alpha-1)
    assert w[1] == pytest.approx(-2 * 0.5 * 1.5 ** (0.5 - 1.0), rel=1e-15)
    with pytest.raises(ValueError):
        fbdf2_weights(1.5, 4)


def test_fbdf2_series_division_oracle():
    # (1-z)^-alpha * w~(z) = 2^-alpha (3-z)^alpha = (3/2)^alpha (1 - z/3)^alpha
    for alpha in (0.2, 0.5, 0.8):
        w = fbdf2_weights(alpha, 16)
        lhs = np.convolve(binomial_series(-alpha, -1.0, 16), w)[:17]
        rhs = 1.5**alpha * binomial_series(alpha, -1.0 / 3.0, 16)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_fbdf2_recurrence_matches_series_convolution():
    for alpha in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(
            fbdf2_weights(alpha, 2000), fbdf2_weights_by_series(alpha, 2000), rtol=0, atol=1e-15
        )


def test_fbdf2_against_power_series_power():
    for alpha in (0.1, 0.5, 0.9):
        direct = series_power(np.array([1.5, -2.0, 0.5]), alpha, 31)
        np.testing.assert_allclose(fbdf2_weights(alpha, 31), direct, rtol=1e-12)


def test_shift_combine():
    w = np.array([2.0, 3.0, -1.0])
    out = shift_combine(w, 0.0)
    np.testing.assert_allclose(out, w, atol=0)
    assert not out.flags.writeable
    np.testing.assert_allclose(shift_combine(np.array([1.0, -1.0]), 0.5), [0.5, 0.0], atol=0)
    fb = fbdf2_weights(0.5, 1)
    out = shift_combine(fb, 0.25)
    assert out[0] == pytest.approx(0.75 * 1.5**0.5, rel=1e-15)
    assert out[1] == pytest.approx(0.75 * fb[1] + 0.25 * fb[0], rel=1e-15)
    with pytest.raises(ValueError):
        shift_combine(w, 0.7)


def test_symbol_residual_second_order():
    for alpha in (0.3, 0.5, 0.7):
        for theta in (0.5 * alpha, 0.5):
            for kind in (SymbolKind.VARPI_SYMBOL, SymbolKind.A_SYMBOL):
                ratio = (
                    symbol_residual(kind, alpha, theta, 0.05)
                    / symbol_residual(kind, alpha, theta, 0.025)
                )
                assert 3.4 <= ratio <= 4.6, (alpha, theta, kind, ratio)


def test_symbol_residual_closed_form_at_half_alpha():
    # theta = alpha/2 gives varpi(z) = (1-z)^(1-alpha) in closed form
    for alpha in (0.3, 0.7):
        theta = 0.5 * alpha
        tau = 0.05
        exact = abs(
            tau ** (alpha - 1.0)
            * math.exp((0.5 - theta) * tau)
            * (1.0 - math.exp(-tau)) ** (1.0 - alpha)
            - 1.0
        )
        got = symbol_residual(SymbolKind.VARPI_SYMBOL, alpha, theta, tau)
        assert got == pytest.approx(exact, abs=1e-10)


def test_symbol_residual_well_posed_and_tail_guard():
    r = symbol_residual(SymbolKind.VARPI_SYMBOL, 0.5, 0.5, 0.5)
    assert np.isfinite(r) and r > 0.0
    with pytest.raises(ValueError, match="too small"):
        symbol_residual(SymbolKind.A_SYMBOL, 0.5, 0.5, 0.05, K=5)


def test_theta_gap_values():
    # theta = alpha/2 kills the rho factor (theta/alpha - 1/2), so the
    # whole gap is the positive envelope term
    m = 4.0 / 1.0
    r = 0.5
    rho_tilde = (r * (2 * m - 3) + 0.5 - 0.5) / ((r + 0.5) * m) * (
        1 + (2 * 0.25 + 0.5) / (4 * 0.25) * (m - 1) / m
    )
    assert theta_gap(1.0, 0.5, 0.25) == pytest.approx(rho_tilde, rel=1e-15)
    assert theta_gap(1.0, 0.5, 0.25) == pytest.approx(1.09375, abs=1e-15)
    assert theta_gap(0.5, 0.5, 0.5) > 0.0
    with pytest.raises(ValueError):
        theta_gap(1.5, 0.5, 0.25)
    with pytest.raises(ValueError):
        theta_gap(0.5, 0.5, 0.1)


def test_min_theta_gap_grid_structure():
    xs, alphas, grid = min_theta_gap_grid(2, 3, 2)
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(xs, [0.5, 1.0])
    np.testing.assert_allclose(alphas, [0.25, 0.5, 0.75])
    # each cell is the pointwise min over the sampled thetas
    for i, x in enumerate(xs):
        for j, a in enumerate(alphas):
            samples = [theta_gap(x, a, th) for th in np.linspace(0.5 * a, 0.5, 2)]
            assert grid[i, j] == pytest.approx(min(samples), rel=1e-15)
    with pytest.raises(ValueError):
        min_theta_gap_grid(1, 3, 2)


def test_min_theta_gap_bounded_by_endpoint_sample():
    # min over theta cannot exceed the theta = alpha/2 endpoint value
    xs, alphas, grid = min_theta_gap_grid(4, 3, 8)
    assert 0.5 in alphas
    j = list(alphas).index(0.5)
    assert grid[-1, j] <= 1.09375 + 1e-12


def test_seq_inequality_random_sequences():
    # v_n sum varpi_{n-k} v_k >= 1/2 sum a_{n-k} (v_k^2 - v_{k-1}^2)
    #                            + (sum varpi_{n-k} v_k)^2 / (2 varpi_0)
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        alpha = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.5 * alpha, 0.5)
        n = int(rng.integers(1, 65))
        varpi = varpi_weights(alpha, theta, n)
        a = cumulative_weights(alpha, theta, n)
        v = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, n)])
        s = float(np.dot(varpi[:n][::-1], v[1:]))
        lhs = v[n] * s
        rhs = 0.5 * float(np.dot(a[:n][::-1], v[1:] ** 2 - v[:-1] ** 2)) + s * s / (2.0 * varpi[0])
        assert lhs - rhs >= -1e-12


def test_weight_sequence_invariants():
    # every family comes back as read-only float64 storage of n+1 entries
    for w in (
        sftr_weights(0.5, 0.25, 4),
        varpi_weights(0.5, 0.25, 4),
        cumulative_weights(0.5, 0.25, 4),
        fbdf2_weights(0.5, 4),
    ):
        assert w.dtype == np.float64 and w.shape == (5,)
        with pytest.raises(ValueError):
            w[0] = 2.0  # frozen storage
