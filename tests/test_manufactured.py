"""Exact solution evaluation, analytic sources vs quadrature oracle, error
norms, and the convergence harness."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from colecole.manufactured import (
    ManufacturedCase,
    caputo_cubic_factor,
    convergence_table,
    decay_initial_data,
    error_norms,
    run_case,
)
from colecole.mesh import GridSpec, VecField
from colecole.stepper import Quadrature, SchemeConfig, sample_vec

from oracles import SemiDiscreteCase


def caputo_cubic_numeric(t: float, alpha: float) -> float:
    """Riemann-Liouville integral of order 1-alpha applied to d/dt t^3,
    evaluated by adaptive quadrature with the algebraic endpoint weight."""
    val, err = quad(lambda s: 3.0 * s * s, 0.0, t, weight="alg", wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


def test_exact_field_examples():
    case = ManufacturedCase(alpha=0.5)
    px, py = case.p_exact(0.3, 0.8, 0.0)
    assert px == 0.0 and py == 0.0
    assert case.h_exact(1.0, 1.0, 0.0) == pytest.approx(4.0, rel=1e-15)
    e1, _ = case.e_exact(0.0, 0.5, 0.0)
    assert e1 == pytest.approx(1.0, rel=1e-15)


def test_caputo_factor_against_quadrature():
    for alpha in (0.1, 0.5, 0.9):
        for t in (0.25, 0.5, 1.0):
            closed = caputo_cubic_factor(t, alpha)
            numeric = caputo_cubic_numeric(t, alpha)
            assert closed == pytest.approx(numeric, abs=1e-8)
    assert caputo_cubic_factor(0.0, 0.3) == 0.0


def test_source_f3_at_time_zero_is_minus_field():
    case = ManufacturedCase(alpha=0.7)
    x = np.array([0.2, 0.6])
    y = np.array([0.3, 0.9])
    f3x, f3y = case.f3(x, y, 0.0)
    ex, ey = case.e_exact(x, y, 0.0)
    np.testing.assert_allclose(f3x, -case.material.c_p * ex, atol=0)
    np.testing.assert_allclose(f3y, -case.material.c_p * ey, atol=0)


def test_source_f2_corner_value():
    # c_m dH/dt + curl E at the origin: -(1 + 3 pi/2) e^-t
    case = ManufacturedCase(alpha=0.5)
    for t in (0.0, 0.4, 1.0):
        expected = -(1.0 + 1.5 * math.pi) * math.exp(-t)
        assert case.f2(0.0, 0.0, t) == pytest.approx(expected, rel=1e-14)


def test_source_f1_consistency_by_finite_differences():
    # f1 = c_e dE/dt + dP/dt - curl H with all pieces analytic; check the
    # time derivatives against central differences
    case = ManufacturedCase(alpha=0.5)
    x, y, t, eps = 0.37, 0.61, 0.53, 1e-6
    f1x, f1y = case.f1(x, y, t)
    de = tuple(
        (a - b) / (2 * eps)
        for a, b in zip(case.e_exact(x, y, t + eps), case.e_exact(x, y, t - eps))
    )
    dp = tuple(
        (a - b) / (2 * eps)
        for a, b in zip(case.p_exact(x, y, t + eps), case.p_exact(x, y, t - eps))
    )
    cx, cy = case._curl_h(x, y, t)
    assert f1x == pytest.approx(de[0] + dp[0] - cx, abs=1e-8)
    assert f1y == pytest.approx(de[1] + dp[1] - cy, abs=1e-8)


def test_curl_formulas_by_finite_differences():
    case = ManufacturedCase(alpha=0.5)
    x, y, t, eps = 0.41, 0.27, 0.8, 1e-6
    dh_dy = (case.h_exact(x, y + eps, t) - case.h_exact(x, y - eps, t)) / (2 * eps)
    dh_dx = (case.h_exact(x + eps, y, t) - case.h_exact(x - eps, y, t)) / (2 * eps)
    cx, cy = case._curl_h(x, y, t)
    assert cx == pytest.approx(dh_dy, abs=1e-8)
    assert cy == pytest.approx(-dh_dx, abs=1e-8)
    de2_dx = (case.e_exact(x + eps, y, t)[1] - case.e_exact(x - eps, y, t)[1]) / (2 * eps)
    de1_dy = (case.e_exact(x, y + eps, t)[0] - case.e_exact(x, y - eps, t)[0]) / (2 * eps)
    assert case._curl_e(x, y, t) == pytest.approx(de2_dx - de1_dy, abs=1e-7)


def test_sampled_exact_field_is_exactly_pec():
    case = ManufacturedCase(alpha=0.5)
    for grid in (GridSpec(6, 6), GridSpec(60, 60), GridSpec(7, 11)):
        e = sample_vec(case.e_exact, grid, 0.33)
        assert e.is_pec_compliant()


def test_error_norms_zero_at_exact_initialization():
    case = ManufacturedCase(alpha=0.5)
    grid = GridSpec(10, 10)
    state = case.initial_state(grid, SchemeConfig(theta=0.5, tau=0.1, n_steps=1))
    ee, eh, ep = error_norms(state, 0.0, case)
    assert ee <= 1e-15 and eh == 0.0 and ep == 0.0


def test_error_norm_homogeneity():
    case = ManufacturedCase(alpha=0.5)
    grid = GridSpec(8, 8)
    state = case.initial_state(grid, SchemeConfig(theta=0.5, tau=0.1, n_steps=1))
    rng = np.random.default_rng(4)
    delta = VecField(rng.standard_normal((8, 9)), rng.standard_normal((9, 8)))
    from dataclasses import replace

    e1 = error_norms(replace(state, e=state.e + delta), 0.0, case)[0]
    e2 = error_norms(replace(state, e=state.e + 2.0 * delta), 0.0, case)[0]
    assert e2 == pytest.approx(2.0 * e1, rel=1e-12)


def test_finer_tau_has_smaller_error():
    case = ManufacturedCase(alpha=0.5)
    grid = GridSpec(24, 24)
    coarse = run_case(case, grid, 0.5, 0.2)[0]
    fine = run_case(case, grid, 0.5, 0.1)[0]
    assert fine < coarse


def test_run_case_rejects_nondivisible_tau():
    case = ManufacturedCase(alpha=0.5)
    with pytest.raises(ValueError):
        run_case(case, GridSpec(8, 8), 0.5, 0.3)


def test_convergence_table_structure():
    case = ManufacturedCase(alpha=0.5)
    rows = convergence_table(case, 0.5, [0.25], GridSpec(8, 8))
    assert len(rows) == 1
    assert rows[0].rate_e is None and rows[0].rate_h is None and rows[0].rate_p is None
    rows = convergence_table(case, 0.5, [0.25, 0.125], GridSpec(8, 8))
    assert rows[1].rate_e is not None


def test_second_order_rate_where_time_error_dominates():
    # coarse tau pair on a fine grid: the second-order regime of theta = 1/2
    case = ManufacturedCase(alpha=0.5)
    rows = convergence_table(case, 0.5, [1 / 5, 1 / 10, 1 / 20], GridSpec(96, 96))
    assert rows[-1].rate_e == pytest.approx(2.0, abs=0.2)
    assert rows[-1].rate_h == pytest.approx(2.0, abs=0.2)


def test_first_order_rate_at_half_alpha_shift():
    case = ManufacturedCase(alpha=0.5)
    rows = convergence_table(case, 0.25, [1 / 10, 1 / 20, 1 / 40], GridSpec(96, 96))
    assert rows[-1].rate_e == pytest.approx(1.0, abs=0.2)
    assert rows[-1].rate_h == pytest.approx(1.0, abs=0.2)


def test_fbdf2_first_order_trend_off_half_shift():
    # H rates drift toward 1 from above for the BDF-2 kernel at theta = 0.45
    case = ManufacturedCase(alpha=0.9)
    rows = convergence_table(
        case, 0.45, [1 / 5, 1 / 10, 1 / 20, 1 / 40], GridSpec(48, 48), Quadrature.FBDF2
    )
    rates = [r.rate_h for r in rows[1:]]
    assert 0.8 <= rates[-1] <= 1.2


def test_semi_discrete_case_leaves_only_temporal_error():
    # the semi-discrete forcing removes the spatial error: the E errors do not
    # depend on the grid, and even 16x16 shows the clean second-order rates
    # (the continuous solution gives finest-pair rates near -0.2 there)
    taus = [1 / 5, 1 / 10, 1 / 20, 1 / 40]
    coarse, fine = GridSpec(16, 16), GridSpec(48, 48)
    rows = convergence_table(SemiDiscreteCase(0.5, coarse), 0.5, taus, coarse)
    rows_fine = convergence_table(SemiDiscreteCase(0.5, fine), 0.5, taus, fine)
    for row, row_fine in zip(rows, rows_fine):
        assert row.err_e == pytest.approx(row_fine.err_e, rel=1e-3), row.tau
    assert 1.8 <= rows[-1].rate_e <= 2.2
    assert 1.8 <= rows[-1].rate_h <= 2.2


def test_decay_initial_data_profile():
    grid = GridSpec(12, 12)
    e0, h0 = decay_initial_data(grid)
    assert e0.is_pec_compliant()
    case = ManufacturedCase(alpha=0.5)
    xs, ys = grid.h_coords()
    np.testing.assert_allclose(h0.h, (xs**3 + 1) * (ys**3 + 1), rtol=1e-15)
