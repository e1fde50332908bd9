"""Exact solution evaluation, analytic sources vs quadrature oracle, error
norms, and the convergence harness."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from colecole.manufactured import (
    PROFILES,
    ManufacturedCase,
    caputo_cubic_factor,
    convergence_table,
    decay_initial_data,
    error_norms,
    run_case,
)
from colecole import manufactured
from colecole.mesh import CurlCurlBasis, GridSpec, VecField, sample_vec
from colecole.stepper import Quadrature, SchemeConfig

from oracles import ClosedForm, SemiDiscreteCase, edge_field


def sources_at(sources, t):
    """(f1, f2, f3) at time t of coefficient sources: each side's terms summed."""
    return tuple(
        sum(factor(t) * profile for factor, profile in terms)
        for terms in (sources.f1, sources.f2, sources.f3)
    )


def caputo_cubic_numeric(t: float, alpha: float) -> float:
    """Riemann-Liouville integral of order 1-alpha applied to d/dt t^3,
    evaluated by adaptive quadrature with the algebraic endpoint weight."""
    val, err = quad(lambda s: 3.0 * s * s, 0.0, t, weight="alg", wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


def test_exact_field_examples():
    e_profile, p_profile = PROFILES["e"], PROFILES["p"]
    assert p_profile[0](0.3, 0.8) != 0.0 and p_profile[1](0.3, 0.8) != 0.0
    _, p, _ = ManufacturedCase(alpha=0.5).sample(GridSpec(6, 6)).exact(0.0)
    assert not np.any(p)
    assert PROFILES["h"](1.0, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert e_profile[0](0.0, 0.5) == pytest.approx(1.0, rel=1e-15)


def test_caputo_factor_against_quadrature():
    for alpha in (0.1, 0.5, 0.9):
        for t in (0.25, 0.5, 1.0):
            closed = caputo_cubic_factor(t, alpha)
            numeric = caputo_cubic_numeric(t, alpha)
            assert closed == pytest.approx(numeric, abs=1e-8)
    assert caputo_cubic_factor(0.0, 0.3) == 0.0


@pytest.mark.parametrize("grid", [GridSpec(7, 11), GridSpec(16, 16)], ids=["7x11", "16x16"])
def test_sampled_case_matches_closed_forms(grid):
    # exact(t) and the sources at t, time factors times sampled, transformed
    # profiles, transformed back to the dofs against the pointwise closed
    # forms there; the atol covers round-off where a source crosses zero
    # (worst 1.5e-13 relative to the dof value there).  Coefficients hold no
    # boundary values, so the closed-form f1 is compared with its tangential
    # boundary values set to zero.
    coords = {"ex": grid.ex_coords(), "ey": grid.ey_coords(), "h": grid.h_coords()}
    basis = CurlCurlBasis(grid)

    def check(coef, closed, t):
        if closed in (ref.h, ref.f2):  # cell coefficients, padded into the case's layout
            pairs = ((basis.inverse_cell(sampled.span.unpad(coef)), closed(*coords["h"], t)),)
        else:  # edge coefficients in the case's layout
            field = edge_field(sampled.span.unpack(coef), grid)
            want = VecField(closed(*coords["ex"], t)[0], closed(*coords["ey"], t)[1]).enforce_pec()
            pairs = ((field.ex, want.ex), (field.ey, want.ey))
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    for alpha in (0.1, 0.5, 0.9):
        sampled, ref = ManufacturedCase(alpha).sample(grid), ClosedForm(alpha)
        for t in (0.0, 0.3, 0.55, 1.0):
            for field, closed in zip(sampled.exact(t), (ref.e, ref.p, ref.h)):
                check(field, closed, t)
            for field, closed in zip(sources_at(sampled.sources, t), (ref.f1, ref.f2, ref.f3)):
                check(field, closed, t)


def test_the_case_keeps_three_curl_free_coordinates():
    # component 0 of E, P and every source lies in the span of phi_E, phi_P
    # and phi_cH there: the case keeps k = 3 orthonormal rows, and its edge
    # profiles unpack to their own coefficients
    grid, case = GridSpec(48, 48), ManufacturedCase(0.5)
    sampled = case.sample(grid)
    assert sampled.span.k == 3 and sampled.e.shape == (3 + 48 * 48,)
    basis = sampled.span.basis
    np.testing.assert_allclose(np.einsum("ij,kj->ik", basis, basis), np.eye(3), rtol=0, atol=1e-14)
    e, p, _, curl_h, _ = case.coefficients(grid)
    (_, p_f1), (_, e_curl_h) = sampled.sources.f1
    for packed, coef in ((sampled.e, e), (sampled.p, p), (p_f1, p), (e_curl_h, e + curl_h)):
        np.testing.assert_allclose(
            sampled.span.unpack(packed), coef, rtol=0, atol=1e-14 * np.abs(coef).max()
        )


def test_source_f3_at_time_zero_is_minus_field():
    sampled = ManufacturedCase(alpha=0.7).sample(GridSpec(6, 9))
    _, _, f3 = sources_at(sampled.sources, 0.0)
    e, _, _ = sampled.exact(0.0)
    np.testing.assert_allclose(f3, -sampled.material.c_p * e, atol=0)


def test_source_f2_corner_value():
    # c_m dH/dt + curl E at the origin: -(1 + 3 pi/2) e^-t, the profile
    # phi_cE - phi_H there times the time factor of f2
    profile = PROFILES["curl_e"](0.0, 0.0) - PROFILES["h"](0.0, 0.0)
    assert profile == pytest.approx(-(1.0 + 1.5 * math.pi), rel=1e-14)
    case = ManufacturedCase(alpha=0.5)
    _, _, h, _, curl_e = case.coefficients(GridSpec(4, 4))
    sampled = case.sample(GridSpec(4, 4))
    for t in (0.0, 0.4, 1.0):
        _, f2, _ = sources_at(sampled.sources, t)
        np.testing.assert_allclose(
            sampled.span.unpad(f2), math.exp(-t) * (curl_e - h), rtol=1e-15, atol=0
        )


def test_source_f1_consistency_by_finite_differences():
    # f1 = c_e dE/dt + dP/dt - curl H with all pieces analytic; check the
    # time derivatives of exact(t) against central differences at every dof
    case = ManufacturedCase(alpha=0.5)
    sampled = case.sample(GridSpec(5, 7))
    curl_h = sampled.span.pack(case.coefficients(GridSpec(5, 7))[3])
    t, eps = 0.53, 1e-6
    f1, _, _ = sources_at(sampled.sources, t)
    (e_hi, p_hi, _), (e_lo, p_lo, _) = sampled.exact(t + eps), sampled.exact(t - eps)
    expected = (1.0 / (2 * eps)) * (e_hi - e_lo + p_hi - p_lo) - math.exp(-t) * curl_h
    np.testing.assert_allclose(f1, expected, rtol=0, atol=1e-8)


def test_curl_formulas_by_finite_differences():
    x, y, eps = 0.41, 0.27, 1e-6
    (e1, e2), h = PROFILES["e"], PROFILES["h"]
    cx, cy = (f(x, y) for f in PROFILES["curl_h"])
    assert cx == pytest.approx((h(x, y + eps) - h(x, y - eps)) / (2 * eps), abs=1e-8)
    assert cy == pytest.approx(-(h(x + eps, y) - h(x - eps, y)) / (2 * eps), abs=1e-8)
    de2_dx = (e2(x + eps, y) - e2(x - eps, y)) / (2 * eps)
    de1_dy = (e1(x, y + eps) - e1(x, y - eps)) / (2 * eps)
    assert PROFILES["curl_e"](x, y) == pytest.approx(de2_dx - de1_dy, abs=1e-7)


def test_sampled_exact_field_is_exactly_pec():
    # sample requires it: E, P and f3 go to coefficients, which hold no
    # tangential boundary values
    for grid in (GridSpec(6, 6), GridSpec(60, 60), GridSpec(7, 11)):
        for name in ("e", "p"):
            assert sample_vec(PROFILES[name], grid).is_pec_compliant()


@pytest.mark.parametrize("name, component", [("e", 1), ("p", 0)])
def test_non_tangential_f3_is_rejected_before_any_step(monkeypatch, name, component):
    # f3 = (D^alpha t^3 + t^3) phi_P - e^-t phi_E: a phi_E or phi_P that is not
    # zero on the tangential boundary is refused once per grid, before a run
    profiles = list(PROFILES[name])
    profiles[component] = lambda x, y: np.ones_like(x)
    monkeypatch.setitem(manufactured.PROFILES, name, tuple(profiles))
    calls = []
    monkeypatch.setattr(manufactured, "step", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=f"phi_{name.upper()}"):
        convergence_table(ManufacturedCase(0.5), 0.5, [1 / 4, 1 / 8], GridSpec(8, 8))
    assert calls == []


def test_error_norms_zero_at_exact_initialization():
    sampled = ManufacturedCase(alpha=0.5).sample(GridSpec(10, 10))
    state = sampled.initial_state(SchemeConfig(theta=0.5, tau=0.1, n_steps=1))
    ee, eh, ep = error_norms(state, sampled)
    assert ee <= 1e-15 and eh == 0.0 and ep == 0.0


def test_error_norm_homogeneity():
    sampled = ManufacturedCase(alpha=0.5).sample(GridSpec(8, 8))
    state = sampled.initial_state(SchemeConfig(theta=0.5, tau=0.1, n_steps=1))
    rng = np.random.default_rng(4)
    delta = rng.standard_normal(state.e.size)
    from dataclasses import replace

    e1 = error_norms(replace(state, e=state.e + delta), sampled)[0]
    e2 = error_norms(replace(state, e=state.e + 2.0 * delta), sampled)[0]
    assert e2 == pytest.approx(2.0 * e1, rel=1e-12)


def test_finer_tau_has_smaller_error():
    sampled = ManufacturedCase(alpha=0.5).sample(GridSpec(24, 24))
    coarse = run_case(sampled, 0.5, 0.2)[0]
    fine = run_case(sampled, 0.5, 0.1)[0]
    assert fine < coarse


def test_run_case_rejects_nondivisible_tau():
    sampled = ManufacturedCase(alpha=0.5).sample(GridSpec(8, 8))
    with pytest.raises(ValueError):
        run_case(sampled, 0.5, 0.3)


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
    np.testing.assert_allclose(h0, (xs**3 + 1) * (ys**3 + 1), rtol=1e-15)
