"""Integrator: initialization, fractional quadrature, steps vs dense oracles,
residual contracts, the conjugate-gradient solver, and run invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from colecole.manufactured import ManufacturedCase
from colecole.mesh import GridSpec, ScalarField, VecField, curl_e, curl_h, inner_e, norm_e
from colecole.stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SolverError,
    elimination_coefficients,
    frac_deriv_current,
    init_state,
    run,
    scheme_residual,
    solve_spd,
    step,
)
from colecole.weights import SchemeParams, fbdf2_weights, sftr_weights, varpi_weights

from oracles import dense_step_solution, poly_sources, with_p_history


def zero_state(grid=None, alpha=0.5, theta=0.5, tau=0.1, n_steps=4, quadrature=Quadrature.SFTR):
    grid = grid or GridSpec(4, 4)
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    return init_state(grid, material, config, VecField.zeros(grid), ScalarField.zeros(grid))


def test_material_and_config_validation():
    with pytest.raises(ValueError):
        MaterialParams(c_p=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(alpha=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(theta=0.6, tau=0.1, n_steps=4)
    with pytest.raises(ValueError):
        SchemeConfig(theta=0.5, tau=0.0, n_steps=4)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("c_e", "c_m", "c_p", "tau0"):
            with pytest.raises(ValueError, match=name):
                MaterialParams(**{name: bad})
        with pytest.raises(ValueError, match="tau"):
            SchemeConfig(theta=0.5, tau=bad, n_steps=4)


def test_init_state():
    state = zero_state()
    assert state.n == 0
    assert not np.any(state.p.ex) and len(state.p_history) == 1
    assert state.s_norm_sq == (0.0,)
    # kernel covers the whole run and starts at the generating sequence
    assert len(state.kernel) == state.config.n_steps
    assert state.kernel[0] == sftr_weights(SchemeParams(0.5, 0.5), 0).values[0]
    fb = zero_state(quadrature=Quadrature.FBDF2, theta=0.4)
    assert len(fb.kernel) == fb.config.n_steps + 1
    assert fb.kernel[0] == pytest.approx(0.6 * fbdf2_weights(0.5, 0).values[0], rel=1e-15)
    grid = GridSpec(4, 4)
    bad = VecField(np.ones((4, 5)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        init_state(grid, MaterialParams(), SchemeConfig(0.5, 0.1, 4), bad, ScalarField.zeros(grid))


def test_frac_deriv_zero_and_single_term():
    state = zero_state(alpha=0.3, theta=0.4, tau=0.2)
    assert not np.any(frac_deriv_current(state, VecField.zeros(state.grid)).ex)
    c = 1.7
    const = VecField(c * np.ones((4, 5)), c * np.ones((5, 4)))
    d = frac_deriv_current(state, const)
    expected = 0.2 ** (-0.3) * state.kernel[0] * c
    np.testing.assert_allclose(d.ex, expected, rtol=1e-14)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_frac_deriv_cubic_history_brute_force(quadrature):
    # scalar history P^k = t_k^3 replicated across dofs vs direct summation
    tau, alpha, theta, n_steps = 0.125, 0.6, 0.35, 8
    state = zero_state(alpha=alpha, theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    vals = [(k * tau) ** 3 for k in range(n_steps + 1)]
    hist = tuple(
        VecField(v * np.ones((4, 5)), v * np.ones((5, 4))) for v in vals[:n_steps]
    )
    state = with_p_history(state, hist, s_norm_sq=(0.0,) * n_steps)
    d = frac_deriv_current(state, VecField(vals[-1] * np.ones((4, 5)), vals[-1] * np.ones((5, 4))))
    kern = state.kernel
    n = n_steps
    if quadrature is Quadrature.SFTR:
        brute = sum(kern[n - k] * (vals[k] - vals[0]) for k in range(1, n + 1))
    else:
        brute = sum(kern[n - k] * vals[k] for k in range(0, n + 1))
    brute *= tau ** (-alpha)
    np.testing.assert_allclose(d.ex, brute, rtol=1e-13)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_one_history_sum_per_step(quadrature, monkeypatch):
    calls = []

    def counting(state, p_new):
        calls.append(state.n)
        return frac_deriv_current(state, p_new)

    monkeypatch.setattr("colecole.stepper.frac_deriv_current", counting)
    grid = GridSpec(6, 6)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=5, quadrature=quadrature)
    pairs = []
    run(case.initial_state(config), case.sources, lambda a, b: pairs.append((a, b)))
    assert calls == [0, 1, 2, 3, 4]
    # the recorded s^n = ||D^alpha P||^2 equals the full quadrature at P^n
    for prev, new in pairs:
        d = frac_deriv_current(prev, new.p)
        assert new.s_norm_sq[-1] == pytest.approx(inner_e(d, d, grid), rel=1e-13)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_straight_run_fills_one_buffer(quadrature):
    # a straight run writes every P^k into the rows init_state allocated,
    # and the contraction matches a per-row loop over the history
    case = ManufacturedCase(alpha=0.7).sample(GridSpec(6, 6))
    config = SchemeConfig(theta=0.4, tau=1.0 / 60, n_steps=60, quadrature=quadrature)
    start = case.initial_state(config)
    pairs = []
    final = run(start, case.sources, lambda a, b: pairs.append((a, b)))
    dofs = start.p.ex.size + start.p.ey.size
    assert final.history is start.history and final.history.filled == 61
    assert final.history.rows.nbytes == (config.n_steps + 1) * dofs * 8
    assert len(final.p_history) == 61 and not final.p_history[-1].ex.flags.writeable
    scale = config.tau ** (-0.7)
    for prev, new in pairs:
        n, hist = new.n, prev.p_history
        loop = prev.kernel[0] * new.p
        for k in range(1, n):
            loop.ex += prev.kernel[n - k] * hist[k].ex
            loop.ey += prev.kernel[n - k] * hist[k].ey
        d = frac_deriv_current(prev, new.p)
        np.testing.assert_allclose(d.ex, scale * loop.ex, rtol=1e-13, atol=0)
        np.testing.assert_allclose(d.ey, scale * loop.ey, rtol=1e-13, atol=0)


def test_step_zero_state_stays_zero():
    state = zero_state()
    new = step(state)
    assert not np.any(new.e.ex) and not np.any(new.h.h) and not np.any(new.p.ey)
    assert new.s_norm_sq[-1] == 0.0


# (material, theta, tau, n_steps): three steps of a generic medium, and
# twenty steps that take the Caputo history well past its first terms.
DENSE_CASES = {
    "": (MaterialParams(c_e=2.0, c_m=3.0, c_p=1.5, tau0=0.8, alpha=0.3), 0.4, 0.2, 3),
    "-20steps": (MaterialParams(c_e=1.3, c_m=0.7, c_p=2.1, tau0=1.4, alpha=0.45), 0.35, 0.1, 20),
}


@pytest.mark.parametrize(
    "quadrature, case",
    [pytest.param(q, c, id=f"{q}{c}") for c in DENSE_CASES for q in Quadrature],
)
def test_step_matches_dense_solve(quadrature, case):
    # consecutive steps on a 2x2 grid against the raw coupled system
    material, theta, tau, n_steps = DENSE_CASES[case]
    grid = GridSpec(2, 2)
    rng = np.random.default_rng(42)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature, cg_tol=1e-14)
    e0 = VecField(rng.standard_normal((2, 3)), rng.standard_normal((3, 2))).enforce_pec()
    h0 = ScalarField(rng.standard_normal((2, 2)))
    state = init_state(grid, material, config, e0, h0)
    sources = poly_sources(grid)
    for _ in range(n_steps):
        e_ref, h_ref, p_ref = dense_step_solution(state, sources)
        state = step(state, sources)
        np.testing.assert_allclose(state.e.ex, e_ref.ex, atol=1e-12)
        np.testing.assert_allclose(state.e.ey, e_ref.ey, atol=1e-12)
        np.testing.assert_allclose(state.h.h, h_ref.h, atol=1e-12)
        np.testing.assert_allclose(state.p.ex, p_ref.ex, atol=1e-12)
        np.testing.assert_allclose(state.p.ey, p_ref.ey, atol=1e-12)


def test_scheme_residual_zero_dynamics():
    state = zero_state()
    new = step(state)
    assert scheme_residual(state, new) == (0.0, 0.0, 0.0)


def test_scheme_residual_below_solver_tolerance():
    grid = GridSpec(12, 12)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    config = SchemeConfig(theta=0.5, tau=0.05, n_steps=4, cg_tol=1e-12)
    state = case.initial_state(config)
    sources = case.sources
    kappa, denom, a_coef = elimination_coefficients(
        state.material, config.theta, config.tau, state.kernel[0]
    )
    for _ in range(4):
        new = step(state, sources)
        r1, r2, r3 = scheme_residual(state, new, sources)
        scale = (state.material.c_e + a_coef) / config.tau * max(1.0, norm_e(new.e, grid))
        assert max(r1, r2, r3) <= 10.0 * config.cg_tol * scale
        state = new


def test_scheme_residual_linearity_in_perturbation():
    # a consistent (E, P) perturbation moves only the first equation's defect,
    # by ((c_e + a)/tau) per unit of field
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=1)
    state = case.initial_state(config)
    sources = case.sources
    new = step(state, sources)
    mat = state.material
    _, _, a_coef = elimination_coefficients(mat, config.theta, config.tau, state.kernel[0])
    rng = np.random.default_rng(11)
    delta = VecField(
        1e-3 * rng.standard_normal((8, 9)), 1e-3 * rng.standard_normal((9, 8))
    ).enforce_pec()
    perturbed = replace(new, e=new.e + delta, p=new.p + a_coef * delta)
    r1, _, r3 = scheme_residual(state, perturbed, sources)
    expected = (mat.c_e + a_coef) / config.tau * norm_e(delta, grid)
    assert r1 == pytest.approx(expected, rel=1e-3)
    assert r3 <= 1e-12  # the polarization equation is immune by construction


def test_solve_spd_basics():
    grid = GridSpec(4, 4)
    rng = np.random.default_rng(2)
    rhs = VecField(rng.standard_normal((4, 5)), rng.standard_normal((5, 4))).enforce_pec()
    x, its = solve_spd(lambda v: v, rhs, grid, 1e-12, 50)
    np.testing.assert_allclose(x.ex, rhs.ex, atol=1e-13)
    assert its <= 1
    x, _ = solve_spd(lambda v: 2.0 * v, rhs, grid, 1e-12, 50)
    np.testing.assert_allclose(x.ey, 0.5 * rhs.ey, atol=1e-13)
    x, its = solve_spd(lambda v: v, VecField.zeros(grid), grid, 1e-12, 50)
    assert its == 0 and not np.any(x.ex)


def test_solve_spd_against_dense_factorization():
    grid = GridSpec(4, 4)
    op = lambda v: v + curl_h(curl_e(v, grid), grid)
    rng = np.random.default_rng(3)
    rhs = VecField(rng.standard_normal((4, 5)), rng.standard_normal((5, 4))).enforce_pec()

    def flatten(v):
        return np.concatenate([v.ex.ravel(), v.ey.ravel()])

    def unflatten(x):
        return VecField(x[:20].reshape(4, 5), x[20:].reshape(5, 4))

    size = 40
    mat = np.empty((size, size))
    basis = np.zeros(size)
    for j in range(size):
        basis[j] = 1.0
        mat[:, j] = flatten(op(unflatten(basis)))
        basis[j] = 0.0
    ref = np.linalg.solve(mat, flatten(rhs))
    x, _ = solve_spd(op, rhs, grid, 1e-13, 200)
    np.testing.assert_allclose(flatten(x), ref, atol=1e-11)


def test_solve_spd_maxit_error():
    case = ManufacturedCase(alpha=0.5).sample(GridSpec(16, 16))
    config = SchemeConfig(theta=0.5, tau=0.05, n_steps=1, cg_maxit=1, cg_tol=1e-14)
    state = case.initial_state(config)
    with pytest.raises(SolverError) as err:
        step(state, case.sources)
    assert err.value.residual > 0.0 and err.value.iterations == 1


def test_difference_identity_from_companion_weights():
    # (P^n - P^{n-1})/tau = tau^(alpha-1) sum_k varpi_{n-k} D^alpha P^{k-theta}
    grid = GridSpec(10, 10)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    config = SchemeConfig(theta=0.3, tau=0.1, n_steps=8)
    state = run(case.initial_state(config), case.sources)
    tau, alpha = config.tau, 0.6
    omega = state.kernel
    varpi = varpi_weights(SchemeParams(alpha, config.theta), config.n_steps).values
    hist = state.p_history

    def quadrature_at(k):
        acc = VecField.zeros(grid)
        for j in range(1, k + 1):
            acc = acc + omega[k - j] * (hist[j] - hist[0])
        return tau ** (-alpha) * acc

    d_values = [quadrature_at(k) for k in range(1, config.n_steps + 1)]
    for n in range(1, config.n_steps + 1):
        lhs = (1.0 / tau) * (hist[n] - hist[n - 1])
        rhs = VecField.zeros(grid)
        for k in range(1, n + 1):
            rhs = rhs + varpi[n - k] * d_values[k - 1]
        rhs = tau ** (alpha - 1.0) * rhs
        assert norm_e(lhs - rhs, grid) <= 1e-10 * max(1.0, norm_e(lhs, grid))


def test_determinism_bitwise():
    case = ManufacturedCase(alpha=0.5).sample(GridSpec(10, 10))
    config = SchemeConfig(theta=0.5, tau=0.1, n_steps=5)
    a = run(case.initial_state(config), case.sources)
    b = run(case.initial_state(config), case.sources)
    assert np.array_equal(a.e.ex, b.e.ex)
    assert np.array_equal(a.h.h, b.h.h)
    assert np.array_equal(a.p.ey, b.p.ey)
    assert a.s_norm_sq == b.s_norm_sq


def test_step_linear_in_sources():
    grid = GridSpec(8, 8)
    xe, ye = grid.ex_coords()
    xn, yn = grid.ey_coords()
    xc, yc = grid.h_coords()
    s1 = poly_sources(grid)

    def s2(t):
        return (
            VecField(np.cos(t) * ye, 0.2 * xn * t),
            ScalarField(np.sin(t) * xc * yc),
            VecField(0.5 * t * t * ye, xn * np.exp(-t)),
        )

    def s_sum(t):
        return tuple(a + b for a, b in zip(s1(t), s2(t)))

    outs = []
    for src in (s1, s2, s_sum):
        state = zero_state(grid=grid, theta=0.4, tau=0.1, n_steps=6)
        outs.append(run(state, src))
    np.testing.assert_allclose(outs[0].e.ex + outs[1].e.ex, outs[2].e.ex, atol=1e-9)
    np.testing.assert_allclose(outs[0].h.h + outs[1].h.h, outs[2].h.h, atol=1e-9)
    np.testing.assert_allclose(outs[0].p.ey + outs[1].p.ey, outs[2].p.ey, atol=1e-9)


def test_stepping_a_past_state_branches_its_history():
    # A -> B -> C, then A again (B'), C on to D and B again (C'): a branch
    # copies the rows its state owns and leaves the run it came from untouched
    case = ManufacturedCase(alpha=0.6).sample(GridSpec(8, 8))
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=4)
    sources = case.sources
    a = case.initial_state(config)
    b = step(a, sources)
    c = step(b, sources)
    c_rows = c.history.rows[: c.n + 1].copy()
    b2 = step(a, sources)
    d = step(c, sources)
    c2 = step(b, sources)
    straight = case.initial_state(config)
    for _ in range(3):
        straight = step(straight, sources)
    assert b2.history is not a.history and c2.history is not a.history
    assert d.history is a.history
    for x, y in ((b2, b), (d, straight), (c2, c)):
        assert x.n == y.n
        for name in ("e", "p"):
            assert np.array_equal(getattr(x, name).ex, getattr(y, name).ex)
            assert np.array_equal(getattr(x, name).ey, getattr(y, name).ey)
        assert np.array_equal(x.h.h, y.h.h)
        assert x.s_norm_sq == y.s_norm_sq
        assert np.array_equal(x.history.rows[: x.n + 1], y.history.rows[: y.n + 1])
    assert np.array_equal(c.history.rows[: c.n + 1], c_rows)


def test_step_beyond_configured_run_fails():
    state = run(zero_state(n_steps=2))
    with pytest.raises(ValueError):
        step(state)
