"""Integrator: initialization, fractional quadrature, steps vs dense oracles,
residual contracts, the conjugate-gradient solver, the memory preflight, and
run invariants."""

import copy
import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from colecole import energy, stepper
from colecole.manufactured import (
    ManufacturedCase, SampledCase, convergence_table, decay_initial_data, run_case
)
from colecole.mesh import CurlCurlBasis, GridSpec, Span, VecField, curl_free_span
from colecole.stepper import (
    CG_MAXIT_PER_SIDE,
    CG_TOL,
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SolverError,
    Sources,
    Spectrum,
    elimination_coefficients,
    frac_deriv_current,
    init_state,
    run,
    solve_spd,
    step,
)
from colecole.weights import (
    TAIL_FIT_ROWS,
    TAIL_MAX_POLES,
    cumulative_weights,
    exponential_tail,
    fbdf2_weights,
    sftr_weights,
    shift_combine,
    varpi_weights,
)

from oracles import (
    caputo_after,
    closed_form_sources,
    curl_e,
    curl_h,
    dense_step_solution,
    diagonal_cg,
    edge_field,
    fmap,
    full_span,
    in_coefficients,
    norm_e,
    observed_step,
    operator_diagonal,
    poly_sources,
    split_rows,
    scheme_residual,
    textbook_cg,
    with_p_history,
    zero_edges,
)


def zero_state(grid=None, alpha=0.5, theta=0.5, tau=0.1, n_steps=4, quadrature=Quadrature.SFTR,
               sources=None):
    """A run from E^0 = 0, H^0 = 0: without sources its layout keeps no
    curl-free coordinate (k = 0), rows of nx ny values."""
    grid = grid or GridSpec(4, 4)
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    return init_state(
        grid, material, config, zero_edges(grid), np.zeros((grid.nx, grid.ny)), sources
    )


def test_material_and_config_validation():
    with pytest.raises(ValueError):
        MaterialParams(c_p=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(alpha=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(theta=0.6, tau=0.1, n_steps=4)
    with pytest.raises(ValueError):
        SchemeConfig(theta=0.5, tau=0.0, n_steps=4)
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        SchemeConfig(theta=0.5, tau=0.1, n_steps=0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("c_e", "c_m", "c_p", "tau0"):
            with pytest.raises(ValueError, match=name):
                MaterialParams(**{name: bad})
        with pytest.raises(ValueError, match="tau"):
            SchemeConfig(theta=0.5, tau=bad, n_steps=4)
    # a count is an integer: floats and bools are refused, numpy integers kept as int
    for bad in (2.5, 4.0, True, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            SchemeConfig(theta=0.5, tau=0.1, n_steps=bad)
    config = SchemeConfig(theta=0.5, tau=0.1, n_steps=np.int64(3))
    assert type(config.n_steps) is int and config.n_steps == 3
    a = cumulative_weights(0.5, 0.5, 3)
    assert np.array_equal(cumulative_weights(0.5, 0.5, np.int64(3)), a)
    assert run(zero_state(n_steps=np.int64(3))).n == 3


def random_modes(grid, rng):
    """The (2, nx, ny) coefficients of a random tangential-zero edge field,
    raveled: a vector of the layout that keeps component 0 whole."""
    e = VecField(rng.standard_normal((grid.nx, grid.ny + 1)),
                 rng.standard_normal((grid.nx + 1, grid.ny))).enforce_pec()
    return CurlCurlBasis(grid).forward(e.ex, e.ey).reshape(-1)


def test_init_state():
    state = zero_state()
    assert state.n == 0 and state.sources.f1 == state.sources.f2 == state.sources.f3 == ()
    # no sources and no curl-free part in E^0: k = 0, the 16 tangential coefficients
    assert state.e.shape == state.p.shape == (16,) and state.h.shape == (4, 4)
    assert state.span.k == 0 and state.span.basis.shape == (0, 16)
    assert not np.any(state.p)
    # 4 steps never fold: no tail, and a window of P^1..P^4 (P^0 = 0 is not stored)
    assert state.history.rows.shape == (4, 16) and state.history.s.shape == (5,)
    assert not np.any(state.history.rows) and not np.any(state.history.s)
    assert len(state.history.poles) == len(state.history.weights) == 0
    assert split_rows(state.history)[0].shape == (0, 16) and state.history.folded == 0
    # a forced run keeps the span of its four edge profiles' component 0 (E^0 = 0),
    # and its sources with those profiles packed into that layout
    sources = in_coefficients(poly_sources(GridSpec(4, 4)), GridSpec(4, 4))
    forced = zero_state(sources=sources)
    assert forced.span.k == 4 and forced.e.shape == forced.p.shape == (4 + 16,)
    assert forced.history.rows.shape == (4, 20) and forced.sources.f2 is sources.f2
    for (factor, packed), (given, profile) in zip(
        forced.sources.f1 + forced.sources.f3, sources.f1 + sources.f3
    ):
        assert factor is given and packed.shape == (20,)
        np.testing.assert_allclose(forced.span.unpack(packed), profile, rtol=0, atol=1e-15)
    # kernel covers the whole run and starts at the generating sequence
    assert len(state.kernel) == state.config.n_steps
    assert state.kernel[0] == sftr_weights(0.5, 0.5, 0)[0]
    fb = zero_state(quadrature=Quadrature.FBDF2, theta=0.4)
    assert len(fb.kernel) == fb.config.n_steps
    assert fb.kernel[0] == pytest.approx(0.6 * fbdf2_weights(0.5, 0)[0], rel=1e-15)
    grid, config = GridSpec(4, 4), SchemeConfig(0.5, 0.1, 4)
    bad = VecField(np.ones((4, 5)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        init_state(grid, MaterialParams(), config, bad, np.zeros((4, 4)))
    # H0 is any (nx, ny) array-like, taken as floats; other shapes are refused
    cells = [[1, 2, 3, 4]] * 4
    state = init_state(grid, MaterialParams(), config, zero_edges(grid), cells)
    assert np.array_equal(state.h, CurlCurlBasis(grid).forward_cell(np.array(cells, dtype=float)))
    for shape in ((16,), (4, 4, 1), (4, 5)):
        with pytest.raises(ValueError, match="shapes"):
            init_state(grid, MaterialParams(), config, zero_edges(grid), np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["ex", "ey", "h"])
def test_init_state_refuses_non_finite_initial_data(monkeypatch, where, bad):
    grid = GridSpec(4, 4)
    e0, h0 = zero_edges(grid), np.zeros((4, 4))
    (h0 if where == "h" else getattr(e0, where))[1, 2] = bad

    def no_transform(*args):
        raise AssertionError("initial data was transformed before it was checked")

    monkeypatch.setattr(CurlCurlBasis, "forward", no_transform)
    monkeypatch.setattr(CurlCurlBasis, "forward_cell", no_transform)
    with pytest.raises(ValueError, match="H0" if where == "h" else "E0"):
        init_state(grid, MaterialParams(), SchemeConfig(0.5, 0.1, 4), e0, h0)


def test_init_state_refuses_a_non_finite_source(monkeypatch):
    # a NaN in one f2 profile is refused with the initial data, before any
    # transform; it failed only in the first step's E-solve (SolverError)
    grid = GridSpec(8, 8)
    profile = np.ones((8, 8))
    profile[3, 5] = math.nan
    sources = Sources(f1=(), f2=((math.cos, np.ones((8, 8))), (math.sin, profile)), f3=())

    def no_transform(*args):
        raise AssertionError("initial data was transformed before the sources were checked")

    monkeypatch.setattr(CurlCurlBasis, "forward", no_transform)
    monkeypatch.setattr(CurlCurlBasis, "forward_cell", no_transform)
    with pytest.raises(ValueError, match="source f2 has a NaN or infinite entry"):
        init_state(grid, MaterialParams(), SchemeConfig(0.5, 0.1, 4), zero_edges(grid),
                   np.zeros((8, 8)), sources)


def test_frac_deriv_zero_and_single_term():
    state = zero_state(alpha=0.3, theta=0.4, tau=0.2)
    # the first step has no history: only P^1 enters its quadrature
    assert not np.any(frac_deriv_current(state))
    c, size = 1.7, state.p.size
    d = caputo_after(replace(state, p=np.full(size, c)), frac_deriv_current(state))
    np.testing.assert_allclose(d, 0.2 ** (-0.3) * state.kernel[0] * c, rtol=1e-14)
    # the second step's history is P^1 alone
    state = with_p_history(state, (np.zeros(size), np.full(size, c)))
    expected = 0.2 ** (-0.3) * state.kernel[1] * c
    np.testing.assert_allclose(frac_deriv_current(state), expected, rtol=1e-14)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_frac_deriv_cubic_history_brute_force(quadrature):
    # scalar history P^k = t_k^3 replicated across dofs vs direct summation
    tau, alpha, theta, n_steps = 0.125, 0.6, 0.35, 8
    state = zero_state(alpha=alpha, theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    vals = [(k * tau) ** 3 for k in range(n_steps + 1)]
    hist = tuple(np.full(state.p.size, v) for v in vals[:n_steps])
    state = with_p_history(state, hist)
    d = caputo_after(replace(state, p=np.full(state.p.size, vals[-1])), frac_deriv_current(state))
    kern = state.kernel
    n = n_steps
    if quadrature is Quadrature.SFTR:
        brute = sum(kern[n - k] * (vals[k] - vals[0]) for k in range(1, n + 1))
    else:
        # the whole rule sum_{k=0..n} g_{n-k} P^k: the run's kernel stops at
        # g_{n-1}, since g_n multiplies P^0 = 0
        g = shift_combine(fbdf2_weights(alpha, n), theta)
        brute = sum(g[n - k] * vals[k] for k in range(0, n + 1))
    brute *= tau ** (-alpha)
    np.testing.assert_allclose(d, brute, rtol=1e-13)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_one_history_sum_per_step(quadrature, monkeypatch):
    calls = []

    def counting(state):
        calls.append(state.n)
        return frac_deriv_current(state)

    monkeypatch.setattr("colecole.stepper.frac_deriv_current", counting)
    grid = GridSpec(6, 6)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=5, quadrature=quadrature)
    state = case.initial_state(config)
    while state.n < config.n_steps:
        # the recorded s^n = ||D^alpha P||^2 equals the full quadrature at P^n,
        # its norm taken on the dofs
        _, history_part = observed_step(state)
        d = edge_field(state.span.unpack(caputo_after(state, history_part)), grid)
        assert state.history.s[state.n] == pytest.approx(norm_e(d, grid) ** 2, rel=1e-13)
    assert calls == [0, 1, 2, 3, 4]


def exact_sums_until_folded(state):
    """Run ``state`` to its last step, checking each step's D^alpha P against
    the exact O(n) sum: bit for bit while the step reads an unfolded history
    (returns the count of such steps), then at every seventh step, which
    meets every fold phase, and at the last one (returns the worst relative
    difference)."""
    n_steps, scale = state.config.n_steps, state.config.tau ** (-state.material.alpha)
    p_history = [state.p]
    exact, worst = 0, 0.0
    while state.n < n_steps:
        folded = state.history.folded
        _, history_part = observed_step(state)
        p_history.append(state.p)
        if folded and state.n % 7 and state.n != n_steps:
            continue
        d = caputo_after(state, history_part)
        want = oracles.exact_frac_deriv(state.kernel, p_history[: state.n], state.p, scale)
        if folded:
            worst = max(worst, np.linalg.norm(d - want) / np.linalg.norm(want))
        else:
            assert d.tobytes() == want.tobytes(), state.n
            exact += 1
    return exact, worst


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_straight_run_fills_one_buffer(quadrature):
    # a straight run keeps one holder of bounded size; the history sum is the
    # exact per-row sum bit for bit until the first fold, and within 1e-12
    # normwise of it once the tail holds the older rows
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=0.7).sample(grid)
    n_steps = 2000
    config = SchemeConfig(theta=0.4, tau=1.0 / n_steps, n_steps=n_steps, quadrature=quadrature)
    final = case.initial_state(config)
    history = final.history
    exact, worst = exact_sums_until_folded(final)
    assert final.history is history and final.n == n_steps
    assert history.exact == stepper.HISTORY_EXACT
    window = history.exact + 2 * stepper.HISTORY_FOLD + 1
    # steps 1..54 read an unfolded history: step 54 sums before it folds
    assert exact == window + 1
    assert 0.0 < worst <= 1e-12
    assert final.span.k == 3
    assert history.rows.shape == (len(history.poles) + window, 3 + 8 * 8)
    assert history.s.shape == (n_steps + 1,)
    last = split_rows(history)[1][n_steps - 1 - history.folded]
    assert np.array_equal(last, final.p.reshape(-1))


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_a_run_folds_only_past_its_window(quadrature, monkeypatch):
    # the window holds P^1..P^W, W = n0 + 2B + 1 = 53 (P^0 = 0 is not
    # stored): a 53-step run never fits a tail, and a 54-step run folds once,
    # on its last step, after that step's sum.  Every step of both sums its
    # history exactly, bit for bit
    grid, dofs = GridSpec(8, 8), 3 + 8 * 8  # k = 3
    case = ManufacturedCase(alpha=0.7).sample(grid)
    window = stepper.HISTORY_EXACT + 2 * stepper.HISTORY_FOLD + 1
    assert window == 53
    folds, fold = [], stepper._fold
    monkeypatch.setattr(stepper, "_fold", lambda history: folds.append(history.folded) or fold(history))

    def no_tail(*args):
        raise AssertionError("a run that never folds fitted a tail")

    with monkeypatch.context() as patched:
        patched.setattr(stepper, "exponential_tail", no_tail)
        short = case.initial_state(SchemeConfig(0.4, 1.0 / window, window, quadrature))
        assert exact_sums_until_folded(short) == (window, 0.0)
    assert folds == [] and short.history.folded == 0
    assert short.history.rows.shape == (window, dofs) and len(short.history.poles) == 0
    assert np.array_equal(short.history.rows[-1], short.p.reshape(-1))

    long = case.initial_state(SchemeConfig(0.4, 1.0 / (window + 1), window + 1, quadrature))
    tail = len(long.history.poles)
    assert tail > 0 and long.history.rows.shape == (tail + window, dofs)
    assert exact_sums_until_folded(long) == (window + 1, 0.0)
    assert folds == [0] and long.history.folded == stepper.HISTORY_FOLD
    # P^17..P^54 are left in the window, P^54 in its slot 37
    assert np.array_equal(split_rows(long.history)[1][37], long.p.reshape(-1))


@pytest.mark.parametrize(
    "alpha, theta, folds", [(0.9, 0.01, False), (0.5, 0.2, True), (0.9, 0.2, True), (0.9, 0.01, True)]
)
def test_theta_below_half_alpha_runs_long(alpha, theta, folds):
    # for theta < alpha/2 the SFTR kernel has a part in (-d1/d0)^j, d1/d0 > 0,
    # which no tail of positive poles follows; the run sums the lags exactly
    # up to n0, where that part is below 1e-16 |K_0| (d1/d0 = 0.957 at
    # (0.9, 0.01), 0.385 at (0.9, 0.2), 0.11 at (0.5, 0.2)), and fits the tail
    # from there.  A run of at most n0 + 2B steps never folds
    n0 = {(0.9, 0.01): 842, (0.5, 0.2): 20, (0.9, 0.2): 40}[alpha, theta]
    n_steps = 1000 if folds else 400
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=alpha).sample(grid)
    config = SchemeConfig(theta=theta, tau=1.0 / n_steps, n_steps=n_steps)
    final = case.initial_state(config)
    exact, worst = exact_sums_until_folded(final)
    history = final.history
    assert final.n == n_steps and np.all(np.isfinite(final.e))
    window = n0 + 2 * stepper.HISTORY_FOLD + 1
    assert history.exact == min(n0, n_steps)
    assert (len(history.poles) > 0) == folds
    if folds:
        assert exact == window + 1 and 0.0 < worst <= 1e-12
        assert history.rows.shape == (len(history.poles) + window, 3 + 8 * 8)
    else:
        assert exact == n_steps and history.folded == 0
        assert history.rows.shape == (n_steps, 3 + 8 * 8)


def test_step_zero_state_stays_zero():
    state = zero_state()
    new = step(state)
    assert not np.any(new.e) and not np.any(new.h) and not np.any(new.p)
    assert new.history.s[1] == 0.0


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
    # consecutive steps on a 2x2 grid against the raw coupled system on the
    # dofs: a run without sources and the same data forced.  Component 0 has
    # one mode on 2x2, so both keep one coordinate of it
    material, theta, tau, n_steps = DENSE_CASES[case]
    grid = GridSpec(2, 2)
    rng = np.random.default_rng(42)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    e0 = VecField(rng.standard_normal((2, 3)), rng.standard_normal((3, 2))).enforce_pec()
    h0 = rng.standard_normal((2, 2))
    forcing = poly_sources(grid)
    for on_dofs, sources in ((None, None), (forcing, in_coefficients(forcing, grid))):
        state = init_state(grid, material, config, e0, h0, sources)
        assert state.span.k == 1
        for _ in range(n_steps):
            e_ref, h_ref, p_ref = dense_step_solution(state, on_dofs)
            e, p, h = step(state).fields()
            np.testing.assert_allclose(e.ex, e_ref.ex, atol=1e-12)
            np.testing.assert_allclose(e.ey, e_ref.ey, atol=1e-12)
            np.testing.assert_allclose(h, h_ref, atol=1e-12)
            np.testing.assert_allclose(p.ex, p_ref.ex, atol=1e-12)
            np.testing.assert_allclose(p.ey, p_ref.ey, atol=1e-12)


def test_scheme_residual_zero_dynamics():
    state = zero_state()
    assert state.span.k == 0
    before, history_part = observed_step(state)
    assert scheme_residual(before, state, history_part) == (0.0, 0.0, 0.0)


def test_scheme_residual_below_solver_tolerance():
    # a run without sources from the decay data (one curl-free coordinate)
    # and the manufactured case's forced run (at most three).  The first
    # solves by division, so its defect is round-off: the bound is ten times
    # the largest measured, 4.6e-16 of the scale below; the second by CG
    grid = GridSpec(12, 12)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    config = SchemeConfig(theta=0.5, tau=0.05, n_steps=4)
    decay = init_state(grid, case.material, config, *decay_initial_data(grid))
    forced = case.initial_state(config)
    for state, on_dofs, tol in (
        (decay, None, 5e-15), (forced, closed_form_sources(0.5, grid), 10.0 * CG_TOL)
    ):
        assert state.span.k <= (1 if on_dofs is None else 3)
        _, a_coef = elimination_coefficients(
            state.material, config.theta, config.tau, state.kernel[0]
        )
        for _ in range(4):
            before, history_part = observed_step(state)
            r1, r2, r3 = scheme_residual(before, state, history_part, on_dofs)
            size = max(1.0, norm_e(state.fields()[0], grid))
            assert max(r1, r2, r3) <= tol * (state.material.c_e + a_coef) / config.tau * size


def test_scheme_residual_linearity_in_perturbation():
    # a consistent (E, P) perturbation moves only the first equation's defect,
    # by ((c_e + a)/tau) per unit of field.  A run without sources from the
    # decay data: the perturbation's curl-free part lies in the run's span
    grid = GridSpec(8, 8)
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=1)
    state = init_state(grid, MaterialParams(alpha=0.5), config, *decay_initial_data(grid))
    assert state.span.k == 1
    before, history_part = observed_step(state)
    mat = state.material
    _, a_coef = elimination_coefficients(mat, config.theta, config.tau, state.kernel[0])
    rng = np.random.default_rng(11)
    coef = 1e-3 * random_modes(grid, rng).reshape(2, 8, 8)
    coef[0] = 2e-3 * state.span.basis.reshape(8, 8)
    delta, delta_modes = edge_field(coef, grid), state.span.pack(coef)
    perturbed = replace(state, e=state.e + delta_modes, p=state.p + a_coef * delta_modes)
    r1, _, r3 = scheme_residual(before, perturbed, history_part)
    expected = (mat.c_e + a_coef) / config.tau * norm_e(delta, grid)
    assert r1 == pytest.approx(expected, rel=1e-3)
    assert r3 <= 1e-12  # the polarization equation is immune by construction


def test_solve_spd_basics():
    grid = GridSpec(4, 4)
    rhs = random_modes(grid, np.random.default_rng(2))
    zero, k = np.zeros_like(rhs), rhs.size - grid.nx * grid.ny
    ones = Spectrum(np.ones((grid.nx, grid.ny)), k)
    # all eigenvalues equal: one group, solved in one iteration
    # (a solve overwrites its rhs, so each gets a copy)
    x, its = solve_spd(ones, rhs.copy(), zero)
    np.testing.assert_allclose(x, rhs, atol=1e-13)
    assert its == 1 and len(ones.values) == 1
    x, its = solve_spd(Spectrum(np.full((grid.nx, grid.ny), 2.0), k), rhs.copy(), zero)
    np.testing.assert_allclose(x, 0.5 * rhs, atol=1e-13)
    assert its == 1
    x, its = solve_spd(ones, zero.copy(), rhs)
    assert its == 0 and not np.any(x)
    with pytest.raises(ValueError, match="shapes"):
        solve_spd(ones, rhs, np.zeros((2, 4, 5)))


def test_solve_spd_solves_in_the_rhs_buffer():
    # the residual is formed in rhs and the solution comes back in its
    # buffer, the same solution as from a copy; x0 is only read
    grid = GridSpec(16, 16)
    state = zero_state(grid, theta=0.5, tau=0.05, n_steps=1)
    rng = np.random.default_rng(7)
    rhs, x0 = random_modes(grid, rng), random_modes(grid, rng)
    spectrum = Spectrum(CurlCurlBasis(grid).eigenvalues(*step_operator(state)), rhs.size - 16 * 16)
    start = x0.copy()
    want, want_its = solve_spd(spectrum, rhs.copy(), x0)
    x, its = solve_spd(spectrum, rhs, x0)
    assert np.shares_memory(x, rhs) and its == want_its > 1
    assert np.array_equal(x, want) and np.array_equal(x0, start)
    zero = np.zeros_like(rhs)
    x, its = solve_spd(spectrum, zero, x0)
    assert x is zero and its == 0 and not np.any(x) and np.array_equal(x0, start)


def test_solve_spd_against_dense_factorization():
    # the stencil operator v + curl_h curl_e v as a dense matrix on the dofs
    grid = GridSpec(4, 4)
    op = lambda v: fmap(np.add, v, curl_h(curl_e(v, grid), grid))
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
    basis = CurlCurlBasis(grid)
    coef = basis.forward(rhs.ex, rhs.ey).reshape(-1)
    x, _ = solve_spd(Spectrum(basis.eigenvalues(1.0, 1.0), coef.size - 4 * 4), coef, np.zeros_like(coef))
    np.testing.assert_allclose(flatten(edge_field(x, grid)), ref, atol=1e-11)


def step_operator(state):
    """(diag, curl_scale) of the operator diag I + curl_scale curl_h curl_e
    that a step from state solves."""
    mat, tau, theta = state.material, state.config.tau, state.config.theta
    _, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])
    return (mat.c_e + a_coef) / tau, (1.0 - theta) ** 2 * tau / mat.c_m


def test_solve_spd_maxit_error(monkeypatch):
    # the operator of a first step, d I + c curl_h curl_e, with a tolerance no
    # residual above 0 meets: the solve stops after CG_MAXIT_PER_SIDE * (nx + ny)
    # iterations, read from the constants and the spectrum's grid
    grid = GridSpec(16, 12)
    state = zero_state(grid, theta=0.5, tau=0.05, n_steps=1)
    rhs = random_modes(grid, np.random.default_rng(5))
    lam = Spectrum(CurlCurlBasis(grid).eigenvalues(*step_operator(state)), rhs.size - 16 * 12)
    monkeypatch.setattr(stepper, "CG_TOL", 0.0)
    monkeypatch.setattr(stepper, "CG_MAXIT_PER_SIDE", 1)
    with pytest.raises(SolverError) as err:
        solve_spd(lam, rhs, np.zeros_like(rhs))
    assert err.value.residual > 0.0 and err.value.iterations == 16 + 12


@pytest.mark.parametrize(
    "diag, curl_scale",
    [(0.0, 0.0), (0.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.inf), (1.0, 1e298)],
)
def test_solve_spd_rejects_an_impossible_operator(diag, curl_scale):
    # (0, 0) used to divide by zero and (0, 1) ran maxit iterations on a
    # singular operator; the spectrum a solve needs refuses both.  At (1, 1e298)
    # the largest eigenvalue, 4.9e300, squares to inf: CG ran all its iterations
    grid = GridSpec(8, 8)
    with np.errstate(invalid="ignore"):  # inf * 0 on mode (0, 0)
        lam = CurlCurlBasis(grid).eigenvalues(diag, curl_scale)
    with pytest.raises(ValueError, match="eigenvalues"):
        Spectrum(lam, 0)


@pytest.mark.parametrize("n", [16, 64])
def test_spectrum_merges_mirrored_modes_and_sorts_one_component(monkeypatch, n):
    grid = GridSpec(n, n)
    state = zero_state(grid)
    lam = CurlCurlBasis(grid).eigenvalues(*step_operator(state))
    sorted_sizes = []
    real_unique = np.unique

    def spy(values, *args, **kwargs):
        sorted_sizes.append(np.size(values))
        return real_unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    spectrum = Spectrum(lam, state.span.k)
    monkeypatch.undo()
    assert sorted_sizes == [n * n] and state.span.k == 0
    # (k, l) and (l, k) share one group on a square grid
    index = spectrum.index.reshape(n, n)
    assert np.array_equal(index, index.T)
    assert spectrum.index.shape == (n * n,) and spectrum.shape == (n, n)
    assert spectrum.values[spectrum.index].tobytes() == lam.tobytes()
    assert spectrum.values[index[0, 0]] == lam[0, 0]
    assert len(spectrum.values) < 0.6 * n * n


# Contractions that numpy hands to BLAS, whose threads keep spinning through
# the rest of a step; the package uses einsum or ufuncs instead.  Every module
# is scanned, because the package root starts numpy with a single BLAS thread
# on the premise that nothing in the package calls BLAS.
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "vecdot", "matvec", "tensordot"}
PACKAGE_SOURCES = sorted(Path(energy.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_SOURCES, ids=lambda p: p.stem)
def test_step_path_calls_no_blas(path):
    import ast

    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}()")
            elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"line {node.lineno}: einsum(..., optimize=...)")
    assert not found, f"{path.name}: {found}"


def test_runs_import_numpy_only():
    import os, subprocess, sys

    import colecole

    code = (
        "import sys, tempfile\n"
        "from colecole.cli import main\n"
        "out = tempfile.mkdtemp()\n"
        "assert main(['energy', '--nx', '8', '--ny', '8', '--steps', '5',\n"
        "             '--out', out + '/e.csv']) == 0\n"
        "assert main(['converge', '--alpha', '0.5', '--theta', '0.5', '--taus', '1/2,1/4',\n"
        "             '--nx', '8', '--ny', '8', '--out', out + '/c.csv']) == 0\n"
        "assert 'scipy' not in sys.modules, 'a run imported scipy'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(colecole.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


IMPORT_CASES = {
    # no variable set: one thread, even after a product numpy hands to BLAS,
    # and the environment subprocesses inherit is unchanged
    "unset": (
        None,
        "import os\n"
        "before = dict(os.environ)\n"
        "import colecole\n"
        "assert len(os.listdir('/proc/self/task')) == 1\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ and dict(os.environ) == before\n"
        "import numpy as np\n"
        "a = np.ones((512, 512))\n"
        "a @ a\n"
        "assert len(os.listdir('/proc/self/task')) == 1\n",
    ),
    # the caller's own value wins
    "caller_sets_2": (
        "2",
        "import os, colecole\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n",
    ),
    # a process that loaded numpy first is left alone
    "numpy_first": (
        None,
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import colecole\n"
        "assert dict(os.environ) == before\n",
    ),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("case", IMPORT_CASES)
def test_import_starts_one_blas_thread(case):
    import subprocess, sys

    value, code = IMPORT_CASES[case]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    env["PYTHONPATH"] = str(Path(energy.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_step_runs_without_transforms_or_stencils(monkeypatch):
    # a step is per-mode arithmetic: after init_state it needs no FFT and no
    # curl stencil, and it builds none of the run's constants again
    grid = GridSpec(8, 6, lx=1.3)
    e0 = edge_field(random_modes(grid, np.random.default_rng(3)), grid)
    config = SchemeConfig(theta=0.45, tau=0.05, n_steps=3, quadrature=Quadrature.FBDF2)
    sources = in_coefficients(poly_sources(grid), grid)
    state = init_state(
        grid, MaterialParams(alpha=0.9), config, e0, np.zeros((grid.nx, grid.ny)), sources
    )
    assert state.span.k == 5

    def forbidden(*args, **kwargs):
        raise AssertionError("a step called a transform or a stencil")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    for name in ("curl_h", "curl_e", "_curl_h_into", "_curl_e_into", "_inner_into"):
        monkeypatch.setattr(oracles, name, forbidden)
    monkeypatch.setattr(stepper, "CurlCurlBasis", forbidden)
    for name in ("eigenvalues", "curl_modulus"):
        monkeypatch.setattr(CurlCurlBasis, name, forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    state = run(state)
    assert state.n == 3 and np.all(np.isfinite(state.e)) and np.any(state.e)


def test_memory_preflight_refuses_before_allocating(monkeypatch):
    grid = GridSpec(8, 8)
    config = SchemeConfig(theta=0.5, tau=0.01, n_steps=1000)
    window_bytes = 53 * 2 * 8 * 8 * 8

    def no_kernel(*args):
        raise AssertionError("the run allocated")

    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: window_bytes)
    monkeypatch.setattr(stepper, "build_kernel", no_kernel)
    with pytest.raises(MemoryError, match="physical memory"):
        init_state(
            grid, MaterialParams(), config, zero_edges(grid), np.zeros((grid.nx, grid.ny))
        )
    monkeypatch.undo()
    assert stepper.physical_memory_bytes() > 100 * window_bytes


@pytest.mark.parametrize("c_e, tau, ok", [
    (1.0, 1e-150, True), (1.0, 1e-160, False),  # c_e/tau squared overflows
    (1.0, 1e150, True), (1.0, 1e160, False),  # tau |v|^2 squared overflows
    (1e-300, 1e10, False),  # c_e/tau is subnormal
])
def test_preflight_refuses_a_tau_the_solve_cannot_represent(c_e, tau, ok):
    grid, config = GridSpec(8, 8), SchemeConfig(theta=0.5, tau=tau, n_steps=10)
    material = MaterialParams(c_e=c_e)
    if ok:
        assert stepper.preflight(grid, material, config) == (10, 10)
    else:
        with pytest.raises(ValueError, match="E-solve's eigenvalues"):
            stepper.preflight(grid, material, config)


def test_experiments_refuse_before_sampling_initial_data(monkeypatch):
    # the preflight comes first, so a grid whose initial data alone exceed
    # memory is refused before they are allocated
    def no_sampling(*args):
        raise AssertionError("initial data sampled before the preflight")

    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: 1)
    monkeypatch.setattr(energy, "decay_initial_data", no_sampling)
    monkeypatch.setattr(ManufacturedCase, "sample", no_sampling)
    grid = GridSpec(8, 8)
    with pytest.raises(MemoryError, match="physical memory"):
        energy.run_decay_experiment(0.5, 0.5, grid, 0.01, 10)
    with pytest.raises(MemoryError, match="physical memory"):
        convergence_table(ManufacturedCase(alpha=0.5), 0.5, [0.5, 0.25], grid)


def test_set_up_refuses_before_transforming_initial_data(monkeypatch):
    # each constructor preflights before its first grid-sized transform or
    # product, so a run it refuses pays none of them
    grid = GridSpec(8, 8)
    case, config = ManufacturedCase(alpha=0.5).sample(grid), SchemeConfig(0.5, 0.1, 10)

    def forbidden(*args):
        raise AssertionError("initial data transformed or computed before the preflight")

    for owner, name in ((CurlCurlBasis, "forward_cell"), (CurlCurlBasis, "forward"),
                        (SampledCase, "exact")):
        monkeypatch.setattr(owner, name, forbidden)
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: 1)
    with pytest.raises(MemoryError, match="physical memory"):
        init_state(grid, MaterialParams(), config, zero_edges(grid), np.zeros((8, 8)))
    with pytest.raises(MemoryError, match="physical memory"):
        case.initial_state(config)


def test_memory_preflight_counts_a_bounded_history(monkeypatch):
    # a 5000-step run on 8x8 fits in less memory than its 5001 P rows take:
    # the estimate that counted every row refused it.  A decay run's row
    # holds k + nx ny values, k <= 1
    grid = GridSpec(8, 8)
    config = SchemeConfig(theta=0.5, tau=0.002, n_steps=5000)
    dofs, row = 2 * 8 * 8, 1 + 8 * 8
    every_row = 8 * ((config.n_steps + 1) * (row + 4) + 16 * dofs) + 2**18
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: every_row - 1)
    zero = zero_edges(grid), np.zeros((grid.nx, grid.ny))
    state = init_state(grid, MaterialParams(), config, *zero)
    history = state.history
    held = history.rows.nbytes
    # E^0 = 0 and no sources: a row is the 64 tangential coefficients
    assert held == (53 + len(history.poles)) * 8 * 8 * 8
    assert held < every_row / 10


def test_memory_preflight_counts_the_window_of_an_alternating_kernel(monkeypatch):
    # a 5000-step run at (0.9, 0.01) on 8x8 sums its first n0 = 842 lags
    # exactly and folds the rest: it is preflighted once, and allocated, as
    # n0 + 2B + 1 window rows plus M tail rows, in memory that cannot hold
    # its 5001 rows
    grid = GridSpec(8, 8)
    dofs, row = 2 * 8 * 8, 1 + 8 * 8
    every_row = 8 * ((5000 + 1) * (row + 4) + 16 * dofs) + 2**18
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: every_row - 1)
    checks = []
    estimate = stepper.memory_estimate
    monkeypatch.setattr(
        stepper, "memory_estimate", lambda *args: checks.append(estimate(*args)) or checks[-1]
    )
    config = SchemeConfig(theta=0.01, tau=0.002, n_steps=5000)
    zero = zero_edges(grid), np.zeros((grid.nx, grid.ny))
    history = init_state(grid, MaterialParams(alpha=0.9), config, *zero).history
    rows = 842 + 2 * stepper.HISTORY_FOLD + 1
    fit = 3 * (TAIL_FIT_ROWS + TAIL_MAX_POLES) * (TAIL_MAX_POLES + 1)
    need = 8 * ((rows + TAIL_MAX_POLES) * row + fit + 25 * 5001 + 10 * dofs) + 2**18
    assert history.exact == 842 and checks == [need]
    assert history.rows.shape == (len(history.poles) + rows, 8 * 8)  # k = 0


def test_memory_preflight_counts_the_tail_alone(monkeypatch):
    # a folding run holds its window and at most TAIL_MAX_POLES tail rows of
    # k + nx ny values, k <= 1; a fold's temporary is one row, within the 10
    # coefficient arrays.  The estimate that also counted a fold's temporary
    # of M rows refused this run in memory halfway between the two estimates
    grid, dofs, row = GridSpec(8, 8), 2 * 8 * 8, 1 + 8 * 8
    config = SchemeConfig(theta=0.5, tau=0.001, n_steps=1000)
    poles = TAIL_MAX_POLES
    fit = 3 * (TAIL_FIT_ROWS + poles) * (poles + 1)
    need = 8 * ((53 + poles) * row + 10 * dofs + fit + 25 * (config.n_steps + 1)) + 2**18
    zero = zero_edges(grid), np.zeros((grid.nx, grid.ny))
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match="physical memory"):
        init_state(grid, MaterialParams(), config, *zero)
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: need + 4 * poles * row)
    history = init_state(grid, MaterialParams(), config, *zero).history
    assert history.rows.shape == (len(history.poles) + 53, 8 * 8) and len(history.poles) > 0


@pytest.mark.parametrize("size, steps, quadrature, forced", [
    pytest.param(64, 400, Quadrature.SFTR, False, id="64-400-Quadrature.SFTR"),  # folds
    pytest.param(256, 20, Quadrature.SFTR, False, id="256-20-Quadrature.SFTR"),
    pytest.param(48, 40, Quadrature.FBDF2, False, id="48-40-Quadrature.FBDF2"),
    # the memory terms' series product is most of the peak
    pytest.param(8, 20000, Quadrature.SFTR, False, id="8-20000-Quadrature.SFTR"),
    # holds the case's profiles besides
    pytest.param(48, 40, Quadrature.FBDF2, True, id="48-40-Quadrature.FBDF2-forced"),
])
def test_memory_preflight_covers_a_traced_run(monkeypatch, size, steps, quadrature, forced):
    # the estimate is at least what a whole run allocates: numpy's buffers
    # traced over a decay run, or over sampling a manufactured case and
    # running it with its sources, peak no higher than the preflight's need
    grid, tau = GridSpec(size, size), 1.0 / steps if forced else 0.002
    if steps > 1000:
        # Past its first folds a long run's steps only write P^n and s_n in
        # place, where tracemalloc would take most of the test's time: they
        # are replaced by writing s_n alone.  The run's set-up, its energy
        # records and the series product at its end are traced as they are.
        # (8^2 x 20000 in a fresh process: 2,674,882 bytes traced, against
        # 2,675,261 with every step.)
        real = energy.step

        def step(state):
            if state.n < 200:
                return real(state)
            state.n += 1
            state.history.s[state.n] = state.history.s[state.n - 1]
            return state

        monkeypatch.setattr(energy, "step", step)
    tracemalloc.start()
    try:
        if forced:
            run_case(ManufacturedCase(alpha=0.5).sample(grid), 0.5, tau, quadrature)
        else:
            energy.run_decay_experiment(0.5, 0.5, grid, tau, steps, quadrature)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: peak - 1)
    with pytest.raises(MemoryError, match="physical memory"):
        stepper.preflight(grid, MaterialParams(alpha=0.5),
                          SchemeConfig(theta=0.5, tau=tau, n_steps=steps, quadrature=quadrature),
                          3 if forced else 1)


def test_fold_allocates_one_row():
    # the tail is folded one pole at a time: numpy's buffers traced during a
    # fold peak at one row (M rows when the poles were folded together), and
    # the tail is bit for bit the all-poles update
    grid, dofs, fold = GridSpec(32, 32), 2 * 32 * 32, stepper.HISTORY_FOLD
    history = zero_state(grid, tau=1.0 / 400, n_steps=400).history
    rng = np.random.default_rng(0)
    history.rows[:] = rng.standard_normal(history.rows.shape)
    powers = np.power.outer(history.poles, np.arange(fold, -1, -1.0))
    tail, window = split_rows(history)
    tail = tail * powers[:, :1] + np.einsum("mb,bj->mj", powers[:, 1:], window[:fold])
    window = window[fold:].copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stepper._fold(history)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(history.poles) > 2 and peak <= 2 * dofs * 8
    assert np.array_equal(split_rows(history)[0], tail) and history.folded == fold
    assert np.array_equal(split_rows(history)[1][: len(window)], window)


@pytest.mark.parametrize("quadrature, forced", [
    pytest.param(Quadrature.SFTR, True, id="Quadrature.SFTR"),
    pytest.param(Quadrature.FBDF2, True, id="Quadrature.FBDF2"),
    pytest.param(Quadrature.SFTR, False, id="Quadrature.SFTR-reduced"),
    pytest.param(Quadrature.FBDF2, False, id="Quadrature.FBDF2-reduced"),
])
def test_a_step_allocates_at_most_five_arrays(quadrature, forced):
    # a step builds P^n, E^n and D^alpha P^n in place in its temporaries,
    # adds its sources' terms there, and drops its scratch for the solve and
    # the rest before a fold: numpy's buffers traced over any step of a
    # folding run peak at most five vectors of the run's layout above those
    # live before it: 3 + 64 * 64 values in the manufactured case's forced
    # run, 1 + 64 * 64 in a run without sources
    grid = GridSpec(64, 64)
    config = SchemeConfig(theta=0.5, tau=0.002, n_steps=60, quadrature=quadrature)
    if forced:
        state = ManufacturedCase(alpha=0.5).sample(grid).initial_state(config)
    else:
        state = init_state(grid, MaterialParams(), config, *decay_initial_data(grid))
    dofs = state.e.size
    assert dofs == (3 if forced else 1) + 64 * 64
    peaks = []
    while state.n < config.n_steps:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(state)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert state.history.folded > 0
    assert max(peaks) <= 5 * dofs * 8, max(peaks) / (dofs * 8)


def test_set_up_peaks_no_higher_than_a_step():
    # set-up groups the E-solve's eigenvalues from one (nx, ny) array, before
    # it allocates the history: numpy's buffers traced over a 256^2 x 20 run
    # peak no higher in set-up than in the highest step.  Twice: the
    # manufactured case's forced run (k = 3), the case sampled before, and a
    # run without sources, built as run_decay_experiment builds it, the
    # initial data passed straight in
    grid = GridSpec(256, 256)
    config = SchemeConfig(theta=0.5, tau=0.01, n_steps=20)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    for reduced in (False, True):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            if reduced:
                state = init_state(grid, MaterialParams(), config, *decay_initial_data(grid))
            else:
                state = case.initial_state(config)
            set_up = tracemalloc.get_traced_memory()[1]
            peaks = []
            while state.n < config.n_steps:
                tracemalloc.reset_peak()
                step(state)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert state.span.k == (1 if reduced else 3)
        assert set_up <= max(peaks), (reduced, set_up / 2**20, max(peaks) / 2**20)


# decay_long's six pairs at N = 400, (0.9, 0.2) at N = 1000, FBDF2 at 0.8, N = 2000
KEPT_POLE_CASES = [
    (alpha, theta, 400, Quadrature.SFTR)
    for alpha, theta in ((0.5, 0.5), (0.6, 0.5), (0.7, 0.5), (0.8, 0.5), (0.9, 0.5), (0.4, 0.45))
] + [(0.9, 0.2, 1000, Quadrature.SFTR), (0.8, 0.5, 2000, Quadrature.FBDF2)]


@pytest.mark.parametrize("alpha, theta, n_steps, quadrature", KEPT_POLE_CASES)
def test_kept_poles_serve_every_read_lag(alpha, theta, n_steps, quadrature):
    # the tail is read from lag n0 + B + 3 on; the poles whose terms there sum
    # to at most 1e-18 |K_0| are dropped, the smallest first, and the kept
    # tail, read in the rounded poles as a run reads them, misses every such
    # lag by no more than that beyond the full fit
    state = zero_state(GridSpec(4, 4), alpha, theta, 1.0 / n_steps, n_steps, quadrature)
    history, kernel = state.history, state.kernel
    poles, weights = exponential_tail(kernel, history.exact)
    kept = np.isin(poles, history.poles)
    assert np.array_equal(poles[kept], history.poles)
    assert np.array_equal(weights[kept], history.weights)
    first = stepper.HISTORY_FOLD + 3
    size = np.abs(weights) * poles**first
    assert kept.sum() < len(poles) and size[kept].min() > size[~kept].max()

    def misfit(r, c):
        exponents = np.arange(first, n_steps - history.exact)
        return np.einsum("jm,m->j", r ** exponents[:, None], c) - kernel[history.exact + first :]

    moved = np.abs(misfit(history.poles, history.weights) - misfit(poles, weights))
    assert moved.max() <= 1e-18 * abs(kernel[0])
    if (alpha, theta, n_steps) == (0.5, 0.5, 400):
        assert len(history.poles) < 32


@pytest.mark.parametrize("alpha, theta, n_steps", [(0.5, 0.5, 400), (0.9, 0.2, 300)])
def test_tail_is_read_from_exponent_b_plus_3(alpha, theta, n_steps):
    # a fold leaves n0 + B + 1 window rows, so a step reads its tail at pole
    # exponents B + 3 and up, the range the kept poles serve
    # (the tail rows are zero until the first fold, and their weights unread)
    class RecordedPowers(np.ndarray):
        def __pow__(self, exponent):
            if state.history.folded:
                exponents.append(exponent)
            return np.asarray(self) ** exponent

    exponents = []
    state = zero_state(GridSpec(8, 8), alpha, theta, 1.0 / n_steps, n_steps)
    state.history.poles = state.history.poles.view(RecordedPowers)
    run(state)
    assert state.history.folded > 0
    assert min(exponents) == stepper.HISTORY_FOLD + 3


# SFTR (0.5, 1/2), (0.9, 0.2), whose n0 is 40, and (0.1, 0.05); FBDF2 (0.5, 0.45)
TAIL_CASES = [(0.5, 0.5, Quadrature.SFTR), (0.9, 0.2, Quadrature.SFTR),
              (0.1, 0.05, Quadrature.SFTR), (0.5, 0.45, Quadrature.FBDF2)]


@pytest.mark.parametrize("alpha, theta, quadrature", TAIL_CASES)
def test_a_folding_run_ends_where_its_exact_history_does(monkeypatch, alpha, theta, quadrature):
    # the tail's error end to end: a 2000-step decay run on 8x8 that folds
    # its history, against the same run with every lag exact (HISTORY_EXACT
    # patched to N, so the window holds every row and never folds).  Over
    # the four cases the final E and P differ by at most 1.9e-13 of the
    # larger field, H by 5.7e-16, and the energies by 2.4e-15 of the
    # largest; each bound is ten times that
    grid, n_steps = GridSpec(8, 8), 2000
    fold, trace, _ = energy.run_decay_experiment(alpha, theta, grid, 0.01, n_steps, quadrature)
    monkeypatch.setattr(stepper, "HISTORY_EXACT", n_steps)
    exact, exact_trace, _ = energy.run_decay_experiment(
        alpha, theta, grid, 0.01, n_steps, quadrature
    )
    assert fold.history.folded > 0 and len(exact.history.rows) == n_steps

    def gap(a, b):
        return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max())

    assert gap(fold.e, exact.e) <= 2e-12 and gap(fold.p, exact.p) <= 2e-12
    assert gap(fold.h, exact.h) <= 6e-15
    assert gap(np.asarray(trace["energy"]), np.asarray(exact_trace["energy"])) <= 2.5e-14


def test_history_bytes_do_not_grow_with_the_run():
    # the holder of a 2000-step run is the window and M rows, as for 200
    # steps; only the fitted M may differ.  E^0 = 0: rows of 64 values (k = 0)
    grid, dofs = GridSpec(8, 8), 8 * 8
    held = {}
    for n_steps in (200, 2000):
        history = zero_state(grid, tau=1.0 / n_steps, n_steps=n_steps).history
        assert history.rows.shape == (len(history.poles) + 53, dofs)
        held[n_steps] = history.rows.nbytes
        assert held[n_steps] <= (53 + TAIL_MAX_POLES) * dofs * 8
    assert held[2000] < 2 * held[200] and held[2000] < (200 + 1) * dofs * 8


def test_step_advances_its_argument_and_keeps_the_arrays_held_before():
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    state = case.initial_state(SchemeConfig(theta=0.4, tau=0.01, n_steps=3))
    step(state)
    held = state.e, state.p, state.h
    copies = [a.copy() for a in held]
    assert step(state) is state and state.n == 2
    for new, old, copy in zip((state.e, state.p, state.h), held, copies):
        assert new is not old and np.array_equal(old, copy)
        assert not np.array_equal(new, old)


@pytest.mark.parametrize("where, bad", [("rhs", np.nan), ("rhs", np.inf), ("x0", np.nan)])
def test_solve_spd_non_finite_fails_before_iterating(where, bad):
    # Checked before iterating: a NaN would otherwise run to maxit, and an inf
    # rhs norm makes the threshold inf, so the warm start would pass as converged.
    grid = GridSpec(64, 64)
    state = zero_state(grid, theta=0.5, tau=0.05, n_steps=1)
    rng = np.random.default_rng(6)
    fields = {name: random_modes(grid, rng) for name in ("rhs", "x0")}
    k = fields["rhs"].size - 64 * 64
    lam = Spectrum(CurlCurlBasis(grid).eigenvalues(*step_operator(state)), k)
    fields[where].reshape(2, 64, 64)[1, 10, 20] = bad
    with pytest.raises(SolverError) as err:
        solve_spd(lam, fields["rhs"], fields["x0"])
    assert err.value.iterations == 0
    assert not math.isfinite(err.value.residual)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_the_division_refuses_a_non_finite_right_hand_side(bad):
    # a run without sources keeps the solve's check of the right-hand side's
    # norm, and its SolverError (the CLI's exit 3)
    grid = GridSpec(8, 8)
    state = zero_state(grid, n_steps=1)
    rhs = random_modes(grid, np.random.default_rng(6))
    lam = CurlCurlBasis(grid).eigenvalues(*step_operator(state))
    rhs[-1] = bad
    with pytest.raises(SolverError, match="right-hand side norm"):
        solve_spd(Spectrum(lam, rhs.size - 64, exact=True), rhs, np.zeros_like(rhs))


def recorded_solves(monkeypatch, state, n_steps):
    """(spectrum, rhs, x0) of every solve that n_steps real steps from state
    make, rhs and x0 copied."""
    calls = []
    real = stepper.solve_spd

    def record(spectrum, rhs, x0):
        calls.append((spectrum, rhs.copy(), x0.copy()))
        return real(spectrum, rhs, x0)

    monkeypatch.setattr(stepper, "solve_spd", record)
    for _ in range(n_steps):
        state = step(state)
    monkeypatch.undo()
    return calls


SOLVE_CASES = pytest.mark.parametrize(
    "grid, quadrature, tau, min_iterations",
    [
        (GridSpec(2, 2), Quadrature.SFTR, 0.1, 1),
        (GridSpec(3, 5), Quadrature.SFTR, 0.1, 1),
        # almost every eigenvalue distinct: lx/nx != ly/ny and nx != ny
        (GridSpec(17, 9, lx=1.3, ly=0.7), Quadrature.FBDF2, 0.1, 1),
        # ill-conditioned: the operator of the paper sweep's FBDF2 (0.9, 0.45) row at tau = 1/5
        (GridSpec(64, 64), Quadrature.FBDF2, 0.2, 180),
    ],
)


def solve_case(monkeypatch, grid, quadrature, tau):
    """The state of a forced 3-step FBDF2/SFTR run that keeps component 0
    whole (k = nx ny), and the solves of its first two steps."""
    config = SchemeConfig(theta=0.45, tau=tau, n_steps=3, quadrature=quadrature)
    zero = zero_edges(grid), np.zeros((grid.nx, grid.ny))
    sources = in_coefficients(poly_sources(grid), grid)
    full_span(monkeypatch, grid)
    state = init_state(grid, MaterialParams(alpha=0.9), config, *zero, sources)
    return state, recorded_solves(monkeypatch, state, 2)


@SOLVE_CASES
def test_spectrum_groups_the_eigenvalues_exactly(monkeypatch, grid, quadrature, tau, min_iterations):
    # a forced run that keeps component 0 whole and a decay run (k = 1) of one
    # operator
    state, calls = solve_case(monkeypatch, grid, quadrature, tau)
    decay = init_state(grid, state.material, state.config, *decay_initial_data(grid))
    assert (state.span.k, decay.span.k) == (grid.nx * grid.ny, 1)
    diag, curl_scale = step_operator(state)
    assert step_operator(decay) == (diag, curl_scale)
    lam = CurlCurlBasis(grid).eigenvalues(diag, curl_scale)
    for run_state, solves in ((state, calls), (decay, recorded_solves(monkeypatch, decay, 2))):
        k = run_state.span.k
        for spectrum, _, _ in solves:
            assert spectrum is run_state.spectrum
            values = spectrum.values[spectrum.index]
            # component 0 is diag throughout, lam's group at mode (0, 0)
            assert values[:k].tobytes() == np.full(k, diag).tobytes()
            assert values[k:].tobytes() == lam.tobytes()
            assert np.all(np.diff(spectrum.values) > 0.0)


@SOLVE_CASES
def test_solve_spd_matches_cg_over_every_coefficient(
    monkeypatch, grid, quadrature, tau, min_iterations
):
    # the recurrence once per distinct eigenvalue against the same recurrence
    # over every coefficient: only the summation order differs
    state, calls = solve_case(monkeypatch, grid, quadrature, tau)
    lam = operator_diagonal(CurlCurlBasis(grid).eigenvalues(*step_operator(state))).reshape(-1)
    maxit = CG_MAXIT_PER_SIDE * (grid.nx + grid.ny)
    most = 0
    for spectrum, rhs, x0 in calls:
        for start in (np.zeros_like(x0), x0):
            want, want_its = diagonal_cg(lam, rhs, start, CG_TOL, maxit)
            got, got_its = solve_spd(spectrum, rhs.copy(), start)
            assert got_its == want_its
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            most = max(most, got_its)
    assert most >= min_iterations


@SOLVE_CASES
def test_solve_spd_bitwise_matches_textbook_cg(monkeypatch, grid, quadrature, tau, min_iterations):
    state, calls = solve_case(monkeypatch, grid, quadrature, tau)
    # the stencil CG on the dofs against solve_spd on the coefficients: the
    # same recurrence in another orthonormal basis, so the same iteration
    # counts and the same solutions up to round-off
    maxit = CG_MAXIT_PER_SIDE * (grid.nx + grid.ny)
    diag, curl_scale = step_operator(state)
    op = lambda v: fmap(
        lambda a, b: diag * a + curl_scale * b, v, curl_h(curl_e(v, grid), grid)
    )
    most = 0
    for spectrum, rhs, x0 in calls:
        lam = spectrum.values[spectrum.index]
        want_lam = operator_diagonal(CurlCurlBasis(grid).eigenvalues(diag, curl_scale)).reshape(-1)
        assert np.array_equal(lam, want_lam)
        for start in (np.zeros_like(x0), x0):
            want, want_its = textbook_cg(
                op, edge_field(rhs, grid), grid, CG_TOL, maxit, x0=edge_field(start, grid)
            )
            got, got_its = solve_spd(spectrum, rhs.copy(), start)
            assert got_its == want_its
            diff = fmap(np.subtract, edge_field(got, grid), want)
            assert norm_e(diff, grid) <= 1e-13 * norm_e(want, grid)
            most = max(most, got_its)
    assert most >= min_iterations


def test_difference_identity_from_companion_weights():
    # (P^n - P^{n-1})/tau = tau^(alpha-1) sum_k varpi_{n-k} D^alpha P^{k-theta}
    grid = GridSpec(10, 10)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    config = SchemeConfig(theta=0.3, tau=0.1, n_steps=8)
    state = case.initial_state(config)
    hist = [state.p]
    while state.n < config.n_steps:
        hist.append(step(state).p)
    tau, alpha = config.tau, 0.6
    omega = state.kernel
    varpi = varpi_weights(alpha, config.theta, config.n_steps)

    def quadrature_at(k):
        acc = np.zeros_like(hist[0])
        for j in range(1, k + 1):
            acc = acc + omega[k - j] * (hist[j] - hist[0])
        return tau ** (-alpha) * acc

    def norm(u):
        return np.sqrt(grid.dx * grid.dy * np.sum(u * u))

    d_values = [quadrature_at(k) for k in range(1, config.n_steps + 1)]
    for n in range(1, config.n_steps + 1):
        lhs = (1.0 / tau) * (hist[n] - hist[n - 1])
        rhs = np.zeros_like(lhs)
        for k in range(1, n + 1):
            rhs = rhs + varpi[n - k] * d_values[k - 1]
        rhs = tau ** (alpha - 1.0) * rhs
        assert norm(lhs - rhs) <= 1e-10 * max(1.0, norm(lhs))


def test_determinism_bitwise():
    case = ManufacturedCase(alpha=0.5).sample(GridSpec(10, 10))
    config = SchemeConfig(theta=0.5, tau=0.1, n_steps=5)
    a = run(case.initial_state(config))
    b = run(case.initial_state(config))
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.history.s, b.history.s)


def test_step_linear_in_sources():
    # the three runs keep different spans (k = 4, 4 and 8), so their fields
    # are compared on the dofs
    grid = GridSpec(8, 8)
    xe, ye = grid.ex_coords()
    xn, yn = grid.ey_coords()
    xc, yc = grid.h_coords()
    ex0, ey0 = np.zeros_like(xe), np.zeros_like(xn)
    s1 = poly_sources(grid)
    s2 = Sources(
        f1=((math.cos, VecField(ye, ey0)), (lambda t: 0.2 * t, VecField(ex0, xn))),
        f2=((math.sin, xc * yc),),
        f3=(
            (lambda t: 0.5 * t * t, VecField(ye * (1.0 - ye), ey0)),
            (lambda t: math.exp(-t), VecField(ex0, xn * (1.0 - xn))),
        ),
    )
    s_sum = Sources(s1.f1 + s2.f1, s1.f2 + s2.f2, s1.f3 + s2.f3)

    outs = []
    for src in (s1, s2, s_sum):
        state = zero_state(
            grid=grid, theta=0.4, tau=0.1, n_steps=6, sources=in_coefficients(src, grid)
        )
        outs.append(run(state).fields())
    assert state.span.k == 8
    for a, b, both in zip(*outs):
        if isinstance(a, VecField):
            a, b, both = (np.concatenate((f.ex.ravel(), f.ey.ravel())) for f in (a, b, both))
        np.testing.assert_allclose(a + b, both, atol=1e-9)


def test_step_beyond_configured_run_fails():
    state = run(zero_state(n_steps=2))
    with pytest.raises(ValueError):
        step(state)


def curl_free_mode(grid):
    """E^0 in the single curl-free mode (3, 5), H^0 = 0."""
    coef = np.zeros((2, grid.nx, grid.ny))
    coef[0, 3, 5] = 1.0
    return edge_field(coef, grid), np.zeros((grid.nx, grid.ny))


def tangential_only(grid):
    """E^0 = 0, with no curl-free part at all, and a random H^0."""
    return zero_edges(grid), np.random.default_rng(8).standard_normal((grid.nx, grid.ny))


# initial data -> k, the coordinates of component 0 a run without sources keeps
REDUCED_CASES = {"decay": (decay_initial_data, 1), "mode-3-5": (curl_free_mode, 1),
                 "no-curl-free-part": (tangential_only, 0)}


@pytest.mark.parametrize("case", REDUCED_CASES)
@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_a_reduced_run_matches_the_identity_span(monkeypatch, quadrature, case):
    # a run without sources keeps component 0 as k coordinates in the span
    # of E^0's (k = 1, or 0 with no curl-free part), and steps as the run
    # that keeps the whole component, in the span of the identity: E, P and
    # H on the dofs and the energy of every step agree to 1e-13 relative,
    # past several folds.  The decay case is run_decay_experiment's own run
    grid, n_steps = GridSpec(24, 16), 120
    material = MaterialParams(alpha=0.7)
    config = SchemeConfig(theta=0.4, tau=0.01, n_steps=n_steps, quadrature=quadrature)
    make, k = REDUCED_CASES[case]
    with monkeypatch.context() as patch:
        full_span(patch, grid)
        full = init_state(grid, material, config, *make(grid))
    assert full.span.k == 24 * 16
    energies = [energy.discrete_energy(full)]
    while full.n < n_steps:
        energies.append(energy.discrete_energy(step(full)))
    if case == "decay":
        reduced, trace, report = energy.run_decay_experiment(0.7, 0.4, grid, 0.01, n_steps, quadrature)
        reduced_energies = trace["energy"]
    else:
        reduced = init_state(grid, material, config, *make(grid))
        reduced_energies = [energy.discrete_energy(reduced)]
        while reduced.n < n_steps:
            reduced_energies.append(energy.discrete_energy(step(reduced)))
    rows = len(reduced.history.rows)
    assert reduced.span.k == k and reduced.history.rows.shape == (rows, k + 24 * 16)
    assert reduced.e.shape == reduced.p.shape == (k + 24 * 16,)
    assert reduced.history.folded >= 3 * stepper.HISTORY_FOLD
    np.testing.assert_allclose(reduced_energies, energies, rtol=1e-13, atol=0)
    assert energies[-1] > 0.0
    for want, got in zip(full.fields(), reduced.fields()):
        pairs = ((want.ex, got.ex), (want.ey, got.ey)) if isinstance(want, VecField) else ((want, got),)
        for a, b in pairs:
            assert np.linalg.norm(b - a) <= 1e-13 * np.linalg.norm(a)


def test_curl_free_span_is_a_unit_vector_and_packs_back():
    # the span of one (nx, ny) array: the array over its norm, k = 1, or
    # k = 0 for the zero array
    grid = GridSpec(12, 8)
    rng = np.random.default_rng(3)
    c1, c2 = (random_modes(grid, rng).reshape(2, 12, 8) for _ in range(2))
    a = c1[0]
    span = curl_free_span(a)
    assert span.k == 1 and span.basis.shape == (1, 96) and span.shape == (12, 8)
    assert math.isclose(np.einsum("i,i->", span.basis[0], span.basis[0]), 1.0, abs_tol=1e-15)
    np.testing.assert_allclose(span.basis[0] * np.linalg.norm(a), a.reshape(-1), rtol=1e-15, atol=0)
    empty = curl_free_span(np.zeros((12, 8)))
    assert empty.k == 0 and empty.basis.shape == (0, 96)
    # pack and unpack: exact for coefficients whose component 0 is in the span
    for layout, scale in ((span, -2.5), (empty, 0.0)):
        coef = np.stack((scale * a, c2[1]))
        x = layout.pack(coef)
        k = layout.k
        assert x.shape == (k + 96,) and np.array_equal(x[k:], coef[1].reshape(-1))
        np.testing.assert_allclose(layout.unpack(x), coef, rtol=0, atol=1e-14)
    # the span of every (nx, ny) array: the layout is the coefficients raveled
    identity = Span((12, 8), np.eye(96))
    assert identity.k == 96 and np.array_equal(identity.pack(coef), coef.reshape(-1))
    assert np.array_equal(identity.unpack(identity.pack(coef)), coef)
    # a run of E^0 without sources keeps its component 0 as one coordinate
    e0 = edge_field(np.stack((a, c2[1])), grid)
    config = SchemeConfig(theta=0.5, tau=0.1, n_steps=2)
    state = init_state(grid, MaterialParams(), config, e0, np.zeros((12, 8)))
    assert state.span.k == 1 and state.e.shape == (1 + 96,) and state.history.rows.shape[1] == 97
    np.testing.assert_allclose(
        state.span.unpack(state.e), np.stack((a, c2[1])), rtol=0, atol=1e-13
    )


def test_a_run_without_sources_divides_and_a_forced_run_iterates(monkeypatch):
    # the solve is chosen once, at set-up: on an 8^2 run without sources every
    # E^n is rhs / values[index] bit for bit, in 0 iterations; a forced run of
    # the same operator keeps the CG
    grid = GridSpec(8, 8)
    config = SchemeConfig(theta=0.5, tau=0.01, n_steps=4)
    real, solves = stepper.solve_spd, []

    def record(spectrum, rhs, x0):
        given = rhs.copy()
        solution, iterations = real(spectrum, rhs, x0)
        solves.append((spectrum, given, solution.copy(), iterations))
        return solution, iterations

    monkeypatch.setattr(stepper, "solve_spd", record)
    sources = in_coefficients(poly_sources(grid), grid)
    for forced in (False, True):
        solves.clear()
        state = init_state(
            grid, MaterialParams(), config, *decay_initial_data(grid), sources if forced else None
        )
        run(state)
        assert len(solves) == 4 and state.spectrum.exact is not forced
        for spectrum, rhs, solution, iterations in solves:
            assert spectrum is state.spectrum and np.any(solution != 0.0)
            if forced:
                assert iterations > 0
            else:
                assert iterations == 0
                assert solution.tobytes() == (rhs / spectrum.values[spectrum.index]).tobytes()
        assert state.e.tobytes() == solves[-1][2].tobytes()


def test_a_step_that_raised_leaves_a_state_that_refuses_to_step(monkeypatch):
    # the step's solve fails after the history has moved (a full window folded,
    # g written to P^n's row), so the state refuses any further step.  Forced,
    # so that the solve is the CG, which the patched tolerance makes fail
    grid = GridSpec(12, 8)
    config = SchemeConfig(theta=0.5, tau=0.01, n_steps=60)
    sources = in_coefficients(poly_sources(grid), grid)
    state = init_state(grid, MaterialParams(), config, *decay_initial_data(grid), sources)
    while len(state.history.poles) + state.n - state.history.folded < len(state.history.rows):
        step(state)
    n, folded = state.n, state.history.folded
    monkeypatch.setattr(stepper, "CG_TOL", 0.0)
    monkeypatch.setattr(stepper, "CG_MAXIT_PER_SIDE", 1)
    with pytest.raises(SolverError):
        step(state)
    assert state.stepping and state.n == n and state.history.folded == folded + stepper.HISTORY_FOLD
    monkeypatch.undo()
    with pytest.raises(ValueError, match="raised part-way"):
        step(state)
    assert state.n == n and state.history.folded == folded + stepper.HISTORY_FOLD

def test_curl_free_span_of_several_arrays():
    # Gram-Schmidt twice: arrays not in the span of those before them give
    # orthonormal rows, and the layout holds each array exactly.  An array
    # already in the span adds no row, even where the span fills the space
    # its entries can take, so that the residual is round-off of one row:
    # on a 2x2 grid component 0 has the one mode (1, 1)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 12, 8))
    span = curl_free_span(a, np.zeros((12, 8)), b)
    assert span.k == 2
    np.testing.assert_allclose(np.einsum("ij,kj->ik", span.basis, span.basis), np.eye(2),
                               rtol=0, atol=1e-15)
    for lead in (a, b, a - 3 * b):
        coef = np.stack((lead, b))
        np.testing.assert_allclose(span.unpack(span.pack(coef)), coef, rtol=0, atol=1e-14)
    for x, y in rng.standard_normal((200, 2)):
        lone = np.zeros((2, 2, 2))
        lone[:, 1, 1] = x, y
        one = curl_free_span(*lone)
        assert one.k == 1 and abs(one.basis[0, 3]) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("shape, draws", [((40, 40), 200), ((3, 1), 1000)], ids=["40x40", "3x1"])
def test_curl_free_span_keeps_no_row_of_round_off(shape, draws):
    # a + 2b is in the span of a and b.  Its first-pass residual is
    # round-off, which may lie mostly outside that span, so that the second
    # pass takes little off it; the row it would add holds nothing but
    # round-off (k = 3 in 12 of these 200 draws and in 157 of these 1000
    # without the round-off floor)
    rng = np.random.default_rng(226)
    for _ in range(draws):
        a, b = rng.standard_normal((2, *shape))
        assert curl_free_span(a, b, a + 2 * b).k == 2


@pytest.mark.parametrize("scale", [1e-165, 1e160])
def test_curl_free_span_keeps_component_0_at_any_scale(scale):
    # squared, component 0 of E^0 underflows to 0 at 1e-165 (which gave k = 0)
    # and overflows at 1e160 (which gave a zero basis): both lost 27 % of E.
    # Scaled by a power of two first, the span holds it at any finite scale,
    # and at scale 1 the basis is the unscaled one bit for bit
    grid = GridSpec(8, 8)
    e0, h0 = decay_initial_data(grid)
    config = SchemeConfig(theta=0.5, tau=0.1, n_steps=2)
    big = VecField(scale * e0.ex, scale * e0.ey)
    state = init_state(grid, MaterialParams(), config, big, h0)
    assert state.span.k == 1
    e = state.fields()[0]
    for got, want in ((e.ex, big.ex), (e.ey, big.ey)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    lead = CurlCurlBasis(grid).forward(e0.ex, e0.ey)[0]
    flat = lead.reshape(-1)
    unscaled = flat * (1.0 / math.sqrt(np.einsum("i,i->", flat, flat)))
    assert curl_free_span(lead).basis[0].tobytes() == unscaled.tobytes()
    assert curl_free_span(np.ldexp(lead, 7)).basis[0].tobytes() == unscaled.tobytes()


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_a_run_calls_its_sources_once_per_step(quadrature):
    # each time factor of a run's sources is called once per step, at
    # (n - theta) tau, and a copy of the state shares the sources
    calls = []
    case = ManufacturedCase(alpha=0.6).sample(GridSpec(6, 6))

    def counting(factor):
        return lambda t: calls.append((factor, t)) or factor(t)

    sides = (case.sources.f1, case.sources.f2, case.sources.f3)
    sources = Sources(*(tuple((counting(f), profile) for f, profile in terms) for terms in sides))
    config = SchemeConfig(theta=0.3, tau=0.1, n_steps=5, quadrature=quadrature)
    state = replace(case, sources=sources).initial_state(config)
    assert state.sources is sources and copy.copy(state).sources is sources and calls == []
    run(state)
    factors = [factor for terms in sides for factor, _ in terms]
    assert len(calls) == 5 * len(factors) == 25
    for factor in factors:
        assert [t for f, t in calls if f is factor] == [(n - 0.3) * 0.1 for n in range(1, 6)]
