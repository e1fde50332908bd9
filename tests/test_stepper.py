"""Integrator: initialization, fractional quadrature, steps vs dense oracles,
residual contracts, the conjugate-gradient solver, the memory preflight, and
run invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from colecole import energy, stepper
from colecole.manufactured import ManufacturedCase, convergence_table
from colecole.mesh import CurlCurlBasis, GridSpec, ScalarField, VecField
from colecole.stepper import (
    CG_MAXIT_PER_SIDE,
    CG_TOL,
    MaterialParams,
    Quadrature,
    SchemeConfig,
    SolverError,
    Spectrum,
    elimination_coefficients,
    frac_deriv_current,
    init_state,
    run,
    solve_spd,
    step,
)
from colecole.weights import (
    TAIL_MAX_POLES,
    SchemeParams,
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
    in_modes,
    norm_e,
    observed_step,
    poly_sources,
    scheme_residual,
    textbook_cg,
    with_p_history,
)


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


def random_modes(grid, rng):
    """Coefficients of a random tangential-zero edge field."""
    e = VecField(rng.standard_normal((grid.nx, grid.ny + 1)),
                 rng.standard_normal((grid.nx + 1, grid.ny))).enforce_pec()
    return CurlCurlBasis(grid).forward(e.ex, e.ey)


def test_init_state():
    state = zero_state()
    assert state.n == 0
    assert state.e.shape == state.p.shape == (2, 4, 4) and state.h.shape == (4, 4)
    assert not np.any(state.p)
    assert state.history.window.shape == (5, 32) and state.history.s.shape == (5,)
    assert not np.any(state.history.window) and not np.any(state.history.s)
    assert state.history.tail is None and state.history.folded == 0  # 4 steps never fold
    # kernel covers the whole run and starts at the generating sequence
    assert len(state.kernel) == state.config.n_steps
    assert state.kernel[0] == sftr_weights(SchemeParams(0.5, 0.5), 0)[0]
    fb = zero_state(quadrature=Quadrature.FBDF2, theta=0.4)
    assert len(fb.kernel) == fb.config.n_steps
    assert fb.kernel[0] == pytest.approx(0.6 * fbdf2_weights(0.5, 0)[0], rel=1e-15)
    grid = GridSpec(4, 4)
    bad = VecField(np.ones((4, 5)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        init_state(grid, MaterialParams(), SchemeConfig(0.5, 0.1, 4), bad, ScalarField.zeros(grid))


def test_frac_deriv_zero_and_single_term():
    state = zero_state(alpha=0.3, theta=0.4, tau=0.2)
    # the first step has no history: only P^1 enters its quadrature
    assert not np.any(frac_deriv_current(state))
    c = 1.7
    d = caputo_after(replace(state, p=np.full((2, 4, 4), c)), frac_deriv_current(state))
    np.testing.assert_allclose(d, 0.2 ** (-0.3) * state.kernel[0] * c, rtol=1e-14)
    # the second step's history is P^1 alone
    state = with_p_history(state, (np.zeros((2, 4, 4)), np.full((2, 4, 4), c)))
    expected = 0.2 ** (-0.3) * state.kernel[1] * c
    np.testing.assert_allclose(frac_deriv_current(state), expected, rtol=1e-14)


@pytest.mark.parametrize("quadrature", [Quadrature.SFTR, Quadrature.FBDF2])
def test_frac_deriv_cubic_history_brute_force(quadrature):
    # scalar history P^k = t_k^3 replicated across dofs vs direct summation
    tau, alpha, theta, n_steps = 0.125, 0.6, 0.35, 8
    state = zero_state(alpha=alpha, theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    vals = [(k * tau) ** 3 for k in range(n_steps + 1)]
    hist = tuple(np.full((2, 4, 4), v) for v in vals[:n_steps])
    state = with_p_history(state, hist)
    d = caputo_after(replace(state, p=np.full((2, 4, 4), vals[-1])), frac_deriv_current(state))
    kern = state.kernel
    n = n_steps
    if quadrature is Quadrature.SFTR:
        brute = sum(kern[n - k] * (vals[k] - vals[0]) for k in range(1, n + 1))
    else:
        # the whole rule sum_{k=0..n} g_{n-k} P^k: the run's kernel stops at
        # g_{n-1}, since g_n multiplies P^0 = 0
        g = shift_combine(fbdf2_weights(alpha, n - 1), theta)
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
        _, history_part = observed_step(state, case.sources)
        d = edge_field(caputo_after(state, history_part), grid)
        assert state.history.s[state.n] == pytest.approx(norm_e(d, grid) ** 2, rel=1e-13)
    assert calls == [0, 1, 2, 3, 4]


def exact_sums_until_folded(state, sources):
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
        _, history_part = observed_step(state, sources)
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
    exact, worst = exact_sums_until_folded(final, case.sources)
    assert final.history is history and final.n == n_steps
    assert history.exact == stepper.HISTORY_EXACT
    unfolded = history.exact + 2 * stepper.HISTORY_FOLD
    # steps 1..53 read an unfolded history: step 53 sums before it folds
    assert exact == unfolded + 1
    assert 0.0 < worst <= 1e-12
    assert history.window.shape == (unfolded + 1, 2 * 8 * 8)
    assert history.s.shape == (n_steps + 1,)
    assert np.array_equal(history.window[n_steps - history.folded], final.p.reshape(-1))


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
    exact, worst = exact_sums_until_folded(final, case.sources)
    history = final.history
    assert final.n == n_steps and np.all(np.isfinite(final.e))
    unfolded = n0 + 2 * stepper.HISTORY_FOLD
    assert history.exact == min(n0, n_steps)
    assert (history.poles is not None) == folds
    if folds:
        assert exact == unfolded + 1 and 0.0 < worst <= 1e-12
        assert history.window.shape == (unfolded + 1, 2 * 8 * 8)
    else:
        assert exact == n_steps and history.folded == 0
        assert history.window.shape == (n_steps + 1, 2 * 8 * 8)


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
    # consecutive steps on a 2x2 grid against the raw coupled system on the dofs
    material, theta, tau, n_steps = DENSE_CASES[case]
    grid = GridSpec(2, 2)
    rng = np.random.default_rng(42)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    e0 = VecField(rng.standard_normal((2, 3)), rng.standard_normal((3, 2))).enforce_pec()
    h0 = ScalarField(rng.standard_normal((2, 2)))
    state = init_state(grid, material, config, e0, h0)
    sources = poly_sources(grid)
    for _ in range(n_steps):
        e_ref, h_ref, p_ref = dense_step_solution(state, sources)
        state = step(state, in_modes(sources, grid))
        e, p, h = state.fields()
        np.testing.assert_allclose(e.ex, e_ref.ex, atol=1e-12)
        np.testing.assert_allclose(e.ey, e_ref.ey, atol=1e-12)
        np.testing.assert_allclose(h.h, h_ref.h, atol=1e-12)
        np.testing.assert_allclose(p.ex, p_ref.ex, atol=1e-12)
        np.testing.assert_allclose(p.ey, p_ref.ey, atol=1e-12)


def test_scheme_residual_zero_dynamics():
    state = zero_state()
    before, history_part = observed_step(state)
    assert scheme_residual(before, state, history_part) == (0.0, 0.0, 0.0)


def test_scheme_residual_below_solver_tolerance():
    grid = GridSpec(12, 12)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    config = SchemeConfig(theta=0.5, tau=0.05, n_steps=4)
    state = case.initial_state(config)
    on_dofs = closed_form_sources(0.5, grid)
    _, a_coef = elimination_coefficients(
        state.material, config.theta, config.tau, state.kernel[0]
    )
    for _ in range(4):
        before, history_part = observed_step(state, case.sources)
        r1, r2, r3 = scheme_residual(before, state, history_part, on_dofs)
        scale = (state.material.c_e + a_coef) / config.tau * max(1.0, norm_e(state.fields()[0], grid))
        assert max(r1, r2, r3) <= 10.0 * CG_TOL * scale


def test_scheme_residual_linearity_in_perturbation():
    # a consistent (E, P) perturbation moves only the first equation's defect,
    # by ((c_e + a)/tau) per unit of field
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=0.5).sample(grid)
    config = SchemeConfig(theta=0.4, tau=0.1, n_steps=1)
    state = case.initial_state(config)
    before, history_part = observed_step(state, case.sources)
    mat = state.material
    _, a_coef = elimination_coefficients(mat, config.theta, config.tau, state.kernel[0])
    rng = np.random.default_rng(11)
    delta = VecField(
        1e-3 * rng.standard_normal((8, 9)), 1e-3 * rng.standard_normal((9, 8))
    ).enforce_pec()
    delta_modes = CurlCurlBasis(grid).forward(delta.ex, delta.ey)
    perturbed = replace(state, e=state.e + delta_modes, p=state.p + a_coef * delta_modes)
    r1, _, r3 = scheme_residual(before, perturbed, history_part, closed_form_sources(0.5, grid))
    expected = (mat.c_e + a_coef) / config.tau * norm_e(delta, grid)
    assert r1 == pytest.approx(expected, rel=1e-3)
    assert r3 <= 1e-12  # the polarization equation is immune by construction


def test_solve_spd_basics():
    grid = GridSpec(4, 4)
    rhs = random_modes(grid, np.random.default_rng(2))
    zero = np.zeros_like(rhs)
    ones = Spectrum(np.ones_like(rhs))
    # all eigenvalues equal: one group, solved in one iteration
    x, its = solve_spd(ones, rhs, zero, 1e-12, 50)
    np.testing.assert_allclose(x, rhs, atol=1e-13)
    assert its == 1 and len(ones.values) == 1
    x, its = solve_spd(Spectrum(np.full_like(rhs, 2.0)), rhs, zero, 1e-12, 50)
    np.testing.assert_allclose(x, 0.5 * rhs, atol=1e-13)
    assert its == 1
    x, its = solve_spd(ones, zero, rhs, 1e-12, 50)
    assert its == 0 and not np.any(x)
    with pytest.raises(ValueError, match="shapes"):
        solve_spd(ones, rhs, np.zeros((2, 4, 5)), 1e-12, 50)


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
    coef = basis.forward(rhs.ex, rhs.ey)
    x, _ = solve_spd(Spectrum(basis.eigenvalues(1.0, 1.0)), coef, np.zeros_like(coef), 1e-13, 200)
    np.testing.assert_allclose(flatten(edge_field(x, grid)), ref, atol=1e-11)


def step_operator(state):
    """(diag, curl_scale) of the operator diag I + curl_scale curl_h curl_e
    that a step from state solves."""
    mat, tau, theta = state.material, state.config.tau, state.config.theta
    _, a_coef = elimination_coefficients(mat, theta, tau, state.kernel[0])
    return (mat.c_e + a_coef) / tau, (1.0 - theta) ** 2 * tau / mat.c_m


def test_solve_spd_maxit_error():
    # the operator of a first step, d I + c curl_h curl_e, cut off after one iteration
    grid = GridSpec(16, 16)
    state = zero_state(grid, theta=0.5, tau=0.05, n_steps=1)
    lam = Spectrum(CurlCurlBasis(grid).eigenvalues(*step_operator(state)))
    rhs = random_modes(grid, np.random.default_rng(5))
    with pytest.raises(SolverError) as err:
        solve_spd(lam, rhs, np.zeros_like(rhs), CG_TOL, maxit=1)
    assert err.value.residual > 0.0 and err.value.iterations == 1


@pytest.mark.parametrize(
    "diag, curl_scale", [(0.0, 0.0), (0.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.inf)]
)
def test_solve_spd_rejects_an_impossible_operator(diag, curl_scale):
    # (0, 0) used to divide by zero and (0, 1) ran maxit iterations on a
    # singular operator; the spectrum a solve needs refuses both
    grid = GridSpec(8, 8)
    with np.errstate(invalid="ignore"):  # inf * 0 on mode (0, 0)
        lam = CurlCurlBasis(grid).eigenvalues(diag, curl_scale)
    with pytest.raises(ValueError, match="eigenvalues"):
        Spectrum(lam)


@pytest.mark.parametrize("n", [16, 64])
def test_spectrum_merges_mirrored_modes_and_sorts_one_component(monkeypatch, n):
    grid = GridSpec(n, n)
    lam = CurlCurlBasis(grid).eigenvalues(*step_operator(zero_state(grid)))
    sorted_sizes = []
    real_unique = np.unique

    def spy(values, *args, **kwargs):
        sorted_sizes.append(np.size(values))
        return real_unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    spectrum = Spectrum(lam)
    monkeypatch.undo()
    assert sorted_sizes == [n * n]
    # (k, l) and (l, k) share one group on a square grid
    assert np.array_equal(spectrum.index[1], spectrum.index[1].T)
    assert spectrum.values[spectrum.index].tobytes() == lam.tobytes()
    assert len(spectrum.values) < 0.6 * n * n


def test_spectrum_rejects_a_component_0_of_several_values():
    lam = CurlCurlBasis(GridSpec(8, 8)).eigenvalues(2.0, 0.5)
    for bad in (lam[1, 3, 4], 3.0):  # a value of component 1, and one it lacks
        other = lam.copy()
        other[0, 1, 2] = bad
        with pytest.raises(ValueError, match="component 0"):
            Spectrum(other)
    other = lam.copy()
    other[0] = 3.0  # one value, but not one of component 1's
    with pytest.raises(ValueError, match="component 0"):
        Spectrum(other)


# Contractions that numpy hands to BLAS, whose threads keep spinning through
# the rest of a step; the step path uses einsum or ufuncs instead.
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "vecdot", "matvec", "tensordot"}


@pytest.mark.parametrize("module", ["stepper", "energy", "mesh", "manufactured", "weights"])
def test_step_path_calls_no_blas(module):
    import ast, importlib

    path = importlib.import_module(f"colecole.{module}").__file__
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
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
    assert not found, f"{module}.py: {found}"


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


def test_step_runs_without_transforms_or_stencils(monkeypatch):
    # a step is per-mode arithmetic: after init_state it needs no FFT and no
    # curl stencil, and it builds none of the run's constants again
    grid = GridSpec(8, 6, lx=1.3)
    e0 = VecField(*CurlCurlBasis(grid).inverse(random_modes(grid, np.random.default_rng(3))))
    config = SchemeConfig(theta=0.45, tau=0.05, n_steps=3, quadrature=Quadrature.FBDF2)
    state = init_state(grid, MaterialParams(alpha=0.9), config, e0, ScalarField.zeros(grid))
    sources = in_modes(poly_sources(grid), grid)
    forcing = [sources(t) for t in (0.55 * 0.05, 1.55 * 0.05, 2.55 * 0.05)]

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
    for f in forcing:
        state = step(state, lambda t, f=f: f)
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
        init_state(grid, MaterialParams(), config, VecField.zeros(grid), ScalarField.zeros(grid))
    monkeypatch.undo()
    assert stepper.physical_memory_bytes() > 100 * window_bytes


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


def test_memory_preflight_counts_a_bounded_history(monkeypatch):
    # a 5000-step run on 8x8 fits in less memory than its 5001 P rows take:
    # the estimate that counted every row refused it
    grid = GridSpec(8, 8)
    config = SchemeConfig(theta=0.5, tau=0.002, n_steps=5000)
    dofs = 2 * 8 * 8
    every_row = 8 * ((config.n_steps + 1) * (dofs + 4) + 32 * dofs)
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: every_row - 1)
    state = init_state(grid, MaterialParams(), config, VecField.zeros(grid), ScalarField.zeros(grid))
    history = state.history
    held = history.window.nbytes + history.tail.nbytes
    assert held == (53 + len(history.poles)) * dofs * 8
    assert held < every_row / 10


def test_memory_preflight_counts_the_window_of_an_alternating_kernel(monkeypatch):
    # a 5000-step run at (0.9, 0.01) on 8x8 sums its first n0 = 842 lags
    # exactly and folds the rest: it is preflighted once, and allocated, as
    # n0 + 2B + 1 window rows plus M tail rows, in memory that cannot hold
    # its 5001 rows
    grid = GridSpec(8, 8)
    dofs = 2 * 8 * 8
    every_row = 8 * ((5000 + 1) * (dofs + 4) + 32 * dofs)
    monkeypatch.setattr(stepper, "physical_memory_bytes", lambda: every_row - 1)
    checks = []
    preflight = stepper._require_memory
    monkeypatch.setattr(
        stepper, "_require_memory", lambda *args: checks.append(args[2:]) or preflight(*args)
    )
    config = SchemeConfig(theta=0.01, tau=0.002, n_steps=5000)
    zero = VecField.zeros(grid), ScalarField.zeros(grid)
    history = init_state(grid, MaterialParams(alpha=0.9), config, *zero).history
    rows = 842 + 2 * stepper.HISTORY_FOLD + 1
    assert history.exact == 842 and checks == [(rows, TAIL_MAX_POLES)]
    assert history.window.shape == (rows, dofs)
    assert history.tail.shape == (len(history.poles), dofs)


def test_history_bytes_do_not_grow_with_the_run():
    # the holder of a 2000-step run is the window and M rows, as for 200
    # steps; only the fitted M may differ
    grid, dofs = GridSpec(8, 8), 2 * 8 * 8
    held = {}
    for n_steps in (200, 2000):
        history = zero_state(grid, tau=1.0 / n_steps, n_steps=n_steps).history
        assert history.window.shape == (53, dofs)
        assert history.tail.shape == (len(history.poles), dofs)
        held[n_steps] = history.window.nbytes + history.tail.nbytes
        assert held[n_steps] <= (53 + TAIL_MAX_POLES) * dofs * 8
    assert held[2000] < 2 * held[200] and held[2000] < (200 + 1) * dofs * 8


def test_step_advances_its_argument_and_keeps_the_arrays_held_before():
    grid = GridSpec(8, 8)
    case = ManufacturedCase(alpha=0.6).sample(grid)
    state = case.initial_state(SchemeConfig(theta=0.4, tau=0.01, n_steps=3))
    step(state, case.sources)
    held = state.e, state.p, state.h
    copies = [a.copy() for a in held]
    assert step(state, case.sources) is state and state.n == 2
    for new, old, copy in zip((state.e, state.p, state.h), held, copies):
        assert new is not old and np.array_equal(old, copy)
        assert not np.array_equal(new, old)


@pytest.mark.parametrize("where, bad", [("rhs", np.nan), ("rhs", np.inf), ("x0", np.nan)])
def test_solve_spd_non_finite_fails_before_iterating(where, bad):
    # Checked before iterating: a NaN would otherwise run to maxit, and an inf
    # rhs norm makes the threshold inf, so the warm start would pass as converged.
    grid = GridSpec(64, 64)
    state = zero_state(grid, theta=0.5, tau=0.05, n_steps=1)
    lam = Spectrum(CurlCurlBasis(grid).eigenvalues(*step_operator(state)))
    rng = np.random.default_rng(6)
    fields = {name: random_modes(grid, rng) for name in ("rhs", "x0")}
    fields[where][1, 10, 20] = bad
    with pytest.raises(SolverError) as err:
        solve_spd(lam, fields["rhs"], fields["x0"], CG_TOL, 1280)
    assert err.value.iterations == 0
    assert not math.isfinite(err.value.residual)


def recorded_solves(monkeypatch, state, sources, n_steps):
    """(spectrum, rhs, x0) of every solve that n_steps real steps from state
    make, rhs and x0 copied."""
    calls = []
    real = stepper.solve_spd

    def record(spectrum, rhs, x0, tol, maxit):
        calls.append((spectrum, rhs.copy(), x0.copy()))
        return real(spectrum, rhs, x0, tol, maxit)

    monkeypatch.setattr(stepper, "solve_spd", record)
    for _ in range(n_steps):
        state = step(state, sources)
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
    """The state of a 3-step FBDF2/SFTR run and the solves of its first two steps."""
    config = SchemeConfig(theta=0.45, tau=tau, n_steps=3, quadrature=quadrature)
    state = init_state(
        grid, MaterialParams(alpha=0.9), config, VecField.zeros(grid), ScalarField.zeros(grid)
    )
    return state, recorded_solves(monkeypatch, state, in_modes(poly_sources(grid), grid), 2)


@SOLVE_CASES
def test_spectrum_groups_the_eigenvalues_exactly(monkeypatch, grid, quadrature, tau, min_iterations):
    state, calls = solve_case(monkeypatch, grid, quadrature, tau)
    lam = CurlCurlBasis(grid).eigenvalues(*step_operator(state))
    for spectrum, _, _ in calls:
        assert spectrum is state.spectrum
        assert spectrum.values[spectrum.index].tobytes() == lam.tobytes()
        assert np.all(np.diff(spectrum.values) > 0.0)
        # lam[0] is diag throughout: one group
        assert len(np.unique(spectrum.index[0])) == 1


@SOLVE_CASES
def test_solve_spd_matches_cg_over_every_coefficient(
    monkeypatch, grid, quadrature, tau, min_iterations
):
    # the recurrence once per distinct eigenvalue against the same recurrence
    # over every coefficient: only the summation order differs
    state, calls = solve_case(monkeypatch, grid, quadrature, tau)
    lam = CurlCurlBasis(grid).eigenvalues(*step_operator(state))
    maxit = CG_MAXIT_PER_SIDE * (grid.nx + grid.ny)
    most = 0
    for spectrum, rhs, x0 in calls:
        for start in (np.zeros_like(x0), x0):
            want, want_its = diagonal_cg(lam, rhs, start, CG_TOL, maxit)
            got, got_its = solve_spd(spectrum, rhs, start, CG_TOL, maxit)
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
        assert np.array_equal(lam, CurlCurlBasis(grid).eigenvalues(diag, curl_scale))
        for start in (np.zeros_like(x0), x0):
            want, want_its = textbook_cg(
                op, edge_field(rhs, grid), grid, CG_TOL, maxit, x0=edge_field(start, grid)
            )
            got, got_its = solve_spd(spectrum, rhs, start, CG_TOL, maxit)
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
        hist.append(step(state, case.sources).p)
    tau, alpha = config.tau, 0.6
    omega = state.kernel
    varpi = varpi_weights(SchemeParams(alpha, config.theta), config.n_steps)

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
    a = run(case.initial_state(config), case.sources)
    b = run(case.initial_state(config), case.sources)
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.history.s, b.history.s)


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
            VecField(0.5 * t * t * ye * (1.0 - ye), xn * (1.0 - xn) * np.exp(-t)),
        )

    def s_sum(t):
        return tuple(fmap(np.add, a, b) for a, b in zip(s1(t), s2(t)))

    outs = []
    for src in (s1, s2, s_sum):
        state = zero_state(grid=grid, theta=0.4, tau=0.1, n_steps=6)
        outs.append(run(state, in_modes(src, grid)))
    np.testing.assert_allclose(outs[0].e + outs[1].e, outs[2].e, atol=1e-9)
    np.testing.assert_allclose(outs[0].h + outs[1].h, outs[2].h, atol=1e-9)
    np.testing.assert_allclose(outs[0].p + outs[1].p, outs[2].p, atol=1e-9)


def test_step_beyond_configured_run_fails():
    state = run(zero_state(n_steps=2))
    with pytest.raises(ValueError):
        step(state)
