"""Discrete energy functional, dissipation bound, decay reporting."""

import weakref

import numpy as np
import pytest

from colecole import energy
from colecole.energy import (
    TRACE,
    DecayReport,
    decay_report,
    discrete_energy,
    dissipation_residual,
    energy_tolerance,
    run_decay_experiment,
)
from colecole.manufactured import decay_initial_data
from colecole.mesh import CurlCurlBasis, GridSpec, VecField
from colecole.stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    init_state,
    step,
)
from colecole.weights import fbdf2_weights, sftr_weights, shift_combine

from oracles import (
    curl_e, inner_e, inner_h, varpi_weights_by_series, with_p_history, zero_edges,
)


def fresh_state(grid, alpha=0.5, theta=0.5, tau=0.05, n_steps=8, quadrature=Quadrature.SFTR,
                e0=None, h0=None):
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    e0 = e0 if e0 is not None else zero_edges(grid)
    h0 = h0 if h0 is not None else np.zeros((grid.nx, grid.ny))
    state = init_state(grid, material, config, e0, h0)
    assert state.span.k <= 1  # no sources: component 0 in the span of E^0's
    return state


def test_energy_at_step_zero_is_field_energy():
    grid = GridSpec(8, 8)
    rng = np.random.default_rng(0)
    e0 = VecField(rng.standard_normal((8, 9)), rng.standard_normal((9, 8))).enforce_pec()
    h0 = rng.standard_normal((8, 8))
    state = fresh_state(grid, e0=e0, h0=h0)
    mat = state.material
    expected = mat.c_p * (
        mat.c_e * inner_e(e0, e0, grid) + mat.c_m * inner_h(h0, h0, grid)
    )
    assert discrete_energy(state) == pytest.approx(expected, rel=1e-14)


def test_energy_zero_state():
    state = fresh_state(GridSpec(4, 4))
    assert discrete_energy(state) == 0.0


@pytest.mark.parametrize("quadrature", list(Quadrature), ids=lambda q: q.value)
@pytest.mark.parametrize("alpha,theta,n_steps", [(0.5, 0.5, 8), (0.3, 0.15, 1), (0.9, 0.4, 40)])
def test_state_carries_cumulative_companion_weights(quadrature, alpha, theta, n_steps):
    # a_0..a_N of the run's own (alpha, theta), for both kernels: the FBDF2
    # energy is monitored with the trapezoidal companion weights
    state = fresh_state(GridSpec(4, 4), alpha=alpha, theta=theta, tau=1.0 / n_steps,
                        n_steps=n_steps, quadrature=quadrature)
    assert len(state.a_weights) == n_steps + 1
    expected = np.cumsum(varpi_weights_by_series(alpha, theta, n_steps))
    np.testing.assert_allclose(state.a_weights, expected, rtol=1e-13, atol=0)
    assert step(state).a_weights is state.a_weights


def test_energy_synthetic_history_direct_formula():
    # fabricate a short history and s-values; compare against the formula
    # tau0^a tau^a sum a_k s_{n-k} + ||P||^2 + c_p(c_e ||E||^2 + c_m ||H||^2).
    # E^0 = P^2 puts P^2's curl-free component in the span (k = 1)
    grid = GridSpec(4, 4)
    tau, alpha, theta = 0.25, 0.4, 0.3
    rng = np.random.default_rng(9)
    p2 = VecField(rng.standard_normal((4, 5)), rng.standard_normal((5, 4))).enforce_pec()
    state = fresh_state(grid, alpha=alpha, theta=theta, tau=tau, n_steps=4, e0=p2)
    assert state.span.k == 1
    p2_modes = state.span.pack(CurlCurlBasis(grid).forward(p2.ex, p2.ey))
    s_vals = (0.0, 0.7, 1.3)
    zero = np.zeros_like(p2_modes)
    state = with_p_history(state, (zero, zero, p2_modes), s=s_vals, p=p2_modes)
    mat = state.material
    direct = sum(state.a_weights[k] * s_vals[2 - k] for k in range(3))
    direct *= mat.tau0**alpha * tau**alpha
    direct += (1.0 + mat.c_p * mat.c_e) * inner_e(p2, p2, grid)  # P^2 and E = E^0 = P^2
    assert discrete_energy(state) == pytest.approx(direct, rel=1e-14)


def test_memory_term_matches_brute_force_during_run():
    grid = GridSpec(10, 10)
    e0, h0 = decay_initial_data(grid)
    state = fresh_state(grid, alpha=0.7, theta=0.4, tau=0.1, n_steps=6, e0=e0, h0=h0)
    mat = state.material
    while state.n < 6:
        state = step(state)
        total = discrete_energy(state)
        brute = 0.0
        for k in range(state.n + 1):
            brute += state.a_weights[k] * state.history.s[state.n - k]
        brute *= mat.tau0**0.7 * 0.1**0.7
        e, p, h = state.fields()  # the norms on the dofs
        brute += inner_e(p, p, grid) + mat.c_p * (
            mat.c_e * inner_e(e, e, grid) + mat.c_m * inner_h(h, h, grid)
        )
        assert total == pytest.approx(brute, rel=1e-12)
        assert total >= 0.0


@pytest.mark.parametrize("alpha,theta", [(0.5, 0.25), (0.9, 0.45), (0.3, 0.5)])
def test_energy_decays_mode_by_mode(alpha, theta):
    # Each (k, l) mode is a decoupled copy of the scheme with the curls
    # replaced by |v|, so the energy law should hold for each one.  The mode
    # energies, their memory terms rebuilt from the states' P^k, must sum
    # to the discrete energy and each must be non-increasing.
    grid = GridSpec(12, 10, lx=1.3)
    n_steps, tau = 200, 0.01
    rng = np.random.default_rng(12)
    e0 = VecField(rng.standard_normal((12, 11)), rng.standard_normal((13, 10))).enforce_pec()
    h0 = rng.standard_normal((12, 10))
    state = fresh_state(grid, alpha=alpha, theta=theta, tau=tau, n_steps=n_steps, e0=e0, h0=h0)
    # (E, P, H) of every step, E and P as (2, nx, ny) coefficients, and the
    # energy of each; step rebinds the arrays
    unpack = state.span.unpack
    fields, totals = [(unpack(state.e), unpack(state.p), state.h)], [discrete_energy(state)]
    while state.n < n_steps:
        step(state)
        fields.append((unpack(state.e), unpack(state.p), state.h))
        totals.append(discrete_energy(state))
    mat, area = state.material, grid.dx * grid.dy
    # s_j per mode: D^alpha P at t_{j-theta} = tau^-alpha sum_k K_{j-k} P^k
    rows = np.stack([p for _, p, _ in fields])
    kern = state.kernel
    s = np.zeros((n_steps + 1, 12, 10))
    for j in range(1, n_steps + 1):
        d = tau ** (-alpha) * np.einsum("k,kcij->cij", kern[j - 1 :: -1], rows[1 : j + 1])
        s[j] = area * (d * d).sum(axis=0)
    scale = mat.tau0**alpha * tau**alpha
    energies = []
    for n, ((e, p, h), total) in enumerate(zip(fields, totals)):
        memory = scale * np.einsum("k,kij->ij", state.a_weights[: n + 1], s[n::-1])
        modes = memory + area * (
            (p**2).sum(axis=0) + mat.c_p * (mat.c_e * (e**2).sum(axis=0) + mat.c_m * h**2)
        )
        assert modes.sum() == pytest.approx(total, rel=1e-12)
        energies.append(modes)
    rises = np.diff(np.array(energies), axis=0)
    assert rises.max() <= energy_tolerance(totals[0])


def test_dissipation_zero_dynamics():
    state = fresh_state(GridSpec(4, 4))
    p_prev, energy = state.p, discrete_energy(state)
    step(state)
    assert dissipation_residual(state, p_prev, energy, discrete_energy(state)) == 0.0


@pytest.mark.parametrize("alpha,theta", [(0.5, 0.25), (0.5, 0.5), (0.2, 0.3)])
def test_dissipation_nonpositive_for_sftr_step(alpha, theta):
    grid = GridSpec(16, 16)
    e0, h0 = decay_initial_data(grid)
    state = fresh_state(grid, alpha=alpha, theta=theta, tau=0.02, n_steps=3, e0=e0, h0=h0)
    energy = discrete_energy(state)
    tol = energy_tolerance(energy)
    for _ in range(3):
        p_prev = state.p
        new_energy = discrete_energy(step(state))
        assert dissipation_residual(state, p_prev, energy, new_energy) <= tol
        energy = new_energy


def test_dissipation_recorded_for_fbdf2():
    grid = GridSpec(12, 12)
    e0, h0 = decay_initial_data(grid)
    state = fresh_state(
        grid, alpha=0.8, theta=0.5, tau=0.05, n_steps=2, quadrature=Quadrature.FBDF2,
        e0=e0, h0=h0,
    )
    p_prev, energy = state.p, discrete_energy(state)
    step(state)
    r = dissipation_residual(state, p_prev, energy, discrete_energy(state))
    assert np.isfinite(r)  # report-only: no sign contract


def make_trace(energies, violations):
    trace = np.zeros(len(energies), TRACE)
    trace["n"] = np.arange(len(energies))
    trace["energy"], trace["violation"] = energies, violations
    return trace


def test_trace_and_decay_report():
    rep = decay_report(make_trace([1.0, 0.9, 0.8], [0.0, 0.0, 0.0]))
    assert rep == DecayReport(0, 0.0, None, rep.tolerance)

    rep = decay_report(make_trace([1.0, 1.1, 0.9, 1.3, 1.2], [0.0, 0.1, 0.0, 0.4, 0.0]))
    assert rep.violation_count == 2
    assert rep.max_violation == 0.4
    assert rep.first_violation_step == 1
    # a rise within the tolerance of E~^0 is round-off, not a violation
    rep = decay_report(make_trace([1.0, 1.0 + 1e-11], [0.0, 1e-11]))
    assert rep == DecayReport(0, 1e-11, None, 2e-10)
    with pytest.raises(ValueError, match="empty"):
        decay_report(np.zeros(0, TRACE))


@pytest.mark.parametrize("energies, violations, at", [
    ([1.0, 0.9, np.nan, 0.8], [0.0, 0.0, np.nan, 0.0], 2),
    ([1.0, 0.9, 0.8, 0.7], [0.0, 0.0, 0.0, np.inf], 3),
])
def test_decay_report_refuses_a_non_finite_record(energies, violations, at):
    # a NaN never counts as 0 violations: the report names the first bad step
    with pytest.raises(ValueError, match=f"non-finite energy record at step {at}"):
        decay_report(make_trace(energies, violations))


def test_theta_below_half_alpha_can_rise():
    # Report-only: the theorem's theta >= alpha/2 is needed on some data.  E^0
    # is one curl-free mode, so H and the curls stay zero and the energy is
    # that of a scalar fractional relaxation, which at theta = 0.2 < alpha/2
    # rises once, at step 2; at theta = alpha/2 it never rises.
    grid = GridSpec(16, 16)
    coef = np.zeros((2, 16, 16))
    coef[0, 3, 5] = 1.0
    e0 = VecField(*CurlCurlBasis(grid).inverse(coef))
    assert np.abs(curl_e(e0, grid)).max() <= 1e-12
    for theta, rises in ((0.2, [2]), (0.45, [])):
        state = fresh_state(grid, alpha=0.9, theta=theta, tau=5.0, n_steps=50, e0=e0)
        energies = [discrete_energy(state)]
        while state.n < 50:
            energies.append(discrete_energy(step(state)))
        assert energies[0] == pytest.approx(3.906e-3, rel=1e-3)
        rise = np.diff(energies)
        assert (np.flatnonzero(rise > energy_tolerance(energies[0])) + 1).tolist() == rises
        if rises:
            assert rise[1] == pytest.approx(1.03e-4, rel=1e-2)


def test_fbdf2_at_theta_half_does_not_damp_the_sawtooth():
    # Report-only: the mechanism behind the FBDF2 rises.  At theta = 1/2 the
    # combined symbol (1/2 + z/2) (3/2 - 2z + z^2/2)^alpha vanishes at z = -1,
    # so the kernel's alternating sum is near 0 and nothing damps the mode
    # (-1)^n; the SFTR kernel's is near 1.  An FBDF2 (0.5, 1/2) decay run
    # then rises in about half its steps, and FBDF2 (0.5, 0.3) in none
    signs = (-1.0) ** np.arange(40)
    assert abs(signs @ shift_combine(fbdf2_weights(0.5, 39), 0.5)) < 1e-3  # 5.8e-4
    assert signs @ sftr_weights(0.5, 0.5, 39) > 0.99  # 1.0006
    grid, n_steps = GridSpec(16, 16), 2000
    _, _, half = run_decay_experiment(0.5, 0.5, grid, 0.01, n_steps, Quadrature.FBDF2)
    _, _, damped = run_decay_experiment(0.5, 0.3, grid, 0.01, n_steps, Quadrature.FBDF2)
    assert half.violation_count >= 0.4 * n_steps  # 994
    assert damped.violation_count == 0


def test_run_decay_experiment_records_each_step():
    _, trace, rep = run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)
    assert trace.dtype.names == ("n", "t", "energy", "dissipation", "violation")
    assert trace["n"].tolist() == [0, 1, 2, 3, 4]
    assert trace["t"].tolist() == [n * 0.01 for n in range(5)]
    assert trace["dissipation"][0] == 0.0 and np.all(trace["dissipation"] <= rep.tolerance)
    rises = np.maximum(0.0, np.diff(trace["energy"]))
    assert trace["violation"].tolist() == [0.0, *rises.tolist()]
    assert rep == decay_report(trace)


def test_run_decay_experiment_holds_no_initial_data(monkeypatch):
    # the dof-space initial data go straight to init_state, so they are
    # freed once transformed, before the first step
    refs, alive = [], []
    real_data, real_step = energy.decay_initial_data, energy.step

    def sampled(grid):
        e0, h0 = real_data(grid)
        refs.extend(weakref.ref(a) for a in (e0.ex, e0.ey, h0))
        return e0, h0

    def step(state, *args):
        alive.append([ref() is not None for ref in refs])
        return real_step(state, *args)

    monkeypatch.setattr(energy, "decay_initial_data", sampled)
    monkeypatch.setattr(energy, "step", step)
    energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 2)
    assert len(refs) == 3 and alive == [[False] * 3] * 2


@pytest.mark.parametrize("name,bad,message,at", [
    # the energy without its memory term runs from step 0 (inside
    # discrete_energy), dissipation_residual from step 1
    ("_instant_energy", np.nan, "non-finite", 2),
    ("_instant_energy", np.inf, "non-finite", 2),
    ("_instant_energy", -1.0, "nonnegative", 2),
    ("dissipation_residual", np.nan, "non-finite", 3),
    ("dissipation_residual", -np.inf, "non-finite", 3),
])
def test_run_decay_experiment_rejects_a_bad_record_at_its_step(monkeypatch, name, bad, message, at):
    # a NaN or infinite record is a hard failure, never "0 violations", and
    # so is a negative energy; each is named by the step that made it
    real = getattr(energy, name)
    calls = []

    def third_goes_bad(*args):
        calls.append(None)
        return bad if len(calls) == 3 else real(*args)

    monkeypatch.setattr(energy, name, third_goes_bad)
    with pytest.raises(ValueError, match=f"{message}.* step {at}"):
        energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)


@pytest.mark.parametrize("bad,message", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-1e9, "nonnegative"),
])
def test_a_bad_memory_term_is_named_at_its_step(monkeypatch, bad, message):
    # s_2 goes bad: the error names step 2, not the step 1 that one series
    # product over every s_j would give, which spreads a NaN to all its terms
    real_step = energy.step

    def step(state):
        real_step(state)
        if state.n == 2:
            state.history.s[2] = bad
        return state

    monkeypatch.setattr(energy, "step", step)
    with pytest.raises(ValueError, match=f"{message}.* step 2"):
        energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)


def test_a_run_whose_energy_overflows_stops_at_that_step(monkeypatch):
    # E^0 scaled to 1e154: ||E^0||^2 overflows, so E~^0 is inf.  The run
    # stops there with the energy's ValueError, where stepping on would
    # raise the E-solve's SolverError (exit 3 for exit 2)
    real_data = energy.decay_initial_data

    def huge(grid):
        e0, h0 = real_data(grid)
        return VecField(1e154 * e0.ex, 1e154 * e0.ey), 1e154 * h0

    monkeypatch.setattr(energy, "decay_initial_data", huge)
    with pytest.raises(ValueError, match="non-finite energy record at step 0: inf"):
        with np.errstate(over="ignore"):
            energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)


def test_a_run_evaluates_the_functional_and_the_series_product_once(monkeypatch):
    # every memory term comes from one series product after the last step,
    # and discrete_energy gives E~^0 only
    calls = []

    def counted(name):
        real = getattr(energy, name)
        monkeypatch.setattr(energy, name, lambda *args: calls.append(name) or real(*args))

    counted("discrete_energy")
    counted("series_product")
    energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 50)
    assert calls == ["discrete_energy", "series_product"]


@pytest.mark.parametrize("alpha,theta,quadrature", [
    (0.5, 0.5, Quadrature.SFTR), (0.9, 0.2, Quadrature.SFTR), (0.5, 0.45, Quadrature.FBDF2),
])
def test_the_trace_is_the_functional_of_each_state(alpha, theta, quadrature):
    # the assembled trace against discrete_energy of every state of the same
    # run stepped by hand, whose memory term is summed step by step
    grid, tau, n_steps = GridSpec(8, 8), 0.01, 2000
    _, trace, rep = run_decay_experiment(alpha, theta, grid, tau, n_steps, quadrature)
    state = fresh_state(grid, alpha, theta, tau, n_steps, quadrature, *decay_initial_data(grid))
    energies, residuals = [discrete_energy(state)], [0.0]
    while state.n < n_steps:
        p_prev = state.p
        energies.append(discrete_energy(step(state)))
        residuals.append(dissipation_residual(state, p_prev, energies[-2], energies[-1]))
    assert state.history.folded > 1900
    np.testing.assert_allclose(trace["energy"], energies, rtol=1e-13, atol=0)
    np.testing.assert_allclose(trace["dissipation"], residuals, rtol=0, atol=1e-13 * energies[0] / tau)
    assert rep == decay_report(trace)


@pytest.mark.parametrize("energies, at", [([1.0, 0.9, -1e-3, 0.8], 2), ([-0.0, -1.0], 1)])
def test_decay_report_refuses_a_negative_energy(energies, at):
    with pytest.raises(ValueError, match=f"nonnegative, got .* at step {at}"):
        decay_report(make_trace(energies, np.zeros(len(energies))))


def test_run_decay_experiment_sftr_monotone():
    _, trace, rep = run_decay_experiment(0.5, 0.4, GridSpec(16, 16), 0.02, 25)
    assert rep.violation_count == 0
    assert np.all(trace["dissipation"] <= rep.tolerance)
    assert len(trace) == 26


@pytest.mark.parametrize("alpha,theta", [(0.99, 0.495), (0.5, 0.25)])
def test_long_sftr_run_with_a_folded_history_decays(alpha, theta):
    # 2000 steps: all but the last 20 to 52 lags of every history sum come
    # from the fitted tail, and the energy still never rises
    state, trace, rep = run_decay_experiment(alpha, theta, GridSpec(16, 16), 0.002, 2000)
    assert state.history.folded > 1900
    assert rep.violation_count == 0 and len(trace) == 2001
    assert np.all(trace["dissipation"] <= rep.tolerance)


def test_smaller_alpha_decays_faster_initially():
    # drop over the first five steps shrinks monotonically with alpha
    grid = GridSpec(20, 20)
    drops = []
    for alpha in (0.1, 0.5, 0.9):
        _, trace, _ = run_decay_experiment(alpha, 0.5, grid, 0.01, 5)
        drops.append(trace["energy"][0] - trace["energy"][-1])
    assert drops[0] > drops[1] > drops[2] > 0.0
