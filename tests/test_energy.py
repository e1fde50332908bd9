"""Discrete energy functional, dissipation bound, decay reporting."""

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
from colecole.mesh import CurlCurlBasis, GridSpec, ScalarField, VecField
from colecole.stepper import (
    MaterialParams,
    Quadrature,
    SchemeConfig,
    init_state,
    step,
)
from colecole.weights import SchemeParams

from oracles import inner_e, inner_h, varpi_weights_by_series, with_p_history


def fresh_state(grid, alpha=0.5, theta=0.5, tau=0.05, n_steps=8, quadrature=Quadrature.SFTR,
                e0=None, h0=None):
    material = MaterialParams(alpha=alpha)
    config = SchemeConfig(theta=theta, tau=tau, n_steps=n_steps, quadrature=quadrature)
    e0 = e0 if e0 is not None else VecField.zeros(grid)
    h0 = h0 if h0 is not None else ScalarField.zeros(grid)
    return init_state(grid, material, config, e0, h0)


def test_energy_at_step_zero_is_field_energy():
    grid = GridSpec(8, 8)
    rng = np.random.default_rng(0)
    e0 = VecField(rng.standard_normal((8, 9)), rng.standard_normal((9, 8))).enforce_pec()
    h0 = ScalarField(rng.standard_normal((8, 8)))
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
    expected = np.cumsum(varpi_weights_by_series(SchemeParams(alpha, theta), n_steps))
    np.testing.assert_allclose(state.a_weights, expected, rtol=1e-13, atol=0)
    assert step(state).a_weights is state.a_weights


def test_energy_synthetic_history_direct_formula():
    # fabricate a short history and s-values; compare against the formula
    # tau0^a tau^a sum a_k s_{n-k} + ||P||^2 + c_p(c_e ||E||^2 + c_m ||H||^2)
    grid = GridSpec(4, 4)
    tau, alpha, theta = 0.25, 0.4, 0.3
    state = fresh_state(grid, alpha=alpha, theta=theta, tau=tau, n_steps=4)
    rng = np.random.default_rng(9)
    p2 = VecField(rng.standard_normal((4, 5)), rng.standard_normal((5, 4))).enforce_pec()
    p2_modes = CurlCurlBasis(grid).forward(p2.ex, p2.ey)
    s_vals = (0.0, 0.7, 1.3)
    zero = np.zeros_like(p2_modes)
    state = with_p_history(state, (zero, zero, p2_modes), s=s_vals, p=p2_modes)
    direct = sum(state.a_weights[k] * s_vals[2 - k] for k in range(3))
    direct *= state.material.tau0**alpha * tau**alpha
    direct += inner_e(p2, p2, grid)
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
    h0 = ScalarField(rng.standard_normal((12, 10)))
    state = fresh_state(grid, alpha=alpha, theta=theta, tau=tau, n_steps=n_steps, e0=e0, h0=h0)
    # (E, P, H) of every step and the energy of each; step rebinds the arrays
    fields, totals = [(state.e, state.p, state.h)], [discrete_energy(state)]
    while state.n < n_steps:
        step(state)
        fields.append((state.e, state.p, state.h))
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


def test_run_decay_experiment_records_each_step():
    _, trace, rep = run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)
    assert trace.dtype.names == ("n", "t", "energy", "dissipation", "violation")
    assert trace["n"].tolist() == [0, 1, 2, 3, 4]
    assert trace["t"].tolist() == [n * 0.01 for n in range(5)]
    assert trace["dissipation"][0] == 0.0 and np.all(trace["dissipation"] <= rep.tolerance)
    rises = np.maximum(0.0, np.diff(trace["energy"]))
    assert trace["violation"].tolist() == [0.0, *rises.tolist()]
    assert rep == decay_report(trace)


@pytest.mark.parametrize("name,bad,message,at", [
    # discrete_energy runs from step 0, dissipation_residual from step 1
    ("discrete_energy", np.nan, "non-finite", 2),
    ("discrete_energy", np.inf, "non-finite", 2),
    ("discrete_energy", -1.0, "nonnegative", 2),
    ("dissipation_residual", np.nan, "non-finite", 3),
    ("dissipation_residual", -np.inf, "non-finite", 3),
])
def test_run_decay_experiment_rejects_a_bad_record_at_its_step(monkeypatch, name, bad, message, at):
    # a NaN or infinite record is a hard failure, never "0 violations", and
    # so is a negative energy; each is raised at the step that made it
    real = getattr(energy, name)
    calls = []

    def third_goes_bad(*args):
        calls.append(None)
        return bad if len(calls) == 3 else real(*args)

    monkeypatch.setattr(energy, name, third_goes_bad)
    with pytest.raises(ValueError, match=f"{message}.* step {at}"):
        energy.run_decay_experiment(0.5, 0.5, GridSpec(8, 8), 0.01, 4)


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
