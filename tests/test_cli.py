"""Command-line drivers: CSV contracts, exit codes, determinism, sweeps;
the package's exported names."""

import dataclasses
import gc
import json
import math
import os
import pickle
import signal
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import colecole.weights
from colecole.cli import _fmt, _write_csv, main
from colecole.energy import run_decay_experiment
from colecole.mesh import GridSpec
from colecole.stepper import MaterialParams, SchemeConfig, SolverError
from colecole.weights import (
    alternating_lags,
    cumulative_weights,
    fbdf2_weights,
    sftr_weights,
    varpi_weights,
)


def cpus(monkeypatch, count):
    """Let the CLI see ``count`` usable CPUs, so that a sweep runs in up to
    ``count`` processes whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def one_cpu(monkeypatch):
    """Run every sweep in this process, one entry at a time."""
    cpus(monkeypatch, 1)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_write_csv_formats_every_cell_kind(tmp_path):
    # one formatter writes every cell: ints plain, floats to 17 significant
    # digits, None blank; a NaN is written, never blanked
    out = tmp_path / "sub" / "t.csv"
    _write_csv(out, "a,b,c", [(7, 0.1, None), (np.int64(12), np.float64(1 / 3), math.nan),
                              (0, math.inf, -math.inf)])
    assert out.read_bytes() == (
        b"a,b,c\n7,0.10000000000000001,\n12,0.33333333333333331,nan\n0,inf,-inf\n"
    )
    # the first row of a convergence table has no rates, the second has all three
    out = tmp_path / "c.csv"
    assert main(["converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "1/5,1/10",
                 "--nx", "8", "--ny", "8", "--out", str(out)]) == 0
    header, (first, second) = read_csv(out)
    rates = [header.index(name) for name in ("rateE", "rateH", "rateP")]
    assert [first[i] for i in rates] == ["", "", ""]
    assert all(math.isfinite(float(second[i])) for i in rates)


def test_write_csv_writes_each_cell_as_fmt_does(tmp_path):
    # a row is formatted by one %-operation, a row with a blank cell one cell
    # at a time: either way the text is _fmt's, bit for bit
    cells = [None, 0, 7, -12, np.int64(2**40), 2**60, 0.1, 1 / 3, -2.0 / 3e-300, 1e22, -0.0,
             math.nan, math.inf, -math.inf, 5e-324, np.float64(2.2250738585072014e-308)]
    rows = [tuple(cells[i : i + 4]) for i in range(0, len(cells), 4)] + [tuple(cells[1:5])]
    out = tmp_path / "t.csv"
    _write_csv(out, "a,b,c,d", rows)
    expected = "a,b,c,d\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    assert out.read_text(encoding="utf-8") == expected
    assert expected.splitlines()[1:4] == [
        ",0,7,-12",
        "1099511627776,1.152921504606847e+18,0.10000000000000001,0.33333333333333331",
        "-6.6666666666666663e+299,1e+22,-0,nan",
    ]
    assert expected.splitlines()[4] == "inf,-inf,4.9406564584124654e-324,2.2250738585072014e-308"


def test_weights_csv_content(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weights", "--alpha", "0.5", "--theta", "0.25", "--n", "8", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "omega", "varpi", "a", "conv_check"]
    assert len(rows) == 9
    # theta = alpha/2 reduces both sequences to the binomial weights
    assert float(rows[1][1]) == pytest.approx(-0.5, rel=1e-15)
    assert float(rows[1][2]) == pytest.approx(-0.5, rel=1e-15)
    assert all(abs(float(r[4])) <= 1e-12 for r in rows)


def test_weights_single_row(tmp_path):
    out = tmp_path / "w0.csv"
    assert main(["weights", "--alpha", "0.3", "--theta", "0.5", "--n", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and rows[0][0] == "0"


def test_weights_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["weights", "--alpha", "0.7", "--theta", "0.4", "--n", "32", "--out", str(a)])
    main(["weights", "--alpha", "0.7", "--theta", "0.4", "--n", "32", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_invalid_parameters_exit_code(tmp_path, capsys):
    code = main(["weights", "--alpha", "1.5", "--theta", "0.25", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["status"] == "error" and "alpha" in err["message"]
    code = main(["energy", "--theta", "0.9", "--nx", "8", "--ny", "8",
                 "--steps", "2", "--out", str(tmp_path / "y.csv")])
    assert code == 2
    capsys.readouterr()
    out = tmp_path / "s.csv"
    assert main(["energy", "--steps", "0", "--nx", "8", "--ny", "8", "--out", str(out)]) == 2
    assert "n_steps must be >= 1" in json.loads(capsys.readouterr().err.strip())["message"]
    assert not out.exists()
    # non-finite values are rejected before any work starts and no CSV is written
    for flags in (["energy", "--tau", "nan"], ["energy", "--tau", "inf"],
                  ["converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "nan"]):
        out = tmp_path / "z.csv"
        assert main(flags + ["--nx", "8", "--ny", "8", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["status"] == "error" and "finite" in err["message"]
        assert not out.exists()
    # a negative largest index is bad input for both kinds, not a crash
    for kind in (["--theta", "0.25"], ["--kind", "fbdf2"]):
        out = tmp_path / "w.csv"
        assert main(["weights", *kind, "--alpha", "0.5", "--n", "-1", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["status"] == "error" and "n must be >= 0" in err["message"]
        assert not out.exists()


# the reason each range rule gives after "alpha=... outside (0, 1)" or
# "theta=... outside (0, 1/2]", whichever entry point refuses the value
REASON = {
    "alpha": "; the fractional order of the Cole-Cole relaxation must be a proper fraction",
    "theta": "; the shifted trapezoidal generating function is defined only for 0 < theta <= 1/2",
}


@pytest.mark.parametrize("argv, bad", [
    (["converge", "--alpha", "1.5", "--theta", "0.5"], "alpha=1.5 outside (0, 1)"),
    (["converge", "--alpha", "0.5", "--theta", "0.9"], "theta=0.9 outside (0, 1/2]"),
    (["energy", "--alpha", "nan"], "alpha=nan outside (0, 1)"),
    (["energy", "--theta", "0"], "theta=0.0 outside (0, 1/2]"),
])
def test_invalid_pair_is_refused_by_the_run_before_sampling(tmp_path, capsys, monkeypatch,
                                                            argv, bad):
    # the run's own MaterialParams and SchemeConfig check alpha and theta
    from colecole.manufactured import ManufacturedCase

    def no_sampling(*args):
        raise AssertionError("sampled before the parameters were checked")

    monkeypatch.setattr("colecole.energy.decay_initial_data", no_sampling)
    monkeypatch.setattr(ManufacturedCase, "sample", no_sampling)
    assert main(argv + ["--nx", "8", "--ny", "8", "--out", str(tmp_path / "x.csv")]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    message = bad + REASON[bad.split("=")[0]]
    assert json.loads(line) == {"status": "error", "command": argv[0], "message": message}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, value", [
    ("alpha", 1.5), ("alpha", math.nan), ("theta", 0.9), ("theta", 0.0),
])
def test_a_bad_value_gets_one_message_from_every_entry_point(tmp_path, capsys, name, value):
    # one range check per parameter: the library and the CLI refuse the same
    # bad alpha or theta with the same text
    alpha, theta = (value, 0.25) if name == "alpha" else (0.5, value)
    expected = f"{name}={value} outside " + ("(0, 1)" if name == "alpha" else "(0, 1/2]")
    expected += REASON[name]
    library = {
        "sftr_weights": lambda: sftr_weights(alpha, theta, 4),
        "cumulative_weights": lambda: cumulative_weights(alpha, theta, 4),
        "alternating_lags": lambda: alternating_lags(alpha, theta),
    }
    if name == "alpha":
        library["fbdf2_weights"] = lambda: fbdf2_weights(alpha, 4)
        library["MaterialParams"] = lambda: MaterialParams(alpha=alpha)
    else:
        library["SchemeConfig"] = lambda: SchemeConfig(theta=theta, tau=0.1, n_steps=4)
    for entry, call in library.items():
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == expected, entry
    pair = ["--alpha", str(alpha), "--theta", str(theta)]
    grid = ["--nx", "8", "--ny", "8"]
    commands = [["weights"] + pair, ["energy"] + pair + grid, ["converge"] + pair + grid]
    if name == "alpha":
        commands.append(["weights", "--kind", "fbdf2", "--alpha", str(alpha)])
    for argv in commands:
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2, argv
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"status": "error", "command": argv[0], "message": expected}
        assert list(tmp_path.iterdir()) == [], argv


@pytest.mark.parametrize("taus, bad", [
    ("1/5,1/10,1/20,1/40,1/40", "tau=0.025 (entry 5)"),
    ("1/10,1/5", "tau=0.2 (entry 2)"),  # a coarser step: its "finest" rate was the coarsest's
    ("1/5,0.3", "tau=0.3 does not divide"),
    # malformed entries are named with the flag, not with Python internals
    ("1/0", "--taus entry '1/0'"),
    ("1/2/3", "--taus entry '1/2/3'"),
    ("1/5,1/x", "--taus entry '1/x'"),
    ("abc", "--taus entry 'abc'"),
    ("1/5,,1/10", "--taus entry ''"),
])
def test_converge_rejects_step_list_before_any_run(tmp_path, capsys, monkeypatch, taus, bad):
    import colecole.manufactured

    calls = []
    real = colecole.manufactured.run_case
    monkeypatch.setattr(
        colecole.manufactured, "run_case", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    out = tmp_path / "c.csv"
    code = main(["converge", "--sweep", "paper", "--taus", taus,
                 "--nx", "8", "--ny", "8", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["status"] == "error" and bad in err["message"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_memory_preflight_on_json_channel(tmp_path, capsys, monkeypatch):
    # a run that would not fit in physical memory exits 4 before it allocates
    import colecole.stepper

    monkeypatch.setattr(colecole.stepper, "physical_memory_bytes", lambda: 2 * 10**5)
    out = tmp_path / "e.csv"
    assert main(["energy", "--nx", "8", "--ny", "8", "--steps", "400", "--out", str(out)]) == 4
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["status"] == "error" and "physical memory" in err["message"]
    assert not out.exists()
    # the same run fits in ten times the memory
    monkeypatch.setattr(colecole.stepper, "physical_memory_bytes", lambda: 2 * 10**6)
    assert main(["energy", "--nx", "8", "--ny", "8", "--steps", "400", "--out", str(out)]) == 0


@pytest.mark.parametrize("exc, code", [
    (SolverError("conjugate gradients stalled", residual=1e-3, iterations=7), 3),
    (MemoryError("cannot hold the history"), 4),
])
def test_run_failures_on_json_channel(tmp_path, capsys, monkeypatch, exc, code):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr("colecole.cli.run_decay_experiment", failing)
    out = tmp_path / "e.csv"
    assert main(["energy", "--nx", "8", "--ny", "8", "--steps", "2", "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"status": "error", "command": "energy", "message": str(exc)}
    assert not out.exists()


@pytest.mark.parametrize("tau", ["1e300", "1e-300"])
def test_unrepresentable_tau_exits_2_before_any_work(tmp_path, capsys, monkeypatch, tau):
    # the E-solve's largest eigenvalue squared overflows (c_e/tau at 1e-300,
    # tau |v|^2 at 1e300): the preflight refuses tau before the kernel is built
    import colecole.stepper

    def no_kernel(*args):
        raise AssertionError("the run was built")

    monkeypatch.setattr(colecole.stepper, "build_kernel", no_kernel)
    out = tmp_path / "e.csv"
    argv = ["energy", "--tau", tau, "--nx", "4", "--ny", "4", "--steps", "2", "--out", str(out)]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["status"] == "error" and err["command"] == "energy"
    assert err["message"].startswith(f"tau={float(tau):g} puts the E-solve's eigenvalues in")
    assert not out.exists()


def test_converge_single_row_empty_rates(tmp_path):
    out = tmp_path / "c.csv"
    code = main([
        "converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "1/4",
        "--nx", "8", "--ny", "8", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["tau", "errE", "rateE", "errH", "rateH", "errP", "rateP"]
    assert len(rows) == 1
    assert rows[0][2] == "" and rows[0][4] == "" and rows[0][6] == ""


def test_converge_rates_populated(tmp_path):
    out = tmp_path / "c2.csv"
    code = main([
        "converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "1/4,1/8",
        "--nx", "12", "--ny", "12", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[1][2]) > 0.0


def test_converge_requires_pair_or_sweep(tmp_path, capsys):
    assert main(["converge", "--out", str(tmp_path / "x.csv")]) == 2
    assert "sweep" in json.loads(capsys.readouterr().err.strip())["message"]


def test_weights_cross_check_failure_exits_1_without_csv(tmp_path, capsys, monkeypatch):
    # valid flags whose weights fail their cross-check: a failed check, not bad input
    real = colecole.weights.binomial_series
    monkeypatch.setattr(colecole.weights, "binomial_series",
                        lambda *a: real(*a) + 1e-9)  # the check's series disagree
    out = tmp_path / "a.csv"
    assert main(["weights", "--alpha", "0.5", "--theta", "0.5", "--n", "16",
                 "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["status"] == "fail" and record["command"] == "weights"
    (failure,) = record["failures"]
    assert failure["check"] == "cumulative_weights_cross_check"
    assert "cross-check failed" in failure["message"]
    assert not out.exists()


def _perturbed_varpi(alpha, theta, n):
    values = colecole.weights.varpi_weights(alpha, theta, n).copy()
    values[3] += 1e-9
    return values


def _gap_grid_with_a_negative_cell(*args):
    xs, alphas, grid = colecole.weights.min_theta_gap_grid(*args)
    grid = grid.copy()
    grid[2, 1] = -1e-3
    return xs, alphas, grid


def _run_with_a_violation(*args):
    state, trace, report = run_decay_experiment(*args)
    return state, trace, dataclasses.replace(report, violation_count=1, max_violation=1.0)


@pytest.mark.parametrize("argv, patch, failure", [
    (["weights", "--alpha", "0.5", "--theta", "0.5", "--n", "8"],
     ("varpi_weights", _perturbed_varpi), {"check": "convolution_identity"}),
    (["theta-scan", "--x-points", "4", "--alpha-points", "3", "--theta-samples", "5"],
     ("min_theta_gap_grid", _gap_grid_with_a_negative_cell),
     {"check": "theta_gap_positive", "min": -1e-3, "x": 0.75, "alpha": 0.5}),
    # a run that breaks the decay contract writes its trace, then fails
    (["energy", "--nx", "4", "--ny", "4", "--steps", "11"],
     ("run_decay_experiment", _run_with_a_violation),
     {"check": "energy_decay", "violations": 1, "max_violation": 1.0}),
])
def test_hard_assertion_failure_exits_1_after_writing_csv(
    tmp_path, capsys, monkeypatch, argv, patch, failure
):
    monkeypatch.setattr(f"colecole.cli.{patch[0]}", patch[1])
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["status"] == "fail" and record["command"] == argv[0]
    (got,) = record["failures"]
    assert {key: got[key] for key in failure} == failure
    _, rows = read_csv(out)
    assert len(rows) == (9 if argv[0] == "weights" else 12)


def test_energy_run_and_trace(tmp_path):
    out = tmp_path / "e.csv"
    code = main([
        "energy", "--alpha", "0.5", "--theta", "0.5", "--tau", "0.02",
        "--steps", "10", "--nx", "12", "--ny", "12", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "t", "energy", "dissipation", "violation"]
    assert len(rows) == 11
    energy = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(energy) <= 1e-10 * (1.0 + energy[0]))
    assert all(float(r[4]) == 0.0 for r in rows)


def test_energy_long_run_below_half_alpha(tmp_path):
    # theta < alpha/2, with a kernel part in (-d1/d0)^j that is below
    # 1e-16 |K_0| only from lag 842 on: the run keeps its whole history and ends
    out = tmp_path / "e.csv"
    code = main([
        "energy", "--alpha", "0.9", "--theta", "0.01", "--steps", "400",
        "--nx", "8", "--ny", "8", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 401 and all(math.isfinite(float(r[2])) for r in rows)


def test_energy_theta_where_the_kernel_never_stops_alternating(tmp_path):
    # at theta = 1e-18, d1/d0 rounds to 1: the alternating part never dies
    # out, so the run keeps every row
    out = tmp_path / "e.csv"
    code = main([
        "energy", "--alpha", "0.5", "--theta", "1e-18", "--steps", "60",
        "--nx", "8", "--ny", "8", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 61 and all(math.isfinite(float(r[2])) for r in rows)


def test_energy_fbdf2_report_only(tmp_path):
    # non-monotone BDF-2 traces are recorded but never fail the run
    out = tmp_path / "f.csv"
    code = main([
        "energy", "--scheme", "fbdf2", "--alpha", "0.99", "--theta", "0.5",
        "--tau", "0.02", "--steps", "15", "--nx", "10", "--ny", "10", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert max(float(r[4]) for r in rows) > 0.0  # oscillations present


def test_energy_sweep_streams_each_run(tmp_path, monkeypatch, capsys):
    import colecole.cli

    one_cpu(monkeypatch)  # the checks below run in this process
    base = tmp_path / "sweep.csv"
    names = ["sweep_a0.5_t0.3_sftr.csv", "sweep_a0.5_t0.4_sftr.csv", "sweep_a0.5_t0.5_sftr.csv"]
    histories = []
    real = colecole.cli.run_decay_experiment

    def checked_run(*args, **kwargs):
        # the previous entry is on disk and its state is gone before this run
        gc.collect()
        if histories:
            assert (tmp_path / names[len(histories) - 1]).exists()
            assert histories[-1]() is None
        result = real(*args, **kwargs)
        histories.append(weakref.ref(result[0].history.rows))
        return result

    monkeypatch.setattr(colecole.cli, "run_decay_experiment", checked_run)
    code = main(["energy", "--sweep", "theta", "--tau", "0.05", "--steps", "4",
                 "--nx", "8", "--ny", "8", "--out", str(base)])
    assert code == 0
    assert len(histories) == 3
    assert sorted(p.name for p in tmp_path.glob("sweep_*.csv")) == names

    # a decay failure in the first entry is raised only after the last CSV
    def violating_first(*args, **kwargs):
        state, trace, report = real(*args, **kwargs)
        if args[1] == 0.3:
            report = dataclasses.replace(report, violation_count=1)
        return state, trace, report

    for p in tmp_path.iterdir():
        p.unlink()
    monkeypatch.setattr(colecole.cli, "run_decay_experiment", violating_first)
    code = main(["energy", "--sweep", "theta", "--tau", "0.05", "--steps", "4",
                 "--nx", "8", "--ny", "8", "--out", str(base)])
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    (failure,) = json.loads(capsys.readouterr().err.strip())["failures"]
    assert failure["theta"] == 0.3 and failure["violations"] == 1


def test_converge_sweep_streams_each_table(tmp_path, monkeypatch, capsys):
    import colecole.cli

    from colecole.cli import PAPER_CONVERGENCE_GRID, _sweep_path

    one_cpu(monkeypatch)  # the checks below run in this process
    base = tmp_path / "conv.csv"
    paths = [_sweep_path(base, a, t, "sftr") for a, t in PAPER_CONVERGENCE_GRID]
    calls = []
    fail_at = None
    real = colecole.cli.convergence_table

    def checked_table(*args, **kwargs):
        # every earlier table is on disk before the next one starts
        assert all(p.exists() for p in paths[: len(calls)])
        calls.append(args)
        if fail_at == len(calls):
            raise ValueError("table failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(colecole.cli, "convergence_table", checked_table)
    flags = ["converge", "--sweep", "paper", "--taus", "1/2,1/4",
             "--nx", "6", "--ny", "6", "--out", str(base)]
    assert main(flags) == 0
    assert len(calls) == 6 and all(p.exists() for p in paths)
    # a failure in entry 3 leaves the complete CSVs of entries 1 and 2
    for p in paths:
        p.unlink()
    calls.clear()
    capsys.readouterr()
    fail_at = 3
    assert main(flags) == 2
    assert json.loads(capsys.readouterr().err.strip())["message"] == "table failed"
    for p in paths[:2]:
        header, rows = read_csv(p)
        assert header[0] == "tau" and len(rows) == 2
    assert sorted(tmp_path.iterdir()) == sorted(paths[:2])


THETA_SWEEP = ["energy", "--sweep", "theta", "--tau", "0.05", "--steps", "4",
               "--nx", "8", "--ny", "8"]
THETA_NAMES = ["sweep_a0.5_t0.3_sftr.csv", "sweep_a0.5_t0.4_sftr.csv", "sweep_a0.5_t0.5_sftr.csv"]


def test_sweeps_write_the_same_bytes_in_any_number_of_processes(tmp_path, monkeypatch, capsys):
    # every CSV and every line of a sweep is the same, in entry order, whether
    # its entries run one at a time or side by side in 2 or 4 processes
    argvs = [THETA_SWEEP + ["--out", "sweep.csv"],
             ["energy", "--sweep", "compare", "--steps", "6", *SMALL, "--out", "e.csv"],
             ["converge", "--sweep", "paper", "--scheme", "fbdf2", "--taus", "1/2,1/4",
              *SMALL, "--out", "c.csv"]]
    written = {}
    for count in (1, 2, 4):
        cpus(monkeypatch, count)
        (tmp_path / str(count)).mkdir()
        monkeypatch.chdir(tmp_path / str(count))
        for argv in argvs:
            assert main(argv) == 0
        written[count] = (capsys.readouterr().out,
                          {path.name: path.read_bytes() for path in Path().iterdir()})
    assert len(written[1][1]) == 3 + 8 + 6
    assert written[1] == written[2] == written[4]


class Hung(BaseException):
    """A sweep that did not end in time: not an Exception, so that ``main``
    does not report it as a run's failure."""


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose sweep has not ended within 60 s."""
    def expire(signum, frame):
        raise Hung("the sweep did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def wait_for(path):
    """Wait until ``path`` exists, at most 30 s."""
    end = time.monotonic() + 30.0
    while not path.exists():
        assert time.monotonic() < end, f"{path.name} never appeared"
        time.sleep(0.001)


def recorded_forks(monkeypatch):
    """The pids of the workers the sweeps fork from here on."""
    pids, real_fork = [], os.fork

    def recorded_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def assert_reaped(pids):
    assert pids and all(pid > 0 for pid in pids)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def theta_runs(monkeypatch, marks, waits, act=None):
    """Run THETA_SWEEP's entries in a fixed split over two CPUs.  Each run of
    theta leaves the file ``marks / str(theta)`` as it starts, then waits
    for that of ``waits[theta]``, if any, and calls ``act(theta)``, if
    given, before the real run.  Entry 1 is always this process's, so
    waits = {0.3: 0.4} makes the worker take entry 2, and adding 0.4: 0.5
    makes this process take entry 3."""
    import colecole.cli

    cpus(monkeypatch, 2)
    marks.mkdir()
    real = colecole.cli.run_decay_experiment

    def run(*args, **kwargs):
        theta = args[1]
        (marks / str(theta)).touch()
        if theta in waits:
            wait_for(marks / str(waits[theta]))
        if act is not None:
            act(theta)
        return real(*args, **kwargs)

    monkeypatch.setattr(colecole.cli, "run_decay_experiment", run)


def sweep_with_a_failure(monkeypatch, tmp_path, theta, exc, in_worker):
    """Make the run of ``theta`` in THETA_SWEEP raise ``exc``, on two CPUs,
    in the worker (``in_worker``) or in this process; the worker takes entry
    2, and this process entries 1 and 3 (see :func:`theta_runs`)."""
    here = os.getpid()

    def fail(run_theta):
        if run_theta == theta:
            assert (os.getpid() != here) == in_worker
            raise exc

    theta_runs(monkeypatch, tmp_path / "marks", {0.3: 0.4, 0.4: 0.5}, fail)


def assert_complete_csvs(out, count):
    """``out`` holds the complete CSVs of THETA_SWEEP's first ``count`` entries and no other."""
    assert sorted(p.name for p in out.iterdir()) == THETA_NAMES[:count]
    for name in THETA_NAMES[:count]:
        assert len(read_csv(out / name)[1]) == 5


@pytest.mark.parametrize("exc, code", [
    (ValueError("bad entry"), 2),
    (SolverError("conjugate gradients stalled", residual=1e-3, iterations=7), 3),
    (MemoryError("cannot hold the history"), 4),
])
def test_a_failure_in_a_worker_surfaces_at_its_entry(tmp_path, monkeypatch, capsys, deadline,
                                                     exc, code):
    # entry 2 runs in the worker: its exception, pickled back with its class
    # and message, gives the exit code it gives in one process, and leaves the
    # CSV of entry 1 alone
    pids = recorded_forks(monkeypatch)
    sweep_with_a_failure(monkeypatch, tmp_path, 0.4, exc, in_worker=True)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "out" / "sweep.csv")]) == code
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"status": "error", "command": "energy", "message": str(exc)}
    assert_complete_csvs(tmp_path / "out", 1)
    assert_reaped(pids)


def test_a_failure_in_this_process_leaves_the_workers_earlier_entries(tmp_path, monkeypatch,
                                                                      capsys, deadline):
    # entry 3 runs here, before the worker's entry 2 is done: entries 1 and 2 are complete
    pids = recorded_forks(monkeypatch)
    sweep_with_a_failure(monkeypatch, tmp_path, 0.5, ValueError("bad entry"), in_worker=False)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "out" / "sweep.csv")]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["message"] == "bad entry"
    assert_complete_csvs(tmp_path / "out", 2)
    assert_reaped(pids)


def test_a_worker_that_ends_without_its_result_exits_4(tmp_path, monkeypatch, capsys, deadline):
    # a worker killed part-way (as by the out-of-memory killer) is named, with
    # the entry it held and its wait status, on the JSON channel; the entries
    # before it are complete
    here, pids = os.getpid(), recorded_forks(monkeypatch)

    def killed(theta):
        if theta == 0.4:
            assert os.getpid() != here
            os.kill(os.getpid(), signal.SIGKILL)

    theta_runs(monkeypatch, tmp_path / "marks", {0.3: 0.4}, killed)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "out" / "sweep.csv")]) == 4
    (line,) = capsys.readouterr().err.strip().splitlines()
    message = json.loads(line)["message"]
    assert "entry 2 (0.5, 0.4, 'sftr')" in message
    assert f"wait status {int(signal.SIGKILL)}" in message
    assert_complete_csvs(tmp_path / "out", 1)
    assert_reaped(pids)


def test_a_free_worker_takes_every_entry_this_process_is_too_busy_for(tmp_path, monkeypatch,
                                                                      capsys, deadline):
    # this process's first entry lasts until the worker has taken every other
    # one: each result comes back from the process that took it, in entry order
    import colecole.sweep

    here, marks = os.getpid(), tmp_path / "marks"
    marks.mkdir()

    def compute(entry):
        (marks / str(entry)).touch()
        if entry == 0:
            for later in range(1, 6):
                wait_for(marks / str(later))
        return entry, os.getpid()

    results = list(colecole.sweep.in_order(compute, range(6), 2))
    (worker,) = {pid for _, pid in results[1:]}
    assert worker != here and results == [(0, here)] + [(e, worker) for e in range(1, 6)]
    # the same split through the CLI writes what one process writes
    theta_runs(monkeypatch, tmp_path / "sweep_marks", {0.3: 0.4, 0.4: 0.5})
    (tmp_path / "two").mkdir()
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "two" / "sweep.csv")]) == 0
    one_cpu(monkeypatch)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "one" / "sweep.csv")]) == 0
    assert capsys.readouterr().err == ""
    for name in THETA_NAMES:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_solver_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(SolverError("stalled", residual=1e-3, iterations=7)))
    assert (type(exc), str(exc), exc.residual, exc.iterations) == (SolverError, "stalled", 1e-3, 7)


def test_workers_are_reaped_on_every_exit(tmp_path, monkeypatch, capsys, deadline):
    # after a sweep that completes, and after one whose CSV write fails in
    # this process while the workers still run, no worker process is left
    import colecole.cli

    cpus(monkeypatch, 4)
    pids, real_write = recorded_forks(monkeypatch), colecole.cli._write_csv

    def failing_write(path, *args):
        if path.name == "e_a0.5_t0.5_sftr.csv":
            raise OSError("disk full")
        real_write(path, *args)

    argv = ["energy", "--sweep", "compare", "--steps", "4", *SMALL,
            "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 0
    monkeypatch.setattr(colecole.cli, "_write_csv", failing_write)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["message"] == "disk full"
    assert len(pids) == 6
    assert_reaped(pids)


def test_one_entry_one_cpu_or_memory_for_one_run_never_forks(tmp_path, monkeypatch):
    # a single run, a process allowed one CPU, and a sweep whose largest run
    # fits in memory once but not twice all run in this process
    import colecole.stepper

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(monkeypatch, 2)
    assert main(["energy", "--steps", "3", *SMALL, "--out", str(tmp_path / "e.csv")]) == 0
    assert main(["converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "1/2,1/4", *SMALL,
                 "--out", str(tmp_path / "c.csv")]) == 0
    one_cpu(monkeypatch)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "a.csv")]) == 0
    cpus(monkeypatch, 2)
    need = colecole.stepper.memory_estimate(GridSpec(8, 8), MaterialParams(alpha=0.5),
                                            SchemeConfig(0.3, 0.05, 4))
    monkeypatch.setattr(colecole.stepper, "physical_memory_bytes", lambda: 2 * need - 1)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "b.csv")]) == 0
    assert len(list(tmp_path.iterdir())) == 2 + 3 + 3


def test_a_sweep_that_cannot_fork_runs_every_entry_here(tmp_path, monkeypatch):
    def failed_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus(monkeypatch, 2)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "a" / "s.csv")]) == 0
    monkeypatch.setattr(os, "fork", failed_fork)
    assert main(THETA_SWEEP + ["--out", str(tmp_path / "b" / "s.csv")]) == 0
    for a in (tmp_path / "a").iterdir():
        assert a.read_bytes() == (tmp_path / "b" / a.name).read_bytes()
    assert len(list((tmp_path / "b").iterdir())) == 3


def test_unwritable_out_on_json_channel(tmp_path, capsys):
    # an existing directory where a CSV should go is bad input, not a crash
    out = tmp_path / "w.csv"
    out.mkdir()
    assert main(["weights", "--alpha", "0.5", "--theta", "0.25", "--n", "4",
                 "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["status"] == "error" and str(out) in err["message"]
    # in a sweep an unwritable second entry is refused before the first runs
    base = tmp_path / "sweep.csv"
    blocked = tmp_path / "sweep_a0.5_t0.4_sftr.csv"
    blocked.mkdir()
    assert main(["energy", "--sweep", "theta", "--tau", "0.05", "--steps", "4",
                 "--nx", "8", "--ny", "8", "--out", str(base)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["status"] == "error" and str(blocked) in err["message"]
    assert sorted(tmp_path.iterdir()) == [blocked, out]


@pytest.mark.parametrize("argv, blocked, reason", [
    pytest.param(["energy", "--steps", "2", "--out", "{d}/e.csv"], "e.csv", "Is a directory",
                 id="energy"),
    pytest.param(["energy", "--sweep", "alpha", "--steps", "2", "--out", "{d}/e.csv"],
                 "e_a0.9_t0.5_sftr.csv", "Is a directory", id="energy-sweep-entry"),
    pytest.param(["energy", "--steps", "2", "--out", "{d}/e.csv", "--dump-fields", "{d}/snap"],
                 "snap_h.csv", "Is a directory", id="energy-dump-fields"),
    pytest.param(["energy", "--steps", "2", "--out", "{d}/f/sub/e.csv"], "f", "Not a directory",
                 id="energy-parent-is-a-file"),
    pytest.param(["converge", "--alpha", "0.5", "--theta", "0.5", "--out", "{d}/c.csv"],
                 "c.csv", "Is a directory", id="converge"),
    pytest.param(["converge", "--sweep", "paper", "--out", "{d}/c.csv"],
                 "c_a0.9_t0.45_sftr.csv", "Is a directory", id="converge-sweep-entry"),
    pytest.param(["converge", "--sweep", "paper", "--out", "{d}/f/c.csv"], "f", "Not a directory",
                 id="converge-parent-is-a-file"),
    pytest.param(["weights", "--alpha", "0.5", "--theta", "0.5", "--out", "{d}/w.csv"],
                 "w.csv", "Is a directory", id="weights"),
    pytest.param(["theta-scan", "--out", "{d}/t.csv"], "t.csv", "Is a directory",
                 id="theta-scan"),
])
def test_unwritable_output_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch, argv, blocked, reason
):
    # every output path, each sweep entry's and each snapshot's included, is
    # checked before the first run; a directory in the way, or a file where a
    # parent directory should be, exits 2 with nothing computed or written
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started before its output paths were checked")

    for name in ("run_decay_experiment", "convergence_table", "sftr_weights",
                 "min_theta_gap_grid"):
        monkeypatch.setattr(f"colecole.cli.{name}", forbidden)
    (tmp_path / "f").write_text("a file\n")
    if not (tmp_path / blocked).exists():
        (tmp_path / blocked).mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["status"] == "error" and reason in err["message"]
    assert str(tmp_path / blocked) in err["message"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out, locked", [("locked/new/e.csv", "locked"), ("e.csv", "e.csv")],
                         ids=["parent", "existing-file"])
def test_unwritable_path_is_refused_before_any_run(tmp_path, capsys, monkeypatch, out, locked):
    # os.access is faked for the locked path: a superuser writes through any mode bits
    import colecole.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("a run started before its output paths were checked")

    monkeypatch.setattr(colecole.cli, "run_decay_experiment", forbidden)
    locked = tmp_path / locked
    if locked.suffix:
        locked.write_text("kept\n")
    else:
        locked.mkdir()
    before = sorted(tmp_path.rglob("*"))
    real_access = colecole.cli.os.access
    monkeypatch.setattr(colecole.cli.os, "access",
                        lambda path, mode: Path(path) != locked and real_access(path, mode))
    assert main(["energy", "--steps", "2", "--out", str(tmp_path / out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "Permission denied" in err["message"] and str(locked) in err["message"]
    assert sorted(tmp_path.rglob("*")) == before
    assert not locked.is_file() or locked.read_text() == "kept\n"


@pytest.mark.parametrize("out, prefix", [("{d}/d_ex.csv", "{d}/d"), ("d_ex.csv", "{d}/sub/../d")],
                         ids=["same-text", "same-resolved"])
def test_a_path_given_for_two_outputs_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch, out, prefix
):
    # --out on the ex snapshot of --dump-fields: the trace would replace the
    # snapshot, so the command exits 2 with nothing computed or written
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started before its output paths were checked")

    monkeypatch.setattr("colecole.cli.run_decay_experiment", forbidden)
    monkeypatch.chdir(tmp_path)
    argv = ["energy", "--nx", "4", "--ny", "4", "--steps", "3", "--out", out.format(d=tmp_path),
            "--dump-fields", prefix.format(d=tmp_path)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["status"] == "error" and "two outputs" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_weights_single_kind_dump(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weights", "--alpha", "0.5", "--theta", "0.25", "--n", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[2][2]) == pytest.approx(-0.125, rel=1e-15)  # varpi_2
    out = tmp_path / "fb.csv"
    assert main(["weights", "--alpha", "0.5", "--n", "2", "--kind", "fbdf2",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "value"]
    assert float(rows[0][1]) == pytest.approx(1.5**0.5, rel=1e-15)
    # the SFTR table needs the shift parameter
    assert main(["weights", "--alpha", "0.5", "--n", "2", "--out", str(tmp_path / "x.csv")]) == 2
    # the kinds are the table and the FBDF2 column
    with pytest.raises(SystemExit) as exit_:
        main(["weights", "--alpha", "0.5", "--theta", "0.25", "--kind", "omega",
              "--out", str(tmp_path / "x.csv")])
    assert exit_.value.code == 2 and not (tmp_path / "x.csv").exists()
    # the omega column is the SFTR weights, each written by the formatter
    out = tmp_path / "omega.csv"
    assert main(["weights", "--alpha", "0.7", "--theta", "0.4", "--n", "16",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    omega = sftr_weights(0.7, 0.4, 16)
    assert [row[:2] for row in rows] == [[str(k), _fmt(w)] for k, w in enumerate(omega)]


def test_weights_check_column_needs_no_quadratic_convolution(tmp_path, monkeypatch):
    # conv_check is an FFT product, O(n log n), not the quadratic np.convolve
    def quadratic(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", quadratic)
    assert main(["weights", "--alpha", "0.5", "--theta", "0.25", "--n", "64",
                 "--out", str(tmp_path / "w.csv")]) == 0


@pytest.mark.parametrize("n", [0, 64])
@pytest.mark.parametrize("alpha, theta", [(0.5, 0.5), (0.9, 0.45), (0.1, 0.05), (0.99, 0.2)])
def test_weights_check_column_is_the_direct_product(tmp_path, alpha, theta, n):
    # conv_check holds the coefficients of omega(z) varpi(z) - (1 - z); np.convolve is the oracle
    out = tmp_path / "w.csv"
    assert main(["weights", "--alpha", str(alpha), "--theta", str(theta), "--n", str(n),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    direct = np.convolve(sftr_weights(alpha, theta, n), varpi_weights(alpha, theta, n))[: n + 1]
    direct[0] -= 1.0
    direct[1:2] += 1.0
    check = np.array([float(row[4]) for row in rows])
    assert len(check) == n + 1 and np.max(np.abs(check - direct)) <= 1e-15


def test_energy_dump_fields(tmp_path):
    out = tmp_path / "e.csv"
    prefix = tmp_path / "snap"
    code = main([
        "energy", "--alpha", "0.5", "--theta", "0.5", "--tau", "0.05", "--steps", "2",
        "--nx", "6", "--ny", "6", "--out", str(out), "--dump-fields", str(prefix),
    ])
    assert code == 0
    for tag, shape in (("ex", (6, 7)), ("ey", (7, 6)), ("h", (6, 6)), ("px", (6, 7))):
        header, rows = read_csv(tmp_path / f"snap_{tag}.csv")
        assert header == ["i", "j", "value"]
        assert len(rows) == shape[0] * shape[1]
    # boundary dof of the electric field is pinned at zero
    _, rows = read_csv(tmp_path / "snap_ex.csv")
    first = rows[0]
    assert first[0] == "0" and first[1] == "0" and float(first[2]) == 0.0
    # the snapshot is the run's final state, transformed back to the dofs
    state, _, _ = run_decay_experiment(0.5, 0.5, GridSpec(6, 6), 0.05, 2)
    e, p, h = state.fields()
    for tag, arr in (("ex", e.ex), ("ey", e.ey), ("h", h), ("px", p.ex), ("py", p.ey)):
        _, rows = read_csv(tmp_path / f"snap_{tag}.csv")
        assert [float(r[2]) for r in rows] == arr.ravel().tolist()


def test_energy_sweep_rejects_dump_fields_before_any_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("colecole.cli.run_decay_experiment", lambda *a, **k: calls.append(a))
    code = main(["energy", "--sweep", "alpha", "--steps", "2", "--nx", "6", "--ny", "6",
                 "--out", str(tmp_path / "e.csv"), "--dump-fields", str(tmp_path / "P")])
    assert code == 2
    assert "--dump-fields" in json.loads(capsys.readouterr().err.strip())["message"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


SMALL = ["--nx", "6", "--ny", "6"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["energy", "--sweep", "theta", "--alpha", "0.9", "--theta", "0.1", "--scheme", "fbdf2",
          "--steps", "2", *SMALL], "--alpha"),
        (["energy", "--sweep", "alpha", "--theta", "0.4", "--steps", "2", *SMALL], "--theta"),
        (["energy", "--sweep", "compare", "--scheme", "sftr", "--steps", "2", *SMALL], "--scheme"),
        (["converge", "--sweep", "paper", "--alpha", "0.3", "--theta", "0.2",
          "--taus", "1/2,1/4", *SMALL], "--alpha"),
        (["converge", "--sweep", "paper", "--theta", "0.2", "--taus", "1/2,1/4", *SMALL],
         "--theta"),
        (["weights", "--alpha", "0.5", "--kind", "fbdf2", "--theta", "0.9", "--n", "4"],
         "--theta"),
    ],
)
def test_flags_a_sweep_or_kind_ignores_are_refused_before_any_run(
    tmp_path, capsys, monkeypatch, argv, flag
):
    calls = []
    for name in ("run_decay_experiment", "convergence_table", "fbdf2_weights"):
        monkeypatch.setattr(f"colecole.cli.{name}", lambda *a, **k: calls.append(a))
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in json.loads(err[0])["message"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_energy_single_run_defaults(tmp_path, capsys):
    assert main(["energy", "--tau", "0.05", "--steps", "2", *SMALL,
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert "energy sftr alpha=0.5 theta=0.5 " in capsys.readouterr().out


def test_converge_first_order_band_small_alpha(tmp_path):
    # floor-safe first-order configuration reaches its band on a modest grid
    out = tmp_path / "c48.csv"
    code = main([
        "converge", "--alpha", "0.1", "--theta", "0.05",
        "--taus", "1/5,1/10,1/20,1/40", "--nx", "48", "--ny", "48", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert 0.8 <= float(rows[-1][2]) <= 1.2
    assert 0.8 <= float(rows[-1][4]) <= 1.2


def test_theta_scan(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["theta-scan", "--x-points", "2", "--alpha-points", "2",
                 "--theta-samples", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "alpha", "min_theta_gap"]
    assert len(rows) == 4
    assert all(float(r[2]) > 0.0 for r in rows)


def test_theta_scan_default_resolution_row(tmp_path):
    out = tmp_path / "scan_big.csv"
    assert main(["theta-scan", "--x-points", "20", "--alpha-points", "19",
                 "--theta-samples", "20", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    gaps = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert all(v > 0.0 for v in gaps.values())
    # the (x=1, alpha=1/2) cell is bounded by its theta = alpha/2 sample
    assert gaps[(1.0, 0.5)] <= 1.09375 + 1e-12


def test_console_entry_point():
    import os, subprocess, sys

    import colecole

    # the child imports the same colecole as this test, however it was found
    src = os.path.dirname(os.path.dirname(os.path.abspath(colecole.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "colecole.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "theta-scan" in proc.stdout


def test_imports_the_colecole_first_on_pythonpath():
    # the suite tests the package that PYTHONPATH names first, the tier-1
    # command's src or another tree's, and the installed one when it names none
    import os

    import colecole

    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry, "colecole")
        if (package / "__init__.py").is_file():
            assert Path(colecole.__file__).parent.resolve() == package.resolve()
            break


# CLI runs with the files each writes and their lines, header included: a
# converge run, the FBDF2 kernel on the paper's (alpha, theta) grid, runs that
# fold (16x16, 128x128, and 48x32 with its field snapshots, whose reduced
# state is mapped back to the dofs), the fold boundary (53 steps fill the
# 53-row window, 54 fold once) and a theta scan.
IDENTICAL_RUNS = {
    "converge": (
        "converge --alpha 0.5 --theta 0.5 --nx 8 --ny 8 --taus 1/5,1/10 --out c.csv",
        {"c.csv": 3},
    ),
    "fbdf2-paper-sweep": (
        "converge --sweep paper --scheme fbdf2 --nx 8 --ny 8 --taus 1/5,1/10 --out c.csv",
        {f"c_a{pair}_fbdf2.csv": 3 for pair in (
            "0.1_t0.05", "0.1_t0.5", "0.5_t0.25", "0.5_t0.5", "0.9_t0.45", "0.9_t0.5"
        )},
    ),
    "fold-16x16": (
        "energy --alpha 0.5 --theta 0.5 --nx 16 --ny 16 --steps 120 --out e.csv",
        {"e.csv": 122},
    ),
    "window-53": (
        "energy --alpha 0.5 --theta 0.5 --nx 8 --ny 8 --steps 53 --out e.csv",
        {"e.csv": 55},
    ),
    "fold-once-54": (
        "energy --alpha 0.5 --theta 0.5 --nx 8 --ny 8 --steps 54 --out e.csv",
        {"e.csv": 56},
    ),
    "fold-128x128": ("energy --nx 128 --ny 128 --steps 60 --out e.csv", {"e.csv": 62}),
    "dump-48x32": (
        "energy --nx 48 --ny 32 --steps 120 --out e.csv --dump-fields d",
        # i,j,value rows of ex (48x33), ey (49x32), h (48x32), px and py
        {"e.csv": 122, "d_ex.csv": 1585, "d_ey.csv": 1569, "d_h.csv": 1537,
         "d_px.csv": 1585, "d_py.csv": 1569},
    ),
    "theta-scan": (
        "theta-scan --x-points 4 --alpha-points 3 --theta-samples 5 --out t.csv",
        {"t.csv": 13},
    ),
}


@pytest.mark.parametrize("case", IDENTICAL_RUNS)
def test_identical_flags_write_identical_files(tmp_path, monkeypatch, case):
    # each run twice, into two directories: it exits 0 and writes exactly its
    # files with their line counts, and the same bytes both times
    argv, lines = IDENTICAL_RUNS[case]
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main(argv.split()) == 0
        files = {path.name: path.read_bytes() for path in Path().iterdir()}
        assert {name: data.count(b"\n") for name, data in files.items()} == lines
        written.append(files)
    assert written[0] == written[1]


# The package root: every name README or the CLI uses, and the types that
# those functions return or raise.
EXPORTS = [
    "ConvergenceRow", "CurlCurlBasis", "DecayReport", "GridSpec", "ManufacturedCase",
    "MaterialParams", "Quadrature", "SampledCase", "SchemeConfig", "SimState",
    "SolverError", "Sources", "TRACE", "VecField", "convergence_table",
    "cumulative_weights", "decay_initial_data", "decay_report", "discrete_energy",
    "dissipation_residual", "energy_tolerance", "error_norms", "fbdf2_weights",
    "init_state", "min_theta_gap_grid", "norm_sq", "run", "run_case",
    "run_decay_experiment", "sftr_weights", "step", "varpi_weights",
]


def test_exported_names_resolve():
    import ast, re

    import colecole
    import colecole.stepper
    import colecole.weights

    assert sorted(colecole.__all__) == EXPORTS
    for name in colecole.__all__:
        assert hasattr(colecole, name), name
    # every name README's Python blocks import from the package root is exported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "colecole"
        for alias in node.names
    }
    assert imported and imported <= set(colecole.__all__), imported - set(colecole.__all__)
    # internals are imported from their modules, where the benchmark's spans wrap them
    for module, names in (
        (colecole.stepper, ("Spectrum", "solve_spd", "frac_deriv_current")),
        (colecole.weights, ("binomial_series", "exponential_tail", "shift_combine")),
    ):
        for name in names:
            assert hasattr(module, name) and not hasattr(colecole, name), name
    # moved to the test oracles
    for name in ("SymbolKind", "symbol_residual", "theta_gap"):
        assert not hasattr(colecole.weights, name) and not hasattr(colecole, name), name
    assert not hasattr(colecole.VecField, "zeros")
    # deleted: sources are time factors times coefficient profiles (Sources)
    assert "SourceSet" not in colecole.__all__ and not hasattr(colecole, "SourceSet")
    # deleted: weight families are plain read-only arrays, the energy weights
    # live on the state
    for name in ("WeightSequence", "WeightKind"):
        assert name not in colecole.__all__ and not hasattr(colecole, name)
        assert not hasattr(colecole.weights, name)
