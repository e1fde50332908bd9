"""Command-line drivers: CSV contracts, exit codes, determinism, sweeps;
the package's exported names."""

import json

import numpy as np
import pytest

from colecole.cli import main
from colecole.stepper import SolverError


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
    # non-finite values are rejected before any work starts and no CSV is written
    for flags in (["energy", "--tau", "nan"], ["energy", "--tau", "inf"],
                  ["converge", "--alpha", "0.5", "--theta", "0.5", "--taus", "nan"]):
        out = tmp_path / "z.csv"
        assert main(flags + ["--nx", "8", "--ny", "8", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["status"] == "error" and "finite" in err["message"]
        assert not out.exists()


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


def test_energy_sweep_files_and_thread_cap(tmp_path):
    base = tmp_path / "sweep.csv"
    code = main(["energy", "--sweep", "theta", "--tau", "0.05", "--steps", "4",
                 "--nx", "8", "--ny", "8", "--out", str(base)])
    assert code == 0
    singles = sorted(p.name for p in tmp_path.glob("sweep_*.csv"))
    assert singles == [
        "sweep_a0.5_t0.3_sftr.csv",
        "sweep_a0.5_t0.4_sftr.csv",
        "sweep_a0.5_t0.5_sftr.csv",
    ]


def test_weights_single_kind_dump(tmp_path):
    out = tmp_path / "varpi.csv"
    assert main(["weights", "--alpha", "0.5", "--theta", "0.25", "--n", "4",
                 "--kind", "varpi", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "value"]
    assert float(rows[2][1]) == pytest.approx(-0.125, rel=1e-15)
    out = tmp_path / "fb.csv"
    assert main(["weights", "--alpha", "0.5", "--n", "2", "--kind", "fbdf2",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(1.5**0.5, rel=1e-15)
    # omega/varpi/a dumps need the shift parameter
    assert main(["weights", "--alpha", "0.5", "--n", "2", "--kind", "omega",
                 "--out", str(tmp_path / "x.csv")]) == 2


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


def test_energy_sweep_rejects_dump_fields_before_any_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("colecole.cli.run_decay_experiment", lambda *a, **k: calls.append(a))
    code = main(["energy", "--sweep", "alpha", "--steps", "2", "--nx", "6", "--ny", "6",
                 "--out", str(tmp_path / "e.csv"), "--dump-fields", str(tmp_path / "P")])
    assert code == 2
    assert "--dump-fields" in json.loads(capsys.readouterr().err.strip())["message"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


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


def test_exported_names_resolve():
    import colecole

    for name in colecole.__all__:
        assert hasattr(colecole, name), name
    # deleted: sources are a callable of t that returns dof fields
    assert "SourceSet" not in colecole.__all__ and not hasattr(colecole, "SourceSet")
