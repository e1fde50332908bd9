"""Self-test of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench

Smoke runs of about ten steps per workload go through the same code as a
benchmark run, with the reference comparison replaced by values taken from
the smoke run itself.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

RTOL = workloads.load_references()["rtol"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name, tmp_path):
    untraced = run.measure(name, 0, 0.0, False, None, RTOL, tmp_path / "e2e", smoke=True)
    traced = run.measure(name, 0, 0.0, True, None, RTOL, tmp_path / "layers", smoke=True)
    assert untraced["correct"] and traced["correct"]
    assert set(untraced["metrics"]) == set(run.END_TO_END_UNITS)
    assert set(traced["metrics"]) == set(spans.UNITS) | set(run.EXTRA_LAYER_UNITS)
    for result in (untraced, traced):
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert untraced["metrics"]["setup_s"]["value"] > 0.0
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    steps = layers["stepper.step.calls"]
    assert steps > 0
    # A whole number of history sums and solves per step (2 and 1 today);
    # 0 once a later version drops the wrapped function.
    assert layers["stepper.history.calls"] % steps == 0
    assert layers["stepper.solve.calls"] % steps == 0
    assert (layers["manufactured.sample.calls"] > 0) == (name == "converge_fbdf2")
    assert (layers["energy.calls"] > 0) == workloads.is_decay(name)


def _traced_smoke_spans(name: str, sample_dir: Path) -> list[list]:
    sample = run.run_sample(name, 0, sample_dir, True, None, RTOL, smoke=True)
    assert sample["problems"] == []
    recorded, _ = spans.load(sample["spans"])
    return recorded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_the_root_span(name, tmp_path):
    recorded = _traced_smoke_spans(name, tmp_path / "s")
    durations = [s[3] - s[2] for s in recorded]
    own = spans.self_times(recorded)
    assert all(-1e-9 <= o <= d + 1e-12 for o, d in zip(own, durations))
    (root,) = [s for s in recorded if s[1] == -1]
    assert root[0] == "cli.main"
    total = sum(spans.layer_split(recorded).values())
    assert total == pytest.approx(root[3] - root[2], rel=0.02)


def test_span_file_round_trips(tmp_path):
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    traced_inner = tracer.wrap("inner", inner)
    assert outer(1) == 4
    tracer.missing.append("gone.fn")
    tracer.dump(tmp_path / "spans.json")
    recorded, missing = spans.load(tmp_path / "spans.json")
    assert recorded == tracer.spans
    assert missing == ["gone.fn"]
    assert [s[0] for s in recorded] == ["outer", "inner"]
    assert recorded[1][1] == 0


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    (tmp_path / "fake_layer.py").write_text("def present(x):\n    return x\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(spans, "WRAPPED", {"fake_layer": ("present", "frac_deriv_current")})
    tracer = spans.Tracer()
    tracer.install()
    import fake_layer

    assert fake_layer.present(3) == 3
    assert tracer.missing == ["fake_layer.frac_deriv_current"]
    metrics = spans.layer_metrics(tracer.spans, llc_bytes=None)
    assert set(metrics) == set(spans.UNITS)
    assert metrics["stepper.history.calls"] == 0


def test_tampered_reference_fails(tmp_path):
    name = "decay_long"
    first = run.run_sample(name, 0, tmp_path / "a", False, None, RTOL, smoke=True)
    assert first["problems"] == []
    exact = first["values"]
    again = run.run_sample(name, 0, tmp_path / "b", False, exact, RTOL, smoke=True)
    assert again["problems"] == []
    tampered = {k: v * (1.0 + 100 * RTOL) for k, v in exact.items()}
    bad = run.run_sample(name, 0, tmp_path / "c", False, tampered, RTOL, smoke=True)
    assert any("differs from reference" in p for p in bad["problems"])


def test_non_finite_csv_value_fails(tmp_path):
    steps = workloads.expected_files("decay_long", smoke=True)["energy.csv"]
    rows = [f"{n},0.1,1.0,0.0,0.0" for n in range(steps)]
    rows[-1] = f"{steps - 1},0.1,nan,0.0,0.0"
    (tmp_path / "energy.csv").write_text("n,t,energy,dissipation,violation\n" + "\n".join(rows) + "\n")
    problems = workloads.check_outputs("decay_long", tmp_path, None, RTOL, smoke=True)
    assert any("not a finite number" in p for p in problems)


def test_references_cover_every_seed():
    refs = workloads.load_references()
    for name in workloads.WORKLOADS:
        for seed in range(len(workloads.PAIRS)):
            assert workloads.input_key(name, seed) in refs[name]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "decay_long", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_emitted_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {**spans.UNITS,
                                                                  **run.EXTRA_LAYER_UNITS}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
