"""The benchmark's full-size inputs, run in-process, against its recorded
values: every ``decay_long`` and ``decay_fine`` (alpha, theta) pair and the
``converge_fbdf2`` sweep, each checked by the benchmark's own
``workloads.check_outputs`` at the recorded ``rtol``.  A change that moves a
final value past its tolerance fails here before the benchmark calls the
run incorrect.  ``perfbench/`` is read, never written.
"""

import importlib.util
from pathlib import Path

import pytest

from colecole.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCES = workloads.load_references()

# (workload, seed): the seeds 0..5 give the six decay pairs; the sweep is one input
INPUTS = [
    (name, seed)
    for name in sorted(workloads.WORKLOADS)
    for seed in (range(len(workloads.PAIRS)) if workloads.is_decay(name) else (0,))
]


@pytest.mark.parametrize(
    "name, seed", INPUTS, ids=[f"{n}-{workloads.input_key(n, s)}" for n, s in INPUTS]
)
def test_full_size_run_matches_its_reference(name, seed, tmp_path, capsys):
    assert main(workloads.cli_args(name, seed, tmp_path)) == 0, capsys.readouterr().err
    reference = REFERENCES[name][workloads.input_key(name, seed)]
    assert workloads.check_outputs(name, tmp_path, reference, REFERENCES["rtol"]) == []
