"""The benchmark's workloads: CLI arguments made from a seed, and the checks
that every output of a run is correct.

Each workload stresses one layer and keeps another small, so that a change
aimed at one layer moves one workload and leaves the other alone:

* ``decay_long``: a long horizon on a small grid.  The Caputo history sum
  (``frac_deriv_current``) costs O(n * dofs) per step and dominates; the
  E-solve is small.
* ``decay_fine``: a fine grid and a short horizon.  The CG E-solve and the
  mesh curls inside it dominate; the history is short.
* ``converge_fbdf2``: the manufactured-solution sweep with the FBDF2 kernel,
  24 short forced runs that each rebuild their weights.  The only workload
  that runs the ``manufactured`` layer and the FBDF2 history branch.

The seed picks (alpha, theta) for the two decay workloads from ``PAIRS``.
All pairs satisfy theta in [alpha/2, 1/2], where the CLI enforces monotone
energy decay, and their mean CG iterations on ``decay_fine`` lie within 2 %
of each other, so the seed changes the numbers but hardly the cost.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

PAIRS = ((0.5, 0.5), (0.6, 0.5), (0.7, 0.5), (0.8, 0.5), (0.9, 0.5), (0.4, 0.45))

# (alpha, theta) of ``converge --sweep paper`` (colecole.cli.PAPER_CONVERGENCE_GRID);
# each pair writes its own CSV.
PAPER_SWEEP = ((0.1, 0.05), (0.1, 0.5), (0.5, 0.25), (0.5, 0.5), (0.9, 0.45), (0.9, 0.5))

# name -> (fixed CLI arguments, full-size arguments, smoke-test arguments)
WORKLOADS = {
    "decay_long": (
        ["energy", "--scheme", "sftr", "--tau", "0.002"],
        ["--nx", "64", "--ny", "64", "--steps", "400"],
        ["--nx", "16", "--ny", "16", "--steps", "10"],
    ),
    "decay_fine": (
        ["energy", "--scheme", "sftr", "--tau", "0.01"],
        ["--nx", "256", "--ny", "256", "--steps", "20"],
        ["--nx", "32", "--ny", "32", "--steps", "10"],
    ),
    "converge_fbdf2": (
        ["converge", "--sweep", "paper", "--scheme", "fbdf2"],
        ["--nx", "48", "--ny", "48"],
        ["--nx", "16", "--ny", "16", "--taus", "1/5,1/10"],
    ),
}

REFERENCES = Path(__file__).with_name("references.json")


def is_decay(name: str) -> bool:
    return WORKLOADS[name][0][0] == "energy"


def pair_for(seed: int) -> tuple[float, float]:
    return PAIRS[seed % len(PAIRS)]


def input_key(name: str, seed: int) -> str:
    """Reference key of the inputs a seed gives a workload."""
    if not is_decay(name):
        return "paper"
    alpha, theta = pair_for(seed)
    return f"a{alpha:g}_t{theta:g}"


def cli_args(name: str, seed: int, out_dir: Path, smoke: bool = False) -> list[str]:
    fixed, full, small = WORKLOADS[name]
    args = fixed + (small if smoke else full)
    if is_decay(name):
        alpha, theta = pair_for(seed)
        return args + ["--alpha", f"{alpha:g}", "--theta", f"{theta:g}",
                       "--out", str(out_dir / "energy.csv")]
    return args + ["--out", str(out_dir / "converge.csv")]


def _flag(args: list[str], flag: str, default: str) -> str:
    return args[args.index(flag) + 1] if flag in args else default


def expected_files(name: str, smoke: bool = False) -> dict[str, int]:
    """CSV file name -> number of data rows the run must write."""
    fixed, full, small = WORKLOADS[name]
    args = fixed + (small if smoke else full)
    if is_decay(name):
        return {"energy.csv": int(_flag(args, "--steps", "100")) + 1}
    rows = len(_flag(args, "--taus", "1/5,1/10,1/20,1/40").split(","))
    return {f"converge_a{a:g}_t{t:g}_fbdf2.csv": rows for a, t in PAPER_SWEEP}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def final_values(name: str, out_dir: Path) -> dict[str, float]:
    """Values compared with the references: the last row's energy of a decay
    run; the finest-step E, H and P errors of each convergence table."""
    if is_decay(name):
        return {"energy": float(read_csv(out_dir / "energy.csv")[-1]["energy"])}
    values = {}
    for fname in sorted(expected_files(name)):
        last = read_csv(out_dir / fname)[-1]
        pair = fname[len("converge_"):-len("_fbdf2.csv")]
        for col in ("errE", "errH", "errP"):
            values[f"{pair}.{col}"] = float(last[col])
    return values


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_outputs(
    name: str, out_dir: Path, reference: dict[str, float] | None, rtol: float, smoke: bool = False
) -> list[str]:
    """Problems with a finished run's CSVs; empty when they are correct.

    Every cell must parse as a finite number (blank rate cells of a first
    convergence row excepted), each file must hold the expected rows, and,
    given a reference, each final value must match it within ``rtol``.
    """
    problems = []
    for fname, n_rows in expected_files(name, smoke).items():
        path = out_dir / fname
        if not path.is_file():
            problems.append(f"{fname}: missing")
            continue
        rows = read_csv(path)
        if len(rows) != n_rows:
            problems.append(f"{fname}: {len(rows)} rows, expected {n_rows}")
        for i, row in enumerate(rows):
            for col, cell in row.items():
                if cell == "" and col.startswith("rate") and i == 0:
                    continue
                try:
                    ok = math.isfinite(float(cell))
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    problems.append(f"{fname}: row {i} {col}={cell!r} is not a finite number")
    if problems or reference is None:
        return problems
    got = final_values(name, out_dir)
    for key, want in reference.items():
        have = got.get(key)
        if have is None or abs(have - want) > rtol * abs(want):
            problems.append(f"{key}: {have!r} differs from reference {want!r} (rtol {rtol:g})")
    return problems
