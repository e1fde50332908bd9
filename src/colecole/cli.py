"""Experiment command line: reproducible CSV-emitting drivers.

Subcommands
-----------
weights     dump omega / varpi / cumulative weight columns with the
            convolution-identity defect per index
converge    temporal convergence study of the manufactured case
energy      source-free energy-decay runs with per-step dissipation records
theta-scan  positivity scan of the companion-sign gap function

Every run is deterministic: identical flags produce byte-identical CSVs
(fixed 17-significant-digit formatting, fixed summation order).  Each entry of
a sweep is written and its state released before the next entry starts, so a
failure in entry k leaves the complete CSVs of entries 1..k-1.  Exit codes:

0  every hard assertion of the subcommand held
1  a hard assertion failed (JSON failure records on stderr)
2  invalid input or an unwritable output path (JSON error on stderr)
3  the conjugate-gradient E-solve did not converge, or its right-hand side
   or residual was not finite (JSON error on stderr)
4  out of memory, or a run that would not fit in physical memory, refused
   before it allocates (JSON error on stderr)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .energy import TRACE, run_decay_experiment
from .manufactured import ConvergenceRow, ManufacturedCase, convergence_table
from .mesh import GridSpec
from .stepper import Quadrature, SolverError
from .weights import (
    SchemeParams,
    cumulative_weights,
    fbdf2_weights,
    min_theta_gap_grid,
    sftr_weights,
    varpi_weights,
)

# (alpha, theta) grid of the published convergence study
PAPER_CONVERGENCE_GRID = (
    (0.1, 0.05),
    (0.1, 0.5),
    (0.5, 0.25),
    (0.5, 0.5),
    (0.9, 0.45),
    (0.9, 0.5),
)

ENERGY_SWEEPS = {
    "theta": tuple((0.5, th, "sftr") for th in (0.3, 0.4, 0.5)),
    "alpha": tuple((al, 0.5, "sftr") for al in (0.1, 0.3, 0.5, 0.7, 0.9)),
    "compare": tuple(
        (al, 0.5, scheme) for al in (0.2, 0.5, 0.8, 0.99) for scheme in ("sftr", "fbdf2")
    ),
}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: Path, header: str, rows: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _sweep_path(base: Path, alpha: float, theta: float, scheme: str) -> Path:
    return base.with_name(f"{base.stem}_a{alpha:g}_t{theta:g}_{scheme}{base.suffix}")


class HardAssertionError(Exception):
    """A subcommand's hard contract was violated; carries the failure records."""

    def __init__(self, failures: list[dict]):
        super().__init__(f"{len(failures)} hard assertion(s) failed")
        self.failures = failures


def cmd_weights(args: argparse.Namespace) -> None:
    n = args.n
    out = Path(args.out)
    if args.kind != "fbdf2" and args.theta is None:
        raise ValueError(f"--theta is required for kind {args.kind!r}")

    if args.kind != "all":
        # single-family dump: one value column
        if args.kind == "fbdf2":
            values = fbdf2_weights(args.alpha, n)
        else:
            params = SchemeParams(args.alpha, args.theta)
            if args.kind == "omega":
                values = sftr_weights(params, n)
            elif args.kind == "varpi":
                values = varpi_weights(params, n)
            else:
                values = cumulative_weights(params, n)
        _write_csv(out, "k,value", (f"{k},{_fmt(values[k])}" for k in range(n + 1)))
        print(f"weights kind={args.kind} alpha={args.alpha:g} n={n} -> {out}")
        return

    params = SchemeParams(args.alpha, args.theta)
    omega = sftr_weights(params, n)
    varpi = varpi_weights(params, n)
    a = cumulative_weights(params, n)
    conv = np.convolve(omega, varpi)[: n + 1]
    expected = np.zeros(n + 1)
    expected[0] = 1.0
    if n >= 1:
        expected[1] = -1.0
    check = conv - expected

    rows = (
        f"{k},{_fmt(omega[k])},{_fmt(varpi[k])},{_fmt(a[k])},{_fmt(check[k])}"
        for k in range(n + 1)
    )
    _write_csv(out, "k,omega,varpi,a,conv_check", rows)
    worst = float(np.max(np.abs(check)))
    print(f"weights alpha={args.alpha:g} theta={args.theta:g} n={n}: "
          f"max |conv_check| = {worst:.3e} -> {out}")
    if worst > 1e-12:
        raise HardAssertionError(
            [{"check": "convolution_identity", "max_defect": worst, "limit": 1e-12}]
        )


def _parse_taus(spec: str) -> list[float]:
    taus = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            num, den = tok.split("/") if "/" in tok else (tok, "1")
            tau = float(num) / float(den)
        except (ValueError, ArithmeticError):
            tau = math.nan
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"--taus entry {tok!r} is not a finite positive number or fraction")
        taus.append(tau)
    return taus


def _converge_rows_csv(rows: list[ConvergenceRow]) -> list[str]:
    def rate(v: float | None) -> str:
        return "" if v is None else _fmt(v)

    return [
        f"{_fmt(r.tau)},{_fmt(r.err_e)},{rate(r.rate_e)},"
        f"{_fmt(r.err_h)},{rate(r.rate_h)},{_fmt(r.err_p)},{rate(r.rate_p)}"
        for r in rows
    ]


def cmd_converge(args: argparse.Namespace) -> None:
    quadrature = Quadrature(args.scheme)
    grid = GridSpec(args.nx, args.ny)
    taus = _parse_taus(args.taus)
    if args.sweep == "paper":
        combos = PAPER_CONVERGENCE_GRID
    elif args.alpha is not None and args.theta is not None:
        combos = ((args.alpha, args.theta),)
    else:
        raise ValueError("converge needs either --alpha and --theta, or --sweep paper")
    for alpha, theta in combos:
        SchemeParams(alpha, theta)  # reject invalid pairs before running

    base = Path(args.out)
    for alpha, theta in combos:
        rows = convergence_table(ManufacturedCase(alpha), theta, taus, grid, quadrature)
        path = base if len(combos) == 1 else _sweep_path(base, alpha, theta, args.scheme)
        _write_csv(path, "tau,errE,rateE,errH,rateH,errP,rateP", _converge_rows_csv(rows))
        last = rows[-1]
        rate_txt = "n/a" if last.rate_e is None else f"{last.rate_e:.3f}"
        print(f"converge {args.scheme} alpha={alpha:g} theta={theta:g} "
              f"grid={args.nx}x{args.ny}: finest E-rate {rate_txt} -> {path}")


def _dump_fields(state, prefix: Path) -> None:
    """Debug snapshot of the final fields on the dofs, one i,j,value CSV per component."""
    e, p, h = state.fields()
    for tag, arr in (("ex", e.ex), ("ey", e.ey), ("h", h.h), ("px", p.ex), ("py", p.ey)):
        path = prefix.with_name(f"{prefix.name}_{tag}.csv")
        rows = (
            f"{i},{j},{_fmt(arr[i, j])}"
            for i in range(arr.shape[0])
            for j in range(arr.shape[1])
        )
        _write_csv(path, "i,j,value", rows)


def cmd_energy(args: argparse.Namespace) -> None:
    grid = GridSpec(args.nx, args.ny)
    if args.sweep is not None:
        runs = ENERGY_SWEEPS[args.sweep]
    else:
        runs = ((args.alpha, args.theta, args.scheme),)
    if args.dump_fields is not None and len(runs) != 1:
        raise ValueError("--dump-fields is only available for single runs, not sweeps")
    checked = [SchemeParams(alpha, theta) for alpha, theta, _ in runs]

    base = Path(args.out)
    failures = []
    for params, (alpha, theta, scheme) in zip(checked, runs):
        state, trace, report = run_decay_experiment(
            alpha, theta, grid, args.tau, args.steps, Quadrature(scheme)
        )
        if args.dump_fields is not None:
            _dump_fields(state, Path(args.dump_fields))
        del state  # release the run's P history before the next run starts
        path = base if len(runs) == 1 else _sweep_path(base, alpha, theta, scheme)
        rows = (",".join(map(_fmt, record.item())) for record in trace)
        _write_csv(path, ",".join(TRACE.names), rows)
        first = "-" if report.first_violation_step is None else str(report.first_violation_step)
        print(
            f"energy {scheme} alpha={alpha:g} theta={theta:g} tau={args.tau:g} "
            f"steps={args.steps}: violations={report.violation_count} "
            f"max_violation={report.max_violation:.3e} first={first} -> {path}"
        )
        # Monotone decay is a hard contract for the shifted-trapezoidal scheme
        # (theta >= alpha/2); the BDF-2 comparison is report-only.
        if scheme == "sftr" and params.decay_guaranteed and report.violation_count > 0:
            failures.append(
                {
                    "check": "energy_decay",
                    "alpha": alpha,
                    "theta": theta,
                    "scheme": scheme,
                    "violations": report.violation_count,
                    "max_violation": report.max_violation,
                }
            )
    if failures:
        raise HardAssertionError(failures)


def cmd_theta_scan(args: argparse.Namespace) -> None:
    xs, alphas, grid = min_theta_gap_grid(args.x_points, args.alpha_points, args.theta_samples)
    rows = (
        f"{_fmt(xs[i])},{_fmt(alphas[j])},{_fmt(grid[i, j])}"
        for i in range(len(xs))
        for j in range(len(alphas))
    )
    out = Path(args.out)
    _write_csv(out, "x,alpha,min_theta_gap", rows)
    gmin = float(grid.min())
    print(
        f"theta-scan {args.x_points}x{args.alpha_points}x{args.theta_samples}: "
        f"min gap = {gmin:.6g} -> {out}"
    )
    if gmin <= 0.0:
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        raise HardAssertionError(
            [{"check": "theta_gap_positive", "min": gmin, "x": float(xs[i]), "alpha": float(alphas[j])}]
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colecole",
        description="Energy-decay preserving Cole-Cole Maxwell experiments (CSV outputs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="dump quadrature weight columns with identity check")
    w.add_argument("--alpha", type=float, required=True)
    w.add_argument("--theta", type=float, default=None)
    w.add_argument("--n", type=int, default=64, help="largest weight index (default 64)")
    w.add_argument(
        "--kind",
        choices=("all", "omega", "varpi", "a", "fbdf2"),
        default="all",
        help="'all' writes the combined diagnostic table; a single kind writes k,value",
    )
    w.add_argument("--out", default="weights.csv")
    w.set_defaults(func=cmd_weights)

    c = sub.add_parser("converge", help="manufactured-solution temporal convergence study")
    c.add_argument("--scheme", choices=("sftr", "fbdf2"), default="sftr")
    c.add_argument("--alpha", type=float)
    c.add_argument("--theta", type=float)
    c.add_argument("--sweep", choices=("paper",), help="run the published (alpha, theta) grid")
    c.add_argument("--taus", default="1/5,1/10,1/20,1/40", help="comma list, fractions allowed")
    c.add_argument("--nx", type=int, default=100)
    c.add_argument("--ny", type=int, default=100)
    c.add_argument("--out", default="converge.csv")
    c.set_defaults(func=cmd_converge)

    e = sub.add_parser("energy", help="source-free energy-decay runs")
    e.add_argument("--scheme", choices=("sftr", "fbdf2"), default="sftr")
    e.add_argument("--alpha", type=float, default=0.5)
    e.add_argument("--theta", type=float, default=0.5)
    e.add_argument("--sweep", choices=tuple(ENERGY_SWEEPS), help="predefined parameter sweeps")
    e.add_argument("--tau", type=float, default=0.01)
    e.add_argument("--steps", type=int, default=100)
    e.add_argument("--nx", type=int, default=60)
    e.add_argument("--ny", type=int, default=60)
    e.add_argument("--out", default="energy.csv")
    e.add_argument(
        "--dump-fields",
        default=None,
        metavar="PREFIX",
        help="also write final field snapshots (i,j,value CSV per component)",
    )
    e.set_defaults(func=cmd_energy)

    t = sub.add_parser("theta-scan", help="positivity scan of the companion-sign gap")
    t.add_argument("--x-points", type=int, default=100)
    t.add_argument("--alpha-points", type=int, default=99)
    t.add_argument("--theta-samples", type=int, default=100)
    t.add_argument("--out", default="theta_scan.csv")
    t.set_defaults(func=cmd_theta_scan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except HardAssertionError as exc:
        print(
            json.dumps({"status": "fail", "command": args.command, "failures": exc.failures}),
            file=sys.stderr,
        )
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        return _report_error(args.command, exc, 2)
    except SolverError as exc:
        return _report_error(args.command, exc, 3)
    except MemoryError as exc:
        return _report_error(args.command, exc, 4)
    return 0


def _report_error(command: str, exc: BaseException, code: int) -> int:
    """Write one JSON error record to stderr and return the exit code."""
    message = str(exc) or type(exc).__name__
    print(
        json.dumps({"status": "error", "command": command, "message": message}),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
