"""Experiment command line: reproducible CSV-emitting drivers.

Subcommands
-----------
weights     the omega, varpi and cumulative weight columns with the
            convolution-identity defect per index, or the FBDF2 weights
converge    temporal convergence study of the manufactured case
energy      source-free energy-decay runs with per-step dissipation records
theta-scan  positivity scan of the companion-sign gap function

Every run is deterministic: identical flags produce byte-identical CSVs
(fixed summation order; one formatter, :func:`_write_csv`, writes every cell
to 17 significant digits; a blank cell is an undefined rate).  The
independent entries of a sweep run side by side in up to W processes
(:func:`_in_order`): W is the smallest of the number of entries, the CPUs this
process may use and how many of the sweep's largest run physical memory holds
together, by :func:`colecole.stepper.memory_estimate` (:func:`_workers`), so
``taskset -c 0`` runs one entry at a time and a single run never forks.  This
process writes every CSV and prints every line, in entry order, and a failure
in entry k leaves the complete CSVs of entries 1..k-1 and none after.  Each
subcommand returns its failed checks, an empty list when all held.  Exit codes:

0  every hard assertion of the subcommand held
1  a hard assertion or an internal cross-check failed (JSON failure records
   on stderr)
2  invalid input or an unwritable output path, both refused before any run
   (JSON error on stderr)
3  the conjugate-gradient E-solve did not converge, or its right-hand side
   or residual was not finite (JSON error on stderr)
4  out of memory, a run that would not fit in physical memory, refused
   before it allocates, or a sweep worker that ended without its entry's
   result, named with its wait status (JSON error on stderr)
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import pickle
import sys
from contextlib import closing
from dataclasses import astuple
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import stepper
from .energy import TRACE, run_decay_experiment
from .manufactured import CASE_SPAN_ROWS, ManufacturedCase, convergence_table
from .mesh import GridSpec
from .stepper import MaterialParams, Quadrature, SchemeConfig, SolverError, memory_estimate
from .weights import (
    cumulative_weights,
    decay_guaranteed,
    fbdf2_weights,
    min_theta_gap_grid,
    series_product,
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


def _fmt(v: float | None) -> str:
    """One CSV cell: 17 significant digits, so a float reads back exactly, an
    index is plain and a NaN is ``nan``; None, an undefined value, is blank."""
    return "" if v is None else f"{v:.17g}"


def _write_csv(path: Path, header: str, rows: Iterable[Iterable[float | None]]) -> None:
    """Write the header, then each row of numbers, every cell as :func:`_fmt`
    writes it: one %-operation per row of the header's width, one
    :func:`_fmt` call per cell in a row with a blank cell."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            try:
                fh.write(line % tuple(row))
            except TypeError:  # None, or a row not of the header's width
                fh.write(",".join(map(_fmt, row)) + "\n")


def _check_outputs(paths: Iterable[Path]) -> None:
    """Raise :class:`OSError` for the first path a CSV could not be written
    to: an existing directory, a file that is not writable, or a parent that
    cannot be created or written, and :class:`ValueError` for a path given
    twice (compared resolved), whose second write would replace the first.
    Creates nothing, so a refused run leaves no trace."""
    seen = set()
    for path in paths:
        if path.resolve() in seen:
            raise ValueError(f"{path} is given for two outputs of one run")
        seen.add(path.resolve())
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        # the nearest ancestor on disk must be a directory that takes new entries
        parent = path.parent
        while not parent.exists() and parent != parent.parent:
            parent = parent.parent
        if not parent.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(parent))
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(parent))


Entry = TypeVar("Entry")
Result = TypeVar("Result")


def _workers(entries: int, largest_run: Callable[[], int]) -> int:
    """How many processes compute a sweep of ``entries`` independent entries:
    at most one per entry and per CPU this process may use, and at most as
    many as physical memory holds of the sweep's largest run, whose bytes
    ``largest_run`` gives by the preflight's estimate.  One without
    ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    workers = min(entries, len(os.sched_getaffinity(0)))
    if workers > 1:
        workers = min(workers, stepper.physical_memory_bytes() // largest_run())
    return max(workers, 1)


def _in_order(compute: Callable[[Entry], Result], entries: Sequence[Entry],
              workers: int) -> Iterator[Result]:
    """Yield ``compute(entry)`` for each of ``entries``, in their order,
    computed in ``workers`` processes.  W - 1 workers are forked first;
    worker w computes entries w, w + W, ... and writes each result, or the
    exception that ended it, to its own pipe as soon as it is done, as a
    length-prefixed pickle.  This process computes entries 0, W, 2W, ...,
    and those of a worker that could not be forked.  An exception is raised
    when its entry's turn comes, from either process; a worker that ends
    without its result raises :class:`MemoryError` naming the entry and the
    worker's wait status.  The workers are killed and reaped on every exit."""
    forked: dict[int, tuple[int, BinaryIO]] = {}  # w -> (pid, reader of its pipe)
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()  # one thread: the package loads numpy with one BLAS thread
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the worker: it never returns to the frames it was forked from
                try:
                    os.close(read)
                    for _, reader in forked.values():
                        reader.close()
                    _serve(compute, entries[w::workers], write)
                finally:
                    os._exit(0)
            os.close(write)
            forked[w] = pid, open(read, "rb")
        for i, entry in enumerate(entries):
            if i % workers not in forked:
                yield compute(entry)
                continue
            pid, reader = forked[i % workers]
            size = int.from_bytes(reader.read(8), "little")
            data = reader.read(size)
            if size == 0 or len(data) < size:
                del forked[i % workers]
                reader.close()
                status = os.waitpid(pid, 0)[1]
                raise MemoryError(
                    f"sweep entry {i + 1} {entry} has no result: its worker process "
                    f"ended with wait status {status}"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value
    finally:
        if forked:
            import signal  # loaded only where a sweep has forked

            for pid, reader in forked.values():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(compute: Callable[[Entry], Result], entries: Sequence[Entry], fd: int) -> None:
    """The loop of a forked worker of :func:`_in_order`: write
    ``compute(entry)`` of each of ``entries``, or the exception that ends
    them, to ``fd`` as a length-prefixed pickle."""
    with open(fd, "wb") as out:
        for entry in entries:
            try:
                payload = True, compute(entry)
            except Exception as exc:
                payload = False, exc
            data = pickle.dumps(payload)
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()
            if not payload[0]:
                break


def _sweep_path(base: Path, alpha: float, theta: float, scheme: str) -> Path:
    return base.with_name(f"{base.stem}_a{alpha:g}_t{theta:g}_{scheme}{base.suffix}")


def _reject_fixed_by_sweep(args: argparse.Namespace, flags: tuple[str, ...]) -> None:
    """Raise :class:`ValueError` naming the first of ``flags`` that was given
    together with ``--sweep``, which fixes them."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValueError(f"--sweep {args.sweep} fixes --{flag}; drop it")


def cmd_weights(args: argparse.Namespace) -> list[dict]:
    n = args.n
    out = Path(args.out)
    _check_outputs([out])
    if args.kind == "fbdf2":
        if args.theta is not None:
            raise ValueError("--theta is not read by kind 'fbdf2', whose weights do not depend on it")
        _write_csv(out, "k,value", enumerate(fbdf2_weights(args.alpha, n)))
        print(f"weights kind=fbdf2 alpha={args.alpha:g} n={n} -> {out}")
        return []
    if args.theta is None:
        raise ValueError("--theta is required for kind 'all'")

    omega = sftr_weights(args.alpha, args.theta, n)
    varpi = varpi_weights(args.alpha, args.theta, n)
    a = cumulative_weights(args.alpha, args.theta, n)
    # the coefficients of omega(z) varpi(z) - (1 - z)
    check = series_product(omega, varpi)
    check[0] -= 1.0
    check[1:2] -= -1.0  # empty when n = 0

    _write_csv(out, "k,omega,varpi,a,conv_check", zip(range(n + 1), omega, varpi, a, check))
    worst = float(np.max(np.abs(check)))
    print(f"weights alpha={args.alpha:g} theta={args.theta:g} n={n}: "
          f"max |conv_check| = {worst:.3e} -> {out}")
    if worst > 1e-12:
        return [{"check": "convolution_identity", "max_defect": worst, "limit": 1e-12}]
    return []


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


def cmd_converge(args: argparse.Namespace) -> list[dict]:
    quadrature = Quadrature(args.scheme)
    grid = GridSpec(args.nx, args.ny)
    taus = _parse_taus(args.taus)
    if args.sweep == "paper":
        _reject_fixed_by_sweep(args, ("alpha", "theta"))
        combos = PAPER_CONVERGENCE_GRID
    elif args.alpha is not None and args.theta is not None:
        combos = ((args.alpha, args.theta),)
    else:
        raise ValueError("converge needs either --alpha and --theta, or --sweep paper")

    base = Path(args.out)
    paths = [base] if len(combos) == 1 else [_sweep_path(base, *pair, args.scheme) for pair in combos]
    _check_outputs(paths)

    def table(pair: tuple[float, float]) -> list:
        return convergence_table(ManufacturedCase(pair[0]), pair[1], taus, grid, quadrature)

    def largest_run() -> int:
        # a table's runs come one after another, the finest step's the largest
        # (a step that does not divide 1 is refused by the table)
        tau = min(taus)
        n_steps = max(1, round(1.0 / tau))
        return max(memory_estimate(grid, MaterialParams(alpha=alpha),
                                   SchemeConfig(theta, tau, n_steps, quadrature), CASE_SPAN_ROWS)
                   for alpha, theta in combos)

    workers = _workers(len(combos), largest_run)
    with closing(_in_order(table, combos, workers)) as tables:
        for (alpha, theta), path, rows in zip(combos, paths, tables):
            _write_csv(path, "tau,errE,rateE,errH,rateH,errP,rateP", map(astuple, rows))
            last = rows[-1]
            rate_txt = "n/a" if last.rate_e is None else f"{last.rate_e:.3f}"
            print(f"converge {args.scheme} alpha={alpha:g} theta={theta:g} "
                  f"grid={args.nx}x{args.ny}: finest E-rate {rate_txt} -> {path}")
    return []


def _field_paths(prefix: Path) -> list[Path]:
    """The snapshot files of ``--dump-fields PREFIX``: ex, ey, h, px, py."""
    return [prefix.with_name(f"{prefix.name}_{tag}.csv") for tag in ("ex", "ey", "h", "px", "py")]


def _dump_fields(state, prefix: Path) -> None:
    """Debug snapshot of the final fields on the dofs, one i,j,value CSV per component."""
    e, p, h = state.fields()
    for path, arr in zip(_field_paths(prefix), (e.ex, e.ey, h, p.ex, p.ey)):
        _write_csv(path, "i,j,value", zip(*np.indices(arr.shape).reshape(2, -1), arr.ravel()))


def cmd_energy(args: argparse.Namespace) -> list[dict]:
    grid = GridSpec(args.nx, args.ny)
    if args.sweep is not None:
        _reject_fixed_by_sweep(args, ("alpha", "theta", "scheme"))
        runs = ENERGY_SWEEPS[args.sweep]
    else:
        alpha = 0.5 if args.alpha is None else args.alpha
        theta = 0.5 if args.theta is None else args.theta
        runs = ((alpha, theta, args.scheme or "sftr"),)
    if args.dump_fields is not None and len(runs) != 1:
        raise ValueError("--dump-fields is only available for single runs, not sweeps")

    base = Path(args.out)
    paths = [base] if len(runs) == 1 else [_sweep_path(base, *entry) for entry in runs]
    snapshots = [] if args.dump_fields is None else _field_paths(Path(args.dump_fields))
    _check_outputs(paths + snapshots)

    def decay(entry: tuple[float, float, str]) -> tuple:
        # the run's state and P history are released when it returns
        alpha, theta, scheme = entry
        state, trace, report = run_decay_experiment(
            alpha, theta, grid, args.tau, args.steps, Quadrature(scheme)
        )
        if args.dump_fields is not None:
            _dump_fields(state, Path(args.dump_fields))
        return trace, report

    def largest_run() -> int:
        return max(memory_estimate(grid, MaterialParams(alpha=alpha),
                                   SchemeConfig(theta, args.tau, args.steps, Quadrature(scheme)))
                   for alpha, theta, scheme in runs)

    failures = []
    workers = _workers(len(runs), largest_run)
    with closing(_in_order(decay, runs, workers)) as results:
        for (alpha, theta, scheme), path, (trace, report) in zip(runs, paths, results):
            _write_csv(path, ",".join(TRACE.names), (row.item() for row in trace))
            first = "-" if report.first_violation_step is None else str(report.first_violation_step)
            print(
                f"energy {scheme} alpha={alpha:g} theta={theta:g} tau={args.tau:g} "
                f"steps={args.steps}: violations={report.violation_count} "
                f"max_violation={report.max_violation:.3e} first={first} -> {path}"
            )
            # Monotone decay is a hard contract for the shifted-trapezoidal scheme
            # (theta >= alpha/2); the BDF-2 comparison is report-only.
            if scheme == "sftr" and report.violation_count > 0 and decay_guaranteed(alpha, theta):
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
    return failures


def cmd_theta_scan(args: argparse.Namespace) -> list[dict]:
    out = Path(args.out)
    _check_outputs([out])
    xs, alphas, grid = min_theta_gap_grid(args.x_points, args.alpha_points, args.theta_samples)
    x, alpha = np.meshgrid(xs, alphas, indexing="ij")
    _write_csv(out, "x,alpha,min_theta_gap", zip(x.ravel(), alpha.ravel(), grid.ravel()))
    gmin = float(grid.min())
    print(
        f"theta-scan {args.x_points}x{args.alpha_points}x{args.theta_samples}: "
        f"min gap = {gmin:.6g} -> {out}"
    )
    if gmin <= 0.0:
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        return [{"check": "theta_gap_positive", "min": gmin, "x": float(xs[i]), "alpha": float(alphas[j])}]
    return []


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
    w.add_argument("--kind", choices=("all", "fbdf2"), default="all",
                   help="'all' writes the SFTR table k,omega,varpi,a,conv_check; 'fbdf2' k,value")
    w.add_argument("--out", default="weights.csv")
    w.set_defaults(func=cmd_weights)

    c = sub.add_parser("converge", help="manufactured-solution temporal convergence study")
    c.add_argument("--scheme", choices=("sftr", "fbdf2"), default="sftr")
    c.add_argument("--alpha", type=float, help="fixed by --sweep")
    c.add_argument("--theta", type=float, help="fixed by --sweep")
    c.add_argument("--sweep", choices=("paper",), help="run the published (alpha, theta) grid")
    c.add_argument("--taus", default="1/5,1/10,1/20,1/40",
                   help="comma list, fractions allowed, each step finer than the one before")
    c.add_argument("--nx", type=int, default=100)
    c.add_argument("--ny", type=int, default=100)
    c.add_argument("--out", default="converge.csv")
    c.set_defaults(func=cmd_converge)

    e = sub.add_parser("energy", help="source-free energy-decay runs")
    e.add_argument("--scheme", choices=("sftr", "fbdf2"), help="default sftr; fixed by --sweep")
    e.add_argument("--alpha", type=float, help="default 0.5; fixed by --sweep")
    e.add_argument("--theta", type=float, help="default 0.5; fixed by --sweep")
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
        failures = args.func(args)
    except FloatingPointError as exc:
        # the only FloatingPointError raised: cumulative_weights' cross-check; the flags were valid
        failures = [{"check": "cumulative_weights_cross_check", "message": str(exc)}]
    except (ValueError, ArithmeticError, OSError) as exc:
        return _report_error(args.command, exc, 2)
    except SolverError as exc:
        return _report_error(args.command, exc, 3)
    except MemoryError as exc:
        return _report_error(args.command, exc, 4)
    if failures:
        print(
            json.dumps({"status": "fail", "command": args.command, "failures": failures}),
            file=sys.stderr,
        )
        return 1
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
