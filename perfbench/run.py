"""colecole benchmark: runs the CLI on one workload for a fixed time.

    python3 perfbench/run.py --workload decay_long --seed 1 --seconds 20 --trace 0

Load model: batch, one caller, closed loop.  Each sample is one CLI run in a
fresh child process (``child.py``), started only after the previous one has
ended, until ``--seconds`` have passed.  Every sample's CSVs are checked
(``workloads.check_outputs``); a sample fails on a nonzero exit, a timeout,
a non-finite value or a final value away from the recorded reference.

``--trace 0`` reports the end-to-end metrics, each the median over the
samples: ``wall_s`` (argv to all CSVs written, in-process ``cli.main``),
``cpu_s`` (user + sys of the child), ``peak_rss_mb`` (the child's maximum
RSS) and ``setup_s`` (spawn of the interpreter to the first call of
``step``).  ``--trace 1`` alternates untraced and traced samples and reports
the per-layer metrics of ``spans.layer_metrics`` (medians over the traced
samples), ``cli.csv_bytes`` and ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Machine facts and
per-sample detail go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run must end within 180 s even when every child hangs: warm-up plus the
# two samples a traced run needs at least.
WARM_UP_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 60.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COLECOLE_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
EXTRA_LAYER_UNITS = {"cli.csv_bytes": "B", "trace.overhead_s": "s"}


def llc_bytes() -> int | None:
    """Size of the highest cache level of CPU 0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "llc_bytes": llc_bytes(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COLECOLE_THREADS", None)  # the load model runs the default single worker
    return env


@contextlib.contextmanager
def work_dir(name: str) -> Iterator[Path]:
    """A fresh directory under ``WORK`` for the samples' files, removed
    afterwards together with ``WORK`` itself once that is empty."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def warm_up() -> None:
    """Import the library once, untimed, so byte-code caches exist before the
    first timed sample (a user pays that cost once, not per run)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import colecole.cli"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                   timeout=WARM_UP_TIMEOUT_S, stdout=subprocess.DEVNULL)


def run_sample(name: str, seed: int, sample_dir: Path, traced: bool,
               reference: dict | None, rtol: float, smoke: bool = False) -> dict:
    """One CLI run in a fresh child process, with its outputs checked."""
    out_dir = sample_dir / "out"
    out_dir.mkdir(parents=True)
    result_path = sample_dir / "result.json"
    spans_path = sample_dir / "spans.json"
    argv = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--result", str(result_path)]
    if traced:
        argv += ["--spans", str(spans_path)]
    argv += ["--", *workloads.cli_args(name, seed, out_dir, smoke)]

    sample: dict = {"traced": traced, "problems": [], "spans": spans_path if traced else None}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    with open(sample_dir / "child.log", "wb") as log:
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    sample["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    if proc is None:
        sample["problems"].append(f"timeout after {CHILD_TIMEOUT_S:g} s")
    elif proc.returncode != 0 or not result_path.is_file():
        sample["problems"].append(f"benchmark child exited with code {proc.returncode}")
    else:
        result = json.loads(result_path.read_text())
        sample["wall_s"] = result["wall_s"]
        sample["peak_rss_mb"] = result["peak_rss_mb"]
        if result["first_step"] is not None:
            sample["setup_s"] = result["first_step"] - spawned
        elif not traced:
            sample["problems"].append("step was never called")
        if result["rc"] != 0:
            sample["problems"].append(f"colecole exited with code {result['rc']}")
        else:
            sample["problems"] += workloads.check_outputs(name, out_dir, reference, rtol, smoke)
            sample["csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
            if not sample["problems"]:
                sample["values"] = workloads.final_values(name, out_dir)
    if sample["problems"]:
        log_tail = (sample_dir / "child.log").read_text(errors="replace")[-2000:]
        sample["problems"].append(f"child output: {log_tail}")
    shutil.rmtree(out_dir)
    return sample


def median(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def traced_metrics(samples: list[dict], llc: int | None) -> dict[str, float]:
    ok = [s for s in samples if not s["problems"]]
    traced = [s for s in ok if s["traced"]]
    per_sample = []
    missing: set[str] = set()
    for s in traced:
        recorded, absent = spans.load(s["spans"])
        missing.update(absent)
        per_sample.append(spans.layer_metrics(recorded, llc))
        split = spans.layer_split(recorded)
        root = sum(split.values())
        print(json.dumps({"layer_share": {k: round(v / root, 4) for k, v in sorted(split.items())},
                          "root_s": root}), file=sys.stderr)
    if missing:
        print(json.dumps({"absent_wrapped_functions": sorted(missing)}), file=sys.stderr)
    metrics = {k: statistics.median(m[k] for m in per_sample) if per_sample else 0.0
               for k in spans.UNITS}
    metrics["cli.csv_bytes"] = median(traced, "csv_bytes")
    # Samples alternate untraced, traced; pairing neighbours cancels the
    # machine's slow drift between them.
    pairs = [(u, t) for u, t in zip(samples[::2], samples[1::2])
             if not u["problems"] and not t["problems"]]
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
                                   if pairs else 0.0)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict | None,
            rtol: float, work: Path, smoke: bool = False) -> dict:
    """Take samples for ``seconds`` (at least one, and in a traced run one of
    each kind) and return the result object of the run."""
    samples: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(samples) < 1 + trace:
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(name, seed, work / f"s{len(samples)}", traced, reference, rtol, smoke)
        samples.append(sample)
        print(json.dumps({k: v for k, v in sample.items() if k != "spans"}), file=sys.stderr)
    ok = [s for s in samples if not s["problems"]]
    if trace:
        metrics = traced_metrics(samples, llc_bytes())
        units = {**spans.UNITS, **EXTRA_LAYER_UNITS}
    else:
        metrics = {k: median(ok, k) for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    failed = len(samples) - len(ok)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "colecole" / "cli.py").is_file():
        print(f"error: no colecole sources at {SRC}", file=sys.stderr)
        return 2
    references = workloads.load_references()
    key = workloads.input_key(args.workload, args.seed)
    reference = references[args.workload].get(key)
    if reference is None:
        print(f"error: no reference values for {args.workload} {key}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_facts(), "workload": args.workload, "seed": args.seed,
                      "inputs": key}), file=sys.stderr)
    with work_dir(str(os.getpid())) as work:
        warm_up()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), reference,
                         references["rtol"], work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
