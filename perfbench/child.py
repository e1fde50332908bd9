"""One benchmark sample: a fresh interpreter runs ``colecole.cli.main`` once.

Usage (started by ``run.py``, one process per sample):

    python3 child.py --src SRC --result RESULT.json [--spans SPANS.json] -- CLI ARGS...

Writes RESULT.json with the exit code, the in-process wall time of
``cli.main``, the monotonic clock reading at the first call of ``step`` (the
moment the state is ready for step 1) and the peak RSS of this process.  With
``--spans`` the public functions of each library layer are wrapped and the
spans go to SPANS.json when the run ends; see ``spans.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _hook_first_step(modules) -> dict:
    """Record the monotonic time of the first ``step`` call, then unhook.

    ``step`` is bound by name in ``colecole.energy`` and
    ``colecole.manufactured``; whichever is called first ends set-up.
    """
    mark: dict = {}
    originals = {m: m.step for m in modules if hasattr(m, "step")}

    def restore() -> None:
        for m, fn in originals.items():
            m.step = fn

    for m, fn in originals.items():
        def first(*args, _fn=fn, **kwargs):
            mark["first_step"] = time.monotonic()
            restore()
            return _fn(*args, **kwargs)

        m.step = first
    return mark


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import colecole.cli
    import colecole.energy
    import colecole.manufactured

    src = Path(args.src).resolve()
    if src not in Path(colecole.cli.__file__).resolve().parents:
        raise SystemExit(f"colecole imported from {colecole.cli.__file__}, not from {src}")

    # Traced runs report no set-up time, and the one-shot hook would unwrap
    # the traced ``step``, so the two are never installed together.
    mark: dict = {}
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", colecole.cli.main)
    else:
        mark = _hook_first_step((colecole.energy, colecole.manufactured))
        main_fn = colecole.cli.main

    t0 = time.perf_counter()
    rc = main_fn(cli_args)
    wall = time.perf_counter() - t0

    if tracer is not None:
        tracer.dump(args.spans)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rc": rc,
        "wall_s": wall,
        "first_step": mark.get("first_step"),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
