"""Workload process: runs maslovflow's CLI in-process on command.

Started by run.py as ``python3 worker.py <src-dir> <plain|trace>``. It
imports maslovflow from ``<src-dir>``, installs the step counter (and, in
trace mode, the span tracer), then reads one JSON command per line on
standard input and answers each with one JSON line on standard output:

* ``{"op": "run", "calls": [[argv...], ...]}`` runs the calls through
  ``maslovflow.cli.main`` and reports the time spent inside them, exit codes,
  captured output and counters;
* ``{"op": "finish", "spans": path-or-null}`` reports peak memory, writes
  the spans of the last pass if asked, and exits.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # reported as a failed call; the worker keeps serving
            code = "exception"
            err.write(traceback.format_exc())
        wall = perf_counter() - start
    return {"code": code, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    src, mode = Path(sys.argv[1]).resolve(), sys.argv[2]
    sys.path.insert(0, str(src))
    import maslovflow
    import maslovflow.cli as cli
    from tracer import StepCounter, Tracer

    if not Path(maslovflow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"maslovflow imported from {maslovflow.__file__}, not from {src}")
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    counter = StepCounter()
    counter.install()

    channel = sys.stdout

    def reply(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")
        channel.flush()

    reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "run":
            counter.reset()
            if tracer is not None:
                tracer.reset()
            results = [_run_call(cli.main, argv) for argv in cmd["calls"]]
            payload = {"calls": results, "wall_s": sum(r["wall_s"] for r in results),
                       "counters": counter.snapshot()}
            if tracer is not None:
                payload["layers"] = tracer.snapshot()
            reply(payload)
        elif cmd["op"] == "finish":
            if tracer is not None and cmd.get("spans"):
                tracer.dump(cmd["spans"])
            reply({"peak_rss_mb": _peak_rss_mb()})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
