"""Benchmark for maslovflow: one workload, one seed, one run.

Run from anywhere inside a checkout of the repository:

    python3 benchmark/run.py --workload kdv7-sweep --seed 1 --seconds 28 --trace 0

Workloads are ``kdv7-sweep``, ``pt2-refine`` and ``kdv7-trace`` (see
workloads.py and README.md). The inputs are drawn from ``--seed``; the
program sees only the CLI arguments drawn. A run starts one workload process
(worker.py) that imports maslovflow from the checkout's ``src/``, warms up
on a coarse grid, then repeats whole passes of the workload through
``maslovflow.cli.main`` until the passes have taken ``--seconds``. Between
passes, fresh interpreters (probe.py) sample the set-up time. Every pass's
outputs are checked and must match the first pass byte for byte.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the public functions of each
module are wrapped in spans (tracer.py) and the line holds the per-layer
metrics instead. The exit code is 0 when the run completed, whatever its
checks found, and 2 when it could not run, for instance without ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "x_steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "maslov.detect_s": "s",
    "maslov.rows": "count",
    "riccati.step_us": "us",
    "unitary.step_us": "us",
    "unitary.xi_field_calls": "count",
    "models.evaluate_calls": "count",
    "models.get_model_calls": "count",
    "system.validate_calls": "count",
    "system.farfield_frame_calls": "count",
    "matrixkit.mat_exp_calls": "count",
    "matrixkit.mat_exp_us": "us",
}

REPLY_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def _child_env() -> dict:
    """Environment of every child: one BLAS and OpenMP thread, and no
    MASLOVFLOW_* settings, so the program sees only the drawn arguments."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MASLOVFLOW_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_sample(argv: list[str], env: dict) -> float:
    """Seconds from starting a fresh interpreter until the workload's model
    and grids are built (see probe.py)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(SRC), *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


class Worker:
    """The workload process and its one-JSON-line-per-command protocol."""

    def __init__(self, mode: str, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        self._read()  # the process is ready once maslovflow is imported

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        if not ready:
            raise BenchError(f"workload process silent for {REPLY_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _digest(reply: dict, outputs: list[Path]) -> str:
    h = hashlib.sha256()
    for call in reply["calls"]:
        h.update(call["stdout"].encode())
    for path in outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(reply: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    layers, counters = reply["layers"], reply["counters"]
    calls, incl = layers["calls"], layers["inclusive_s"]

    def per(total_s: float, count: int) -> float:
        return 1e6 * total_s / count if count else 0.0

    metrics = {f"{layer}.self_s": layers["self_s"][layer] for layer in LAYERS}
    metrics.update({
        "maslov.detect_s": incl.get("maslov.detect_crossings", 0.0)
        + incl.get("maslov.crossings_from_chart", 0.0),
        "maslov.rows": calls.get("maslov._sweep_row", 0) + calls.get("maslov.run_trace", 0),
        "riccati.step_us": per(incl.get("riccati.integrate_chart", 0.0), counters["chart_steps"]),
        "unitary.step_us": per(incl.get("unitary.integrate_unitary", 0.0),
                               counters["unitary_steps"]),
        "unitary.xi_field_calls": calls.get("unitary.xi_field", 0),
        "models.evaluate_calls": calls.get("models.evaluate", 0),
        "models.get_model_calls": calls.get("models.get_model", 0),
        "system.validate_calls": calls.get("system.validate_coefficients", 0),
        "system.farfield_frame_calls": calls.get("system.farfield_frame", 0),
        "matrixkit.mat_exp_calls": calls.get("matrixkit.mat_exp", 0),
        "matrixkit.mat_exp_us": per(incl.get("matrixkit.mat_exp", 0.0),
                                    calls.get("matrixkit.mat_exp", 0)),
    })
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "maslovflow" / "cli.py").is_file():
        raise BenchError(f"no maslovflow sources under {SRC}")
    env = _child_env()
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = WORKLOADS[workload](seed, out)
    probe_argv = plan.calls[0]

    setup: list[float] = []
    problems: list[str] = []
    passes: list[dict] = []
    attempted = failed = 0
    first_digest = None
    if not trace:
        setup_sample(probe_argv, env)  # unmeasured: writes bytecode in a fresh checkout
    with Worker("trace" if trace else "plain", env) as worker:
        warm = worker.request({"op": "run", "calls": plan.warmup})
        if any(call["code"] != 0 for call in warm["calls"]):
            raise BenchError(f"warm-up failed: {[c['stderr'] for c in warm['calls']]}")
        measured = 0.0
        while measured < seconds:
            if not trace:  # one set-up sample before each pass and after the last
                setup.append(setup_sample(probe_argv, env))
            reply = worker.request({"op": "run", "calls": plan.calls})
            measured += reply["wall_s"]
            passes.append(reply)
            ops = max(1, plan.ops(reply["counters"]))
            attempted += ops
            errors = [c for c in reply["calls"] if c["code"] != 0]
            if errors:
                failed += ops
                problems += [f"call exited {c['code']}: {c['stderr'].strip()}" for c in errors]
                continue
            try:
                problems += plan.check()
                digest = _digest(reply, plan.outputs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"outputs unreadable: {exc!r}")
                continue
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                problems.append(f"pass {len(passes)} outputs differ from the first pass")
        if not trace:
            setup.append(setup_sample(probe_argv, env))
        spans_path = OUT / "spans" / f"{workload}-seed{seed}.csv"
        if trace:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
        final = worker.request({"op": "finish", "spans": str(spans_path) if trace else None})

    walls = [p["wall_s"] for p in passes]
    steps = [p["counters"]["chart_steps"] + p["counters"]["unitary_steps"] for p in passes]
    if len(set(steps)) != 1 or not steps[0]:
        problems.append(f"x-steps per pass not one positive number: {steps}")
    steps_per_pass = steps[0]
    if trace:
        per_pass = [layer_metrics(p) for p in passes]
        values = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        wall = statistics.median(walls)
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "x_steps_per_s": steps_per_pass / wall, "peak_rss_mb": final["peak_rss_mb"]}
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": plan.inputs, "problems": problems, "pass_wall_s": walls,
              "setup_samples_s": setup, "x_steps_per_pass": steps_per_pass,
              "counters": passes[0]["counters"], "result": result}
    if trace:
        detail["calls_last_pass"] = passes[-1]["layers"]["calls"]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"{workload} seed={seed} inputs={json.dumps(plan.inputs)}")
    print(f"passes={len(walls)} pass_wall_s={[round(w, 4) for w in walls]} "
          f"x_steps_per_pass={steps_per_pass} ops attempted={attempted} failed={failed}")
    if setup:
        print(f"setup samples={len(setup)} median={statistics.median(setup):.4f} s "
              f"range=[{min(setup):.4f}, {max(setup):.4f}]")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # unwind on SIGTERM too, so the workload process is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
