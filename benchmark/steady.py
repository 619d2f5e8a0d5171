"""Steadiness check: repeat every workload and compare spreads with bounds.

Run from anywhere inside a checkout of the repository:

    python3 benchmark/steady.py --runs 10
    python3 benchmark/steady.py --runs 10 --compare benchmark/out/steady/<earlier>.json

Runs the command of BENCHMARK.json once per workload and round, one run at
a time, with seed ``first-seed + round``; even rounds take the workloads in
file order and odd rounds in reverse. For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
the distance between the quartiles as a share of the median, beside the
metric's bound. ``--compare`` also prints how far each median moved from an
earlier set saved by this script, as a share of the earlier median, in the
metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out" / "steady"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    print(f"  {workload:11s} seed {seed:3d}: {elapsed:5.1f} s, correct={result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}, "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summarize(spec: dict, results: dict, earlier: dict | None) -> bool:
    """Print the table; True when every spread but setup_s's is below a
    third of its bound and no operation failed."""
    steady = True
    print(f"\n{'workload':11s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}" + (f" {'moved':>7s}" if earlier else ""))
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:11s} {name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                    f"{spread:7.2%} {metric['bound']:6.2f}")
            if name != "setup_s" and spread >= metric["bound"] / 3:
                steady = False
                line += "  spread above a third of the bound"
            if earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                moved = (med - old) / old * (1 if metric["better"] == "lower" else -1)
                line += f" {moved:7.2%}"
                if moved > metric["bound"]:
                    steady = False
                    line += "  worse than the earlier set by more than the bound"
            print(line)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload:11s} failed {failed}/{attempted}, all correct: {correct}, "
              f"run time {statistics.median(r['elapsed_s'] for r in runs):.1f} s median")
        steady = steady and correct and failed == 0
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path, default=None,
                        help="an earlier set saved by this script")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2: quartiles need two values")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    earlier = None
    if args.compare:
        earlier = json.loads(args.compare.read_text(encoding="utf-8"))["results"]

    results: dict[str, list] = {w: [] for w in workloads}
    for rnd in range(args.runs):
        seed = args.first_seed + rnd
        print(f"round {rnd + 1}/{args.runs}, seed {seed}", flush=True)
        for workload in (workloads if rnd % 2 == 0 else workloads[::-1]):
            results[workload].append(run_once(spec, workload, seed))

    OUT.mkdir(parents=True, exist_ok=True)
    saved = OUT / f"{time.strftime('%Y%m%dT%H%M%S')}.json"
    saved.write_text(json.dumps({"runs": args.runs, "first_seed": args.first_seed,
                                 "results": results}, indent=1) + "\n", encoding="utf-8")
    print(f"saved to {saved.relative_to(ROOT)}")
    steady = summarize(spec, results, earlier)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
