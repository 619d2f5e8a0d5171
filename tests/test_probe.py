"""The benchmark's set-up probe runs on every workload's argument lists.

``benchmark/probe.py`` parses and merges a workload's CLI call through
``maslovflow.cli`` and builds its model and grids; its time is the benchmark's
``setup_s``. A CLI refactor that breaks a name it calls fails here, where it
would otherwise fail only the benchmark run.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"


# run as a script: nothing is imported into sys.modules or cached in benchmark/
WORKLOADS = runpy.run_path(str(BENCHMARK / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_probe_runs_on_first_call_and_warmup(workload, tmp_path):
    plan = WORKLOADS[workload](1, tmp_path)
    for argv in (plan.calls[0], plan.warmup[0]):
        proc = subprocess.run(
            [sys.executable, str(BENCHMARK / "probe.py"), str(ROOT / "src"), *argv],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        float(proc.stdout.splitlines()[-1])
