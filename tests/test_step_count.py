"""The benchmark's x-step count holds on the CLI's three subcommands.

``benchmark/tracer.py``'s ``StepCounter`` counts rows and x-steps by
rebinding ``integrate_chart`` and ``integrate_unitary`` in every maslovflow
namespace and reading ``len(path.grid) - 1`` from each returned path. A
refactor that renames, moves or inlines an integrator, or calls it other than
through those names, fails here; the benchmark would read 0 x-steps per
second instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from maslovflow.cli import EXIT_OK, main

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
STEPS = 400  # the default window [-20, 20] at --step 0.1


@pytest.fixture
def counter(monkeypatch):
    """An installed ``StepCounter``; every binding it replaces is restored
    after the test."""
    for name, module in list(sys.modules.items()):
        if name == "maslovflow" or name.startswith("maslovflow."):
            for attr in ("integrate_chart", "integrate_unitary"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    step_counter = tracer.StepCounter()
    step_counter.install()
    return step_counter


def _counts(rows_chart, rows_unitary, steps=STEPS):
    return {"chart_rows": rows_chart, "chart_steps": rows_chart * steps,
            "unitary_rows": rows_unitary, "unitary_steps": rows_unitary * steps}


def test_trace_both_routes(counter, tmp_path):
    rc = main(["trace", "--model", "kdv7", "--backend", "both", "--lambda=-0.25",
               "--step", "0.1", "--out", str(tmp_path / "trace.csv")])
    assert rc == EXIT_OK
    assert counter.snapshot() == _counts(1, 1)


def test_sweep_two_rows(counter, tmp_path):
    rc = main(["sweep", "--model", "kdv7", "--backend", "both", "--lambda-range=-0.28:-0.22",
               "--lambda-count", "2", "--step", "0.1", "--out", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_OK
    assert counter.snapshot() == _counts(2, 2)


def test_refine_unitary(counter, tmp_path):
    # a bracket of 0.6 bisected to 0.25: two ends and two midpoints
    rc = main(["refine", "--model", "poschl_teller:2", "--backend", "unitary",
               "--lambda-range=-1.3:-0.7", "--tol-lambda", "0.25", "--step", "0.04",
               "--out", str(tmp_path / "refine.json")])
    assert rc == EXIT_OK
    assert counter.snapshot() == _counts(0, 4, steps=1000)
