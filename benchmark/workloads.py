"""Inputs and output checks for the three benchmark workloads.

Every input is drawn from the run's seed and kept clear of eigenvalues known
independently of the program. Every check compares an output with such a
fact, or with a property the method must have; none compares with a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# kdv7 eigenvalues in the criterion-1 window [-0.3, 0.15]: lambda = 0 is
# exact (the translation mode); the other two are the published values to
# four digits. The essential spectrum starts at c = 710000/2159^2 ~ 0.1523.
KDV7_EIGENVALUES = (-0.1867, 0.0, 0.1187)
KDV7_WINDOW = (-0.3, 0.15)
# Inputs stay this far from every kdv7 eigenvalue, which covers both the
# four-digit rounding and the x-discretization shift at the steps used here.
KDV7_MARGIN = 0.01

# Poeschl-Teller m = 2: V = -6 sech^2 x has exactly the bound states -j^2.
PT2_EIGENVALUES = (-4.0, -1.0)
PT2_STEP = 0.04
PT2_TOL_LAMBDA = 1e-3
# The unitary route is Lie-algebra Euler, first order in h: over seeds 1-20,
# lambda* came within 1.7e-3 of -j^2 at h = 0.04 and within 2.4e-3 at
# h = 0.05, bisection half-width included. The allowance is 0.1 h.
PT2_DISCRETIZATION_ALLOWANCE = 0.1 * PT2_STEP

TRACE_STEP = 0.005
SWEEP_ROWS = 4

TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    """Representative of ``angle`` modulo 2 pi in [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def _num(x: float) -> str:
    return repr(float(x))


@dataclass
class Plan:
    """One workload instance: the CLI calls of a pass and how to check them.

    ``calls`` are the argument lists of one timed pass, run in order.
    ``warmup`` runs once before the timed passes: the same subcommand on
    less work, on inputs far from every eigenvalue.
    ``outputs`` are the files a pass writes, compared byte for byte across
    passes together with each call's standard output.
    ``check`` returns the problems found in the outputs of the last pass.
    ``ops`` turns one pass's counters into the operations it attempted.
    """

    calls: list[list[str]]
    warmup: list[list[str]]
    outputs: list[Path]
    check: Callable[[], list[str]]
    ops: Callable[[dict], int]
    inputs: dict


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows and '#' lines (without the '# ') of a CLI CSV."""
    comments: list[str] = []
    data: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line:
                data.append(line)
    rows = list(csv.reader(data))
    return rows[0], rows[1:], comments


# --------------------------------------------------------------- kdv7-sweep


def _sweep_grid(rng: random.Random) -> tuple[float, float]:
    """Ends of a 4-row evenly spaced lambda grid in the criterion-1 window
    with exactly one kdv7 eigenvalue between consecutive rows, every row at
    least KDV7_MARGIN from every eigenvalue."""
    e1, e2, e3 = KDV7_EIGENVALUES
    m = KDV7_MARGIN
    lo = round(rng.uniform(-0.26, e1 - m - 0.005), 6)
    # row k = lo + k d; each row must lie in its gap between eigenvalues
    d_lo = max(e1 + m - lo, (e2 + m - lo) / 2, (e3 + m - lo) / 3)
    d_hi = min(e2 - m - lo, (e3 - m - lo) / 2, (KDV7_WINDOW[1] - lo) / 3)
    if not d_lo < d_hi:
        raise AssertionError(f"no feasible sweep spacing for lo={lo}")
    step = rng.uniform(d_lo + 0.1 * (d_hi - d_lo), d_hi - 0.1 * (d_hi - d_lo))
    return lo, round(lo + 3 * step, 6)


def kdv7_sweep(seed: int, out: Path) -> Plan:
    lo, hi = _sweep_grid(random.Random(seed))
    csv_path, json_path = out / "sweep.csv", out / "sweep.json"

    def argv(lam_lo: float, lam_hi: float, count: int, path: Path, *extra: str) -> list[str]:
        return ["sweep", "--model", "kdv7", "--backend", "both", "--workers", "1",
                f"--lambda-range={_num(lam_lo)}:{_num(lam_hi)}", "--lambda-count", str(count),
                *extra, "--out", str(path)]

    def check() -> list[str]:
        problems: list[str] = []
        header, rows, _ = _csv_rows(csv_path)
        if header != ["lambda", "theta_end_rad", "crossing_count", "end_flag", "status"]:
            return [f"sweep CSV header {header}"]
        if len(rows) != SWEEP_ROWS:
            return [f"sweep CSV has {len(rows)} rows, expected {SWEEP_ROWS}"]
        lams = [float(r[0]) for r in rows]
        counts = [int(r[2]) for r in rows]
        for want, got in zip((lo + k * (hi - lo) / 3 for k in range(SWEEP_ROWS)), lams):
            if abs(want - got) > 1e-12:
                problems.append(f"row lambda {got!r}, requested {want!r}")
        # status "ok" means the chart and unitary counts agree on the row
        bad = [r for r in rows if r[4] != "ok"]
        if bad:
            problems.append(f"rows not ok (chart/unitary disagree or skipped): {bad}")
        if any(b < a for a, b in zip(counts, counts[1:])):
            problems.append(f"counts decrease as lambda grows: {counts}")
        if counts[0] != 0:
            problems.append(f"lowest row lambda={lams[0]} counts {counts[0]}, expected 0")
        expected = [sum(e < lam for e in KDV7_EIGENVALUES) for lam in lams]
        if counts != expected:
            problems.append(f"counts {counts}, eigenvalues below the rows {expected}")
        with open(json_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        brackets = [(b["lambda_lo"], b["lambda_hi"], b["jump"])
                    for b in summary["detected_eigenvalues"]]
        if len(brackets) != 3:
            problems.append(f"{len(brackets)} brackets, criterion 1 expects 3: {brackets}")
        if not any(b_lo < 0.0 <= b_hi for b_lo, b_hi, _ in brackets):
            problems.append(f"no bracket holds the translation eigenvalue 0: {brackets}")
        for e in KDV7_EIGENVALUES:
            if sum(b_lo < e <= b_hi for b_lo, b_hi, _ in brackets) != 1:
                problems.append(f"eigenvalue {e} not in exactly one bracket: {brackets}")
        if summary["disagreements"] or summary["skipped"]:
            problems.append("sweep summary lists disagreements or skipped rows")
        return problems

    return Plan(
        calls=[argv(lo, hi, SWEEP_ROWS, csv_path)],
        warmup=[argv(-0.28, -0.22, 2, out / "warmup.csv", "--step", "0.1")],
        outputs=[csv_path, json_path],
        check=check,
        ops=lambda counters: SWEEP_ROWS,
        inputs={"lambda_range": [lo, hi], "lambda_count": SWEEP_ROWS, "x_steps": 4000},
    )


# --------------------------------------------------------------- pt2-refine


def _refine_bracket(rng: random.Random, e: float) -> tuple[float, float]:
    """Bracket around eigenvalue ``e`` whose width lies in (0.512, 1.024], so
    bisection to 1e-3 always takes the same number of halvings, with both
    ends at least 0.15 from ``e`` and from every other eigenvalue and 0."""
    width = rng.uniform(0.6, 0.95)
    below = rng.uniform(max(0.15, width - 0.6), min(0.6, width - 0.15))
    return round(e - below, 6), round(e - below + width, 6)


def pt2_refine(seed: int, out: Path) -> Plan:
    rng = random.Random(seed)
    brackets = [_refine_bracket(rng, e) for e in PT2_EIGENVALUES]
    paths = [out / f"refine{k + 1}.json" for k in range(len(brackets))]

    def argv(bracket: tuple[float, float], path: Path, tol_lambda: float) -> list[str]:
        return ["refine", "--model", "poschl_teller:2", "--backend", "unitary",
                "--workers", "1", f"--lambda-range={_num(bracket[0])}:{_num(bracket[1])}",
                "--tol-lambda", _num(tol_lambda), "--step", _num(PT2_STEP),
                "--out", str(path)]

    def check() -> list[str]:
        problems: list[str] = []
        for e, (lo, hi), path in zip(PT2_EIGENVALUES, brackets, paths):
            with open(path, encoding="utf-8") as fh:
                res = json.load(fh)
            err = abs(res["lambda_star"] - e)
            if err > PT2_TOL_LAMBDA + PT2_DISCRETIZATION_ALLOWANCE:
                problems.append(f"lambda* = {res['lambda_star']!r} is {err:.2e} from {e}")
            want_lo = sum(v < lo for v in PT2_EIGENVALUES)
            want_hi = sum(v < hi for v in PT2_EIGENVALUES)
            if (res["count_lo"], res["count_hi"]) != (want_lo, want_hi):
                problems.append(f"counts {res['count_lo']}->{res['count_hi']} on ({lo}, {hi}], "
                                f"closed form gives {want_lo}->{want_hi}")
            b_lo, b_hi = res["bracket"]
            if not (lo <= b_lo < b_hi <= hi and b_hi - b_lo <= PT2_TOL_LAMBDA):
                problems.append(f"final bracket {res['bracket']} not inside ({lo}, {hi}] "
                                f"or wider than {PT2_TOL_LAMBDA}")
        return problems

    return Plan(
        calls=[argv(b, p, PT2_TOL_LAMBDA) for b, p in zip(brackets, paths)],
        warmup=[argv(brackets[1], out / "warmup.json", 0.25)],
        outputs=paths,
        check=check,
        # one probe is one unitary-route row
        ops=lambda counters: counters["unitary_rows"],
        inputs={"brackets": brackets, "tol_lambda": PT2_TOL_LAMBDA,
                "x_steps": round(40.0 / PT2_STEP)},
    )


# --------------------------------------------------------------- kdv7-trace


def _trace_lambda(rng: random.Random) -> float:
    while True:
        lam = round(rng.uniform(*KDV7_WINDOW), 6)
        if all(abs(lam - e) >= 2 * KDV7_MARGIN for e in KDV7_EIGENVALUES):
            return lam


def kdv7_trace(seed: int, out: Path) -> Plan:
    lam = _trace_lambda(random.Random(seed))
    steps = round(40.0 / TRACE_STEP)
    csv_path = out / "trace.csv"

    def argv(value: float, step: float, path: Path) -> list[str]:
        return ["trace", "--model", "kdv7", "--backend", "both", "--workers", "1",
                f"--lambda={_num(value)}", "--step", _num(step), "--out", str(path)]

    def check() -> list[str]:
        problems: list[str] = []
        header, rows, comments = _csv_rows(csv_path)
        if len(rows) != steps + 1:
            return [f"trace CSV has {len(rows)} rows, expected {steps + 1}"]
        col = {name: i for i, name in enumerate(header)}
        phase_cols = [col[f"u_phase_{i}_rad"] for i in (1, 2, 3)]
        worst_det = worst_sum = 0.0
        for row in rows:
            theta = float(row[col["theta_rad"]])
            worst_det = max(worst_det, abs(_wrap(theta - float(row[col["det_phase_rad"]]))))
            phase_sum = sum(float(row[i]) for i in phase_cols)
            worst_sum = max(worst_sum, abs(_wrap(theta - phase_sum)))
        if worst_det > 1e-8:
            problems.append(f"theta and det phase differ by {worst_det:.2e} mod 2 pi")
        if worst_sum > 1e-8:
            problems.append(f"trace formula: sum of u phases and theta differ by "
                            f"{worst_sum:.2e} mod 2 pi")
        if float(rows[0][col["x"]]) != -20.0 or float(rows[-1][col["x"]]) != 20.0:
            problems.append("trace does not span x in [-20, 20]")
        crossings = [c for c in comments if c.startswith("crossings:")]
        want = sum(e < lam for e in KDV7_EIGENVALUES)
        if crossings != [f"crossings: {want}"]:
            problems.append(f"footer {crossings}, expected {want} eigenvalues below {lam}")
        return problems

    return Plan(
        calls=[argv(lam, TRACE_STEP, csv_path)],
        warmup=[argv(-0.25, 0.1, out / "warmup.csv")],
        outputs=[csv_path],
        check=check,
        ops=lambda counters: 1,
        inputs={"lambda": lam, "x_steps": steps},
    )


WORKLOADS = {"kdv7-sweep": kdv7_sweep, "pt2-refine": pt2_refine, "kdv7-trace": kdv7_trace}
