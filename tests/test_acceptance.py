"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Seeds, cases and bounds are pinned here and nowhere else; criteria 2,
3, 4 and 6 run the ``maslovflow selftest`` checks on these inputs.
"""

import time

import numpy as np
import pytest

from maslovflow import (
    chart_from_frame,
    farfield_frame,
    get_model,
    integrate_chart,
    integrate_unitary,
    refine_eigenvalue,
    sweep_lambda,
    unitary_from_frame,
)
from maslovflow.selftest import (
    check_route_agreement,
    check_theorem1,
    check_trace_formula,
    check_unitarity_drift,
)
from oracles import poschl_teller_eigenvalues


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


def test_criterion_1_kdv7_eigenvalue_count():
    """Sweep kdv7 over lambda in [-0.3, 0.15], step 0.005, x in [-20, 20]
    with 4000 steps, both backends: exactly 3 eigenvalue brackets, with the
    two backends counting identically on every row."""
    lam_grid = np.linspace(-0.3, 0.15, 91)
    x_grid = np.linspace(-20.0, 20.0, 4001)
    start = time.perf_counter()
    table = sweep_lambda("kdv7", lam_grid, x_grid, backend="both", workers=4)
    elapsed = time.perf_counter() - start

    ok_rows = [r for r in table.rows if r.status == "ok"]
    backends_agree = all(r.count_chart == r.count_unitary for r in ok_rows)
    no_disagreements = not table.has_disagreement()
    all_rows_ok = len(ok_rows) == len(table.rows)
    three_brackets = len(table.detected_eigenvalues) == 3
    passed = backends_agree and no_disagreements and three_brackets and all_rows_ok
    _report(1, passed,
            f"{len(table.detected_eigenvalues)} brackets "
            f"{[(round(lo, 3), round(hi, 3)) for lo, hi, _ in table.detected_eigenvalues]}, "
            f"backends identical on {len(ok_rows)}/{len(table.rows)} rows, "
            f"{elapsed:.1f}s with 4 workers")
    assert three_brackets
    assert backends_agree and no_disagreements
    assert all_rows_ok


def test_criterion_2_trace_formula():
    """|arg det Cay(s) + 2 tr arctan(s)| mod 2 pi below 1e-10 for 200 random
    symmetric matrices with n in 1..6 and entries in [-5, 5]."""
    report = check_trace_formula(np.random.default_rng(42), 1e-10)
    _report(2, report.passed, f"max defect {report.max_defect:.3e} over 200 draws (bound 1e-10)")
    assert report.passed


def test_criterion_3_theorem1_equivalence():
    """50 synthetic frames with planted rank losses k in {0,1,2,3} (n = 4):
    singular eigenvalue count = n - rank(q) = total-frame rank loss."""
    report = check_theorem1(np.random.default_rng(7), 0.5)
    mismatches = int(report.max_defect)
    passed = mismatches == 0
    _report(3, passed, f"{50 - mismatches}/50 frames with all three counts equal")
    assert passed


def test_criterion_4_unitary_flow_robustness():
    """kdv7 at lambda = 0.15 over 1e4 steps without re-projection: unitarity
    and symmetry defects both below 1e-9, and no step re-projected."""
    report = check_unitarity_drift(1e-9)
    _report(4, report.passed,
            f"unitarity and symmetry defect {report.max_defect:.3e} (bound 1e-9; {report.detail})")
    assert report.passed


def test_criterion_5_oracle_eigenvalue_counting():
    """Poeschl-Teller m = 2: the sweep finds exactly 2 brackets and refine
    localizes the eigenvalues to -4 and -1 within 1e-3 of the closed form
    (itself verified against the shooting oracle in test_oracles.py)."""
    x_grid = np.linspace(-20.0, 20.0, 2001)
    table = sweep_lambda("poschl_teller:2", np.linspace(-5.0, -0.2, 25), x_grid,
                         backend="both")
    two = len(table.detected_eigenvalues) == 2
    r1 = refine_eigenvalue("poschl_teller:2", -4.5, -3.5, x_grid, tol_lambda=1e-3)
    r2 = refine_eigenvalue("poschl_teller:2", -1.5, -0.5, x_grid, tol_lambda=1e-3)
    ground, excited = poschl_teller_eigenvalues(2)
    ok1 = abs(r1.lam_star - ground) <= 1e-3
    ok2 = abs(r2.lam_star - excited) <= 1e-3
    passed = two and ok1 and ok2
    _report(5, passed,
            f"{len(table.detected_eigenvalues)} brackets; refined to "
            f"{r1.lam_star:.6f} (target -4) and {r2.lam_star:.6f} (target -1)")
    assert passed


def test_criterion_6_route_agreement():
    """On singularity-free stretches (all |mu_i| < 10) of every test trace,
    theta from the chart trace formula (-2 tr arctan s, anchored once) and
    theta from sigma accumulation agree within 1e-5."""
    cases = [("poschl_teller:2", -5.0), ("poschl_teller:2", -2.0),
             ("poschl_teller:2", -0.5), ("kdv7", -0.25), ("kdv7", 0.05),
             ("kdv7", 0.15)]
    report = check_route_agreement(cases, 1e-5)
    _report(6, report.passed,
            f"max route gap {report.max_defect:.3e} over {len(cases)} traces (bound 1e-5)")
    assert report.passed


def test_criterion_7_stepper_convergence():
    """Richardson refinement on kdv7 at lambda = 0.15, slopes over h, h/2,
    h/4 measured against an h/64 reference: observed order >= 1 for the
    Lie-algebra Euler scheme and >= 2 for the midpoint-frozen Moebius chart
    stepper."""
    field = get_model("kdv7")
    lam = 0.15
    frame = farfield_frame(field.farfield_minus(lam), "unstable")
    u0 = unitary_from_frame(frame)
    s0 = chart_from_frame(frame)

    def u_end(nsteps):
        grid = np.linspace(-20.0, 20.0, nsteps + 1)
        return integrate_unitary(field, lam, grid, u0).us[-1]

    def s_end(nsteps):
        grid = np.linspace(-20.0, 20.0, nsteps + 1)
        return integrate_chart(field, lam, grid, s0).charts[-1]

    base = 1000
    u_ref = u_end(base * 64)
    u_errs = np.array([np.max(np.abs(u_end(base * k) - u_ref)) for k in (1, 2, 4)])
    u_slopes = np.log2(u_errs[:-1] / u_errs[1:])

    s_ref = s_end(base * 64)
    s_errs = np.array([np.max(np.abs(s_end(base * k) - s_ref)) for k in (1, 2, 4)])
    s_slopes = np.log2(s_errs[:-1] / s_errs[1:])

    euler_ok = bool(np.all(u_slopes >= 1.0))
    mobius_ok = bool(np.all(s_slopes >= 2.0))
    passed = euler_ok and mobius_ok
    _report(7, passed,
            f"Euler slopes {np.round(u_slopes, 3).tolist()} (>= 1), "
            f"Moebius slopes {np.round(s_slopes, 3).tolist()} (>= 2)")
    assert euler_ok
    assert mobius_ok
