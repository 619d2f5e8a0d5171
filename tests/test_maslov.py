import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maslovflow

from maslovflow import (
    ConfigError,
    CrossingRecord,
    HyperbolicityError,
    ModelSpec,
    detect_crossings,
    crossings_from_chart,
    end_intersection_dimension,
    get_model,
    maslov_index,
    refine_eigenvalue,
    run_trace,
    sweep_lambda,
)
from maslovflow.errors import StepSizeError, StructureError
from maslovflow.tolerances import CHART_TOL


def _grid(n=4001, lo=-20.0, hi=20.0):
    return np.linspace(lo, hi, n)


class TestDetectCrossings:
    def test_constant_path_has_none(self):
        grid = np.linspace(0, 1, 11)
        us = np.tile(np.eye(2, dtype=complex), (11, 1, 1))
        assert detect_crossings(us, grid) == []

    def test_scripted_scalar_crossing(self):
        grid = np.linspace(-0.5, 0.5, 101)
        us = np.exp(1j * (np.pi + grid))[:, None, None]
        crossings = detect_crossings(us, grid)
        assert len(crossings) == 1
        rec = crossings[0]
        assert rec.multiplicity == 1
        assert rec.direction == +1
        assert abs(rec.x) < 1e-12

    def test_scripted_decreasing_crossing(self):
        grid = np.linspace(-0.5, 0.5, 101)
        us = np.exp(1j * (np.pi - grid))[:, None, None]
        crossings = detect_crossings(us, grid)
        assert len(crossings) == 1
        assert crossings[0].direction == -1

    def test_double_crossing_multiplicity(self):
        grid = np.linspace(-0.5, 0.5, 101)
        phase = np.pi + grid
        us = np.zeros((101, 2, 2), dtype=complex)
        us[:, 0, 0] = np.exp(1j * phase)
        us[:, 1, 1] = np.exp(1j * (phase + 0.3))
        crossings = detect_crossings(us, grid)
        assert sum(c.multiplicity for c in crossings) == 2
        assert all(c.direction == +1 for c in crossings)

    def test_coincident_double_crossing_single_record(self):
        grid = np.linspace(-0.5, 0.5, 101)
        us = np.zeros((101, 2, 2), dtype=complex)
        us[:, 0, 0] = np.exp(1j * (np.pi + grid))
        us[:, 1, 1] = np.exp(1j * (np.pi + grid))
        with pytest.warns(UserWarning, match="resolution"):
            crossings = detect_crossings(us, grid)
        assert len(crossings) == 1
        assert crossings[0].multiplicity == 2
        assert crossings[0].direction == 0

    @pytest.mark.parametrize("lam,expected", [(-5.0, 0), (-2.0, 1), (-0.5, 2)])
    def test_poschl_teller_counts(self, lam, expected):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, lam, _grid(), backend="unitary")
        assert trace.result.unsigned_count == expected

    def test_big_step_rejected(self):
        from maslovflow.errors import StepSizeError

        grid = np.linspace(0, 1, 3)
        us = np.stack([np.eye(1, dtype=complex),
                       -np.eye(1, dtype=complex),
                       np.eye(1, dtype=complex)])
        with pytest.raises(StepSizeError):
            detect_crossings(us, grid)


class TestMaslovIndex:
    def test_empty(self):
        res = maslov_index([])
        assert res.unsigned_count == 0 and res.signed_index == 0

    def test_arithmetic(self):
        crossings = [CrossingRecord(x=0.0, multiplicity=1, direction=+1),
                     CrossingRecord(x=3.0, multiplicity=2, direction=-1)]
        res = maslov_index(crossings)
        assert res.unsigned_count == 3
        assert res.signed_index == -1
        assert not res.sign_incomplete

    def test_direction_zero_sets_flag(self):
        res = maslov_index([CrossingRecord(x=0.0, multiplicity=1, direction=0)])
        assert res.unsigned_count == 1 and res.signed_index == 0
        assert res.sign_incomplete

    def test_poschl_teller_monotone_directions(self):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, -0.5, _grid(), backend="unitary")
        assert trace.result.unsigned_count == 2
        dirs = {c.direction for c in trace.result.crossings}
        assert len(dirs) == 1 and 0 not in dirs


class TestRunTrace:
    def test_backend_both_counts_agree(self):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, -2.0, _grid(2001), backend="both")
        chart_count = sum(c.multiplicity
                          for c in crossings_from_chart(trace.chart_path))
        assert trace.result.unsigned_count == chart_count == 1

    def test_identity_fallback_at_non_hyperbolic_lambda(self):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, 0.5, _grid(2001), backend="unitary", init="auto")
        assert trace.init_mode == "identity"
        with pytest.raises(HyperbolicityError):
            run_trace(field, 0.5, _grid(2001), backend="unitary", init="farfield")

    def test_end_flag_fires_for_edge_crossing(self):
        from maslovflow.maslov import _end_of_interval_flag

        grid = np.linspace(0.0, 1.0, 101)
        crossings = [CrossingRecord(x=0.995, multiplicity=1, direction=1)]
        u_end = np.eye(1, dtype=complex)
        flag, _ = _end_of_interval_flag(crossings, grid, u_end, None, CHART_TOL)
        assert flag

    def test_end_flag_fires_when_final_plane_hugs_train(self):
        from maslovflow.maslov import _end_of_interval_flag

        grid = np.linspace(0.0, 1.0, 101)
        u_end = np.diag([np.exp(1j * (np.pi - 5e-4)), 1.0 + 0j])
        flag, _ = _end_of_interval_flag([], grid, u_end, None, CHART_TOL)
        assert flag

    def test_end_flag_quiet_away_from_eigenvalues(self):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, -2.5, _grid(), backend="unitary")
        assert not trace.end_flag

    def test_index_additivity_in_x(self):
        field = get_model("poschl_teller:2")
        lam = -0.5
        full = run_trace(field, lam, _grid(4001), backend="unitary")
        # split at an interior non-crossing point (grid point -4.0)
        left = run_trace(field, lam, np.linspace(-20, -4, 1601), backend="unitary")
        # right part: start from the left part's end plane
        from maslovflow import UnitarySymmetric, integrate_unitary

        right_grid = np.linspace(-4, 20, 2401)
        u_mid = UnitarySymmetric(left.unitary_path.us[-1])
        right_path = integrate_unitary(field, lam, right_grid, u_mid)
        right_crossings = detect_crossings(right_path)
        total = left.result.unsigned_count + sum(c.multiplicity for c in right_crossings)
        assert total == full.result.unsigned_count == 2


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is only needed once crossings are detected
    src = str(Path(maslovflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, maslovflow; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestSweep:
    def test_poschl_teller_two_brackets(self):
        table = sweep_lambda("poschl_teller:2", np.linspace(-5, -0.2, 49),
                             _grid(2001), backend="both")
        assert len(table.detected_eigenvalues) == 2
        (lo1, hi1, j1), (lo2, hi2, j2) = table.detected_eigenvalues
        assert lo1 <= -4.0 <= hi1 + 1e-9 and j1 == 1
        assert lo2 <= -1.0 <= hi2 + 1e-9 and j2 == 1
        assert not table.has_disagreement()

    def test_counts_constant_on_gap_interval(self):
        # lambda range strictly below the ground state: constant counts,
        # no brackets
        table = sweep_lambda("poschl_teller:2", np.linspace(-6.0, -4.5, 7),
                             _grid(2001), backend="unitary")
        assert len(table.detected_eigenvalues) == 0
        counts = {r.crossing_count for r in table.rows if r.status == "ok"}
        assert counts == {0}

    def test_non_hyperbolic_rows_skipped_and_flagged(self):
        table = sweep_lambda("poschl_teller:2", np.linspace(-1.0, 0.5, 7),
                             _grid(1001), backend="unitary")
        skipped = [r for r in table.rows if r.status == "skipped"]
        assert all(r.lam >= 0 for r in skipped)
        assert len(skipped) == 3  # lambda = 0.0, 0.25, 0.5
        assert all("essential" in r.reason or "hyperbolic" in r.reason for r in skipped)

    def test_monotone_counts_poschl_teller(self):
        table = sweep_lambda("poschl_teller:2", np.linspace(-5, -0.2, 25),
                             _grid(2001), backend="unitary")
        counts = [r.crossing_count for r in table.rows if r.status == "ok"]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_theta_jump_localization(self):
        table = sweep_lambda("poschl_teller:2", np.linspace(-5, -0.2, 25),
                             _grid(2001), backend="unitary")
        rows = [r for r in table.rows if r.status == "ok"]
        bracket_los = {lo for lo, _, _ in table.detected_eigenvalues}
        for a, b in zip(rows, rows[1:]):
            jumped = abs(b.theta_end - a.theta_end) > np.pi / 2
            increments = b.crossing_count > a.crossing_count
            if jumped:
                assert increments, f"theta jumped without count increment at {b.lam}"
            if increments:
                assert a.lam in bracket_los

    def test_error_rows_excluded_from_brackets(self, monkeypatch):
        import maslovflow.maslov as maslov_mod

        lam_grid = np.linspace(-5, -0.2, 7)
        clean = sweep_lambda("poschl_teller:2", lam_grid, _grid(1001), backend="unitary")
        real = maslov_mod._sweep_row

        def failing(field, lam, grid, backend, chart_tol):
            if lam == lam_grid[1]:
                raise StepSizeError("forced")
            return real(field, lam, grid, backend, chart_tol)

        # a row that errors drops out, so its neighbours bracket the jump
        monkeypatch.setattr(maslov_mod, "_sweep_row", failing)
        table = sweep_lambda("poschl_teller:2", lam_grid, _grid(1001), backend="unitary")
        assert table.rows[1].status == "error" and table.rows[1].reason == "forced"
        assert table.rows[:1] + table.rows[2:] == clean.rows[:1] + clean.rows[2:]
        assert (lam_grid[0], lam_grid[2], 1) in table.detected_eigenvalues

    def test_workers_give_identical_table(self):
        lam_grid = np.linspace(-5, -0.2, 13)
        t1 = sweep_lambda("poschl_teller:2", lam_grid, _grid(1001), backend="unitary", workers=1)
        t2 = sweep_lambda("poschl_teller:2", lam_grid, _grid(1001), backend="unitary", workers=4)
        assert t1.rows == t2.rows
        assert t1.detected_eigenvalues == t2.detected_eigenvalues

    def test_bad_lambda_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_lambda("poschl_teller:2", np.array([]), _grid(101))
        with pytest.raises(ConfigError):
            sweep_lambda("poschl_teller:2", np.array([0.1, 0.0]), _grid(101))


class TestRefine:
    def test_ground_state(self):
        res = refine_eigenvalue("poschl_teller:2", -4.5, -3.5, _grid(2001), tol_lambda=1e-3)
        assert abs(res.lam_star - (-4.0)) < 1e-3
        assert res.count_lo == 0 and res.count_hi == 1

    def test_excited_state(self):
        res = refine_eigenvalue("poschl_teller:2", -1.5, -0.5, _grid(2001), tol_lambda=1e-3)
        assert abs(res.lam_star - (-1.0)) < 1e-3

    def test_equal_counts_rejected(self):
        with pytest.raises(ConfigError, match="equal"):
            refine_eigenvalue("poschl_teller:2", -3.5, -2.5, _grid(1001))

    def test_failing_probe_raises(self):
        # at h = 0.5 the unitary route's theta moves by more than pi in a step
        with pytest.raises(StepSizeError):
            refine_eigenvalue("poschl_teller:3", -10.0, -0.5, _grid(81))


class TestEndIntersection:
    def test_identical_planes(self):
        u = np.diag([1j, -1j]).astype(complex)
        assert end_intersection_dimension(u, u) == 2

    def test_distinct_planes(self):
        assert end_intersection_dimension(np.eye(2, dtype=complex),
                                          -np.eye(2, dtype=complex)) == 0

    def test_one_common_direction(self):
        u1 = np.diag([1.0 + 0j, 1j])
        u2 = np.diag([1.0 + 0j, -1j])
        assert end_intersection_dimension(u1, u2) == 1
