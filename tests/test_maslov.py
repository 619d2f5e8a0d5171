import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maslovflow import (
    ConfigError,
    CrossingRecord,
    HyperbolicityError,
    ModelSpec,
    SymmetricChart,
    cayley,
    end_intersection_dimension,
    get_model,
    integrate_chart,
    integrate_unitary,
    refine_eigenvalue,
    run_trace,
    sweep_lambda,
    validate_coefficients,
)
from maslovflow.errors import BackendDisagreementError, StepSizeError, StructureError
from maslovflow.maslov import SweepRow
from maslovflow.riccati import (
    _check_theta_steps,
    _count_steps,
    _principal_phases,
    _unwound_theta,
)
from conftest import constant_field
from oracles import branch_passages


def _grid(n=4001, lo=-20.0, hi=20.0):
    return np.linspace(lo, hi, n)


def scripted_path(grid, branches, v=None):
    """The eigenphases and the exact angle of u = V diag(exp(i branches))
    V^T, the angle being the sum of the continuous eigenphase branches
    (N, n), and the crossings ``_count_steps`` counts from them."""
    branches = np.asarray(branches, dtype=float).reshape(grid.size, -1)
    v = np.eye(branches.shape[1]) if v is None else v
    us = np.einsum("ij,mj,kj->mik", v, np.exp(1j * branches), v)
    phases = _principal_phases(np.angle(np.linalg.eigvals(us)))
    theta = branches.sum(axis=1)
    return phases, theta, _count_steps(grid, phases, theta)


def scripted_count(grid, branches):
    """The crossings alone of ``scripted_path``."""
    return scripted_path(grid, branches)[2]


class TestDetectCrossings:
    def test_constant_path_has_none(self):
        grid = np.linspace(0, 1, 11)
        assert scripted_count(grid, np.zeros((11, 2))).crossings == ()

    def test_scripted_scalar_crossing(self):
        grid = np.linspace(-0.5, 0.5, 101)
        crossings = scripted_count(grid, np.pi + grid).crossings
        assert len(crossings) == 1
        rec = crossings[0]
        assert rec.multiplicity == 1
        assert rec.direction == +1
        assert abs(rec.x) < 1e-12

    def test_scripted_decreasing_crossing(self):
        grid = np.linspace(-0.5, 0.5, 101)
        crossings = scripted_count(grid, np.pi - grid).crossings
        assert len(crossings) == 1
        assert crossings[0].direction == -1

    def test_double_crossing_multiplicity(self):
        grid = np.linspace(-0.5, 0.5, 101)
        phase = np.pi + grid
        crossings = scripted_count(grid, np.column_stack([phase, phase + 0.3])).crossings
        assert sum(c.multiplicity for c in crossings) == 2
        assert all(c.direction == +1 for c in crossings)

    def test_coincident_double_crossing_single_record(self):
        # two phases passing pi together: the angle counts both, one direction
        grid = np.linspace(-0.5, 0.5, 101)
        phase = np.pi + grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crossings = scripted_count(grid, np.column_stack([phase, phase])).crossings
        assert len(crossings) == 1
        assert crossings[0].multiplicity == 2
        assert crossings[0].direction == +1

    @pytest.mark.parametrize("lam,expected", [(-5.0, 0), (-2.0, 1), (-0.5, 2)])
    def test_poschl_teller_counts(self, lam, expected):
        field = get_model("poschl_teller:2")
        trace = run_trace(field, lam, _grid(), backend="unitary")
        assert trace.result.unsigned_count == expected

    def test_big_step_rejected(self):
        # a rotation field turning the phase of u by 2 w h = 0.6 per step:
        # the angle passes its gate, the change of u does not
        w = np.eye(1)
        field = constant_field(validate_coefficients(0 * w, w, -w, 0 * w), 0.0, 0.6)
        grid = np.linspace(0.0, 0.6, 3)
        with pytest.raises(StepSizeError, match="u samples differ by 0.591"):
            integrate_unitary(field, 0.0, grid, cayley(SymmetricChart(np.zeros((1, 1)))))

    def test_phase_motion_gate(self):
        # the phase gate alone, without the unitary route's u-jump gate
        phases = np.array([[0.0], [0.5], [1.5]])
        with pytest.raises(StepSizeError,
                           match="lost at sample 2: step moved a phase by 1.000 rad"):
            _count_steps(np.arange(3.0), phases, phases[:, 0])
        # both integrators run it: a field turning one phase, along
        # (1, 1, 1, 1) / 2, by 0.8 > pi/4 in one step, which changes no entry
        # of u by as much as 0.2
        p = np.full((4, 4), 0.25)
        field = constant_field(validate_coefficients(0 * p, 0.4 * p, -0.4 * p, 0 * p), 0.0, 1.0)
        grid = np.array([0.0, 1.0])
        for integrate, start in ((integrate_chart, SymmetricChart(np.zeros((4, 4)))),
                                 (integrate_unitary, cayley(SymmetricChart(np.zeros((4, 4)))))):
            with pytest.raises(StepSizeError,
                               match="lost at sample 1: step moved a phase by 0.800 rad"):
                integrate(field, 0.0, grid, start)

    def test_summed_motion_gate(self):
        # five phases, each moving 0.7 < pi/4 without passing another, in all 3.5 >= pi
        start = np.array([-2.0, -1.2, -0.4, 0.4, 1.2])
        phases = np.stack([start, start + 0.7 * np.array([-1, -1, -1, 1, 1])])
        with pytest.raises(StepSizeError, match="moved the phases by 3.500 rad in all, >= pi"):
            _count_steps(np.arange(2.0), phases, phases.sum(axis=1))

    def test_chart_step_moving_pi_in_net_refused(self):
        # five phases each turning 0.7 per step, one of them passing pi in
        # the first step: the net motion 3.5 >= pi aliases the unwound angle
        # by -2 pi, and the parity of the Moebius denominator shows it
        w = 0.35 * np.eye(5)
        field = constant_field(validate_coefficients(0 * w, w, -w, 0 * w), 0.0, 10.0)
        s0 = SymmetricChart(np.diag(-np.tan(0.5 * np.array([-2.463, -1.207, 0.05, 1.307, 2.563]))))
        grid = np.linspace(0.0, 10.0, 11)
        with pytest.raises(StepSizeError, match="chart angle lost at sample 1: net passage count 0"):
            integrate_chart(field, 0.0, grid, s0)
        with pytest.raises(StepSizeError, match="theta moved 3.500 >= pi"):
            integrate_unitary(field, 0.0, grid, cayley(s0))
        # ten times finer, both routes count the six passages
        grid = np.linspace(0.0, 10.0, 101)
        result = integrate_chart(field, 0.0, grid, s0).result
        assert result.unsigned_count == result.signed_index == 6
        assert integrate_unitary(field, 0.0, grid, cayley(s0)).result.signed_index == 6


# largest per-step motion of a generated branch, just below PHASE_MATCH_REJECT
MOTION = 0.78
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def branch_paths(draw, n_min=1, low=0.0, net_max=None, total_max=None):
    """Continuous eigenphase branches (N, n), n up to 5, each moving by
    ``low`` to ``MOTION`` per step in either direction, a step's motions
    scaled down where their sum (``net_max``) or absolute sum
    (``total_max``) exceeds the bound, and a random real orthogonal V (n, n).
    No sample lies within 1e-9 of pi, where roundoff alone decides the side."""
    n = draw(st.integers(n_min, 5))
    steps = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    motions = rng.choice([-1.0, 1.0], (steps, n)) * rng.uniform(low, MOTION, (steps, n))
    if net_max is not None:
        motions *= (net_max / np.maximum(np.abs(motions.sum(axis=1)), net_max))[:, None]
    if total_max is not None:
        motions *= (total_max / np.maximum(np.abs(motions).sum(axis=1), total_max))[:, None]
    branches = rng.uniform(-4.0, 4.0, n) + np.concatenate(
        [np.zeros((1, n)), np.cumsum(motions, axis=0)])
    assume(np.all(np.abs(np.mod(branches, 2.0 * np.pi) - np.pi) > 1e-9))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return branches, v


def _count_exact(branches, v):
    """The phase gates and the count on u = V diag(exp(i branches)) V^T and
    the exact angle; returns the phases, the angle and the count."""
    return scripted_path(np.linspace(0.0, 1.0, branches.shape[0]), branches, v)


def _count_unwound(branches, v):
    """The chart route's gates and count on s = V diag(-tan(branches / 2))
    V^T, with the angle the chart path unwinds from its eigenvalues and the
    denominator sign of each step, -1 where the branches pass pi an odd
    number of times; returns the phases, the angle and the count."""
    grid = np.linspace(0.0, 1.0, branches.shape[0])
    charts = np.einsum("ij,mj,kj->mik", v, -np.tan(0.5 * branches), v)
    mu = np.linalg.eigvalsh(charts)
    up, down = branch_passages(branches)
    signs = np.where((up + down) % 2 == 1, -1.0, 1.0)
    phases, theta = _principal_phases(-2.0 * np.arctan(mu)), _unwound_theta(mu)
    _check_theta_steps(theta)
    return phases, theta, _count_steps(grid, phases, theta, signs)


def _assert_winding(phases, theta, result):
    """End-point winding (theta_end - theta_0 - sum phi_end + sum phi_0) / 2 pi
    equal to the per-step signed count."""
    winding = (theta[-1] - theta[0] - phases[-1].sum() + phases[0].sum()) / (2.0 * np.pi)
    assert abs(winding - result.signed_index) < 1e-9


def _assert_counts_right(counted, branches):
    """Signed index equal to the reference and to the end-point winding;
    unsigned count and per-step directions too when no step holds passages
    in both directions."""
    phases, theta, result = counted
    _assert_winding(phases, theta, result)
    up, down = branch_passages(branches)
    assert result.signed_index == int(np.sum(up - down))
    if np.any((up > 0) & (down > 0)):
        return
    assert result.unsigned_count == int(np.sum(up + down))
    grid = np.linspace(0.0, 1.0, branches.shape[0])
    steps = np.flatnonzero(up + down)
    assert [(c.direction, c.multiplicity) for c in result.crossings] == [
        (1 if up[m] else -1, int(up[m] + down[m])) for m in steps]
    for c, m in zip(result.crossings, steps):
        assert grid[m] <= c.x <= grid[m + 1]


@pytest.mark.parametrize("count", [_count_exact, _count_unwound], ids=["exact", "unwound"])
class TestCountProperties:
    """The count from the angle against passages read branch by branch."""

    @PROPERTY_SETTINGS
    @given(path=branch_paths(total_max=3.0))
    def test_counts_right_below_pi(self, count, path):
        # each step's motions sum in absolute value below pi: no gate fires
        _assert_counts_right(count(*path), path[0])

    @PROPERTY_SETTINGS
    @given(path=branch_paths(n_min=5, low=0.63, net_max=3.0))
    def test_summed_motion_at_pi_refused_or_right(self, count, path):
        # five phases moving 0.63 or more: the absolute sum reaches pi; the
        # net motion stays below pi, beyond which the samples alone cannot
        # tell the angle's branch
        try:
            result = count(*path)
        except StepSizeError:
            return
        _assert_counts_right(result, path[0])


@PROPERTY_SETTINGS
@given(path=branch_paths(n_min=4, low=0.5))
def test_exact_angle_refuses_or_counts_right_at_any_motion(path):
    try:
        result = _count_exact(*path)
    except StepSizeError:
        return
    _assert_counts_right(result, path[0])


@st.composite
def turning_combs(draw):
    """Five or six phases spread about evenly round the circle, all turning
    the same way by 0.64 to 0.78 per step. A step's net motion lies between
    pi and 3 pi, so the unwound angle is 2 pi short, and the matching that
    angle picks, each phase continuing as the one behind it, moves every
    phase by less than pi/4."""
    n = draw(st.integers(5, 6))
    steps = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.uniform(-np.pi, np.pi) + 2.0 * np.pi * np.arange(n) / n + rng.uniform(-0.05, 0.05, n)
    motions = rng.choice([-1.0, 1.0]) * (rng.uniform(0.66, 0.76, (steps, 1))
                                         + rng.uniform(-0.02, 0.02, (steps, n)))
    branches = start + np.concatenate([np.zeros((1, n)), np.cumsum(motions, axis=0)])
    assume(np.all(np.abs(np.mod(branches, 2.0 * np.pi) - np.pi) > 1e-9))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return branches, v


@PROPERTY_SETTINGS
@given(path=turning_combs())
def test_unwound_angle_refuses_or_counts_right_below_3pi(path):
    # the denominator parity shows the angle 2 pi short
    try:
        result = _count_unwound(*path)
    except StepSizeError:
        return
    _assert_counts_right(result, path[0])


class TestMaslovIndex:
    def test_empty(self):
        grid = np.linspace(0.0, 1.0, 3)
        res = _count_steps(grid, np.zeros((3, 2)), np.zeros(3))
        assert res.crossings == ()
        assert res.unsigned_count == 0 and res.signed_index == 0

    def test_arithmetic(self):
        # one phase passes pi upward in the first step, two downward in the second
        grid = np.linspace(0.0, 1.0, 3)
        branches = np.array([[np.pi - 0.1, 0.1 - np.pi, 0.1 - np.pi],
                             [np.pi + 0.1, 0.1 - np.pi, 0.1 - np.pi],
                             [np.pi + 0.1, -0.1 - np.pi, -0.1 - np.pi]])
        res = scripted_count(grid, branches)
        assert [(c.direction, c.multiplicity) for c in res.crossings] == [(1, 1), (-1, 2)]
        assert res.unsigned_count == 3
        assert res.signed_index == -1

    def test_direction_zero_refused(self):
        with pytest.raises(StructureError, match="direction"):
            CrossingRecord(x=0.0, multiplicity=1, direction=0)

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
        chart_count = trace.chart_path.result.unsigned_count
        assert trace.result.unsigned_count == chart_count == 1
        for path in (trace.chart_path, trace.unitary_path):
            _assert_winding(path.phases, path.theta, path.result)

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
        flag, _ = _end_of_interval_flag(crossings, grid, np.zeros(1), u_end, None)
        assert flag

    def test_end_flag_fires_when_final_plane_hugs_train(self):
        from maslovflow.maslov import _end_of_interval_flag

        grid = np.linspace(0.0, 1.0, 101)
        u_end = np.diag([np.exp(1j * (np.pi - 5e-4)), 1.0 + 0j])
        flag, _ = _end_of_interval_flag([], grid, np.angle(np.diag(u_end)), u_end, None)
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
        total = left.result.unsigned_count + right_path.result.unsigned_count
        assert total == full.result.unsigned_count == 2


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

        def failing(field, lam, grid, backend):
            if lam == lam_grid[1]:
                raise StepSizeError("forced")
            return real(field, lam, grid, backend)

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

    def test_backend_outside_backends_refused(self):
        with pytest.raises(ConfigError, match="backend must be one of"):
            refine_eigenvalue("poschl_teller:2", -4.5, -3.5, _grid(1001), backend="bogus")

    def test_disagreeing_probe_raises(self, monkeypatch):
        import maslovflow.maslov as maslov_mod

        real = maslov_mod.integrate_chart

        def one_more(*args, **kwargs):
            # the chart route counts one crossing more than the unitary route
            path = real(*args, **kwargs)
            result = dataclasses.replace(path.result, unsigned_count=path.result.unsigned_count + 1)
            return dataclasses.replace(path, result=result)

        monkeypatch.setattr(maslov_mod, "integrate_chart", one_more)
        with pytest.raises(BackendDisagreementError, match="lambda=-4.5: chart=1 unitary=0"):
            refine_eigenvalue("poschl_teller:2", -4.5, -3.5, _grid(1001), backend="both")

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # a tol_lambda below the float spacing of the bracket: the midpoint
        # of adjacent floats is one of them and the bracket stops shrinking
        import maslovflow.maslov as maslov_mod

        probes = []

        def instant(field, lam, grid, backend):
            probes.append(lam)
            if len(probes) > 200:
                raise RuntimeError("still bisecting after 200 probes")
            return SweepRow(lam=lam, status="ok", reason="", theta_end=0.0,
                            crossing_count=int(lam > -4.0), end_flag=False)

        monkeypatch.setattr(maslov_mod, "_sweep_row", instant)
        res = refine_eigenvalue("poschl_teller:2", -4.5, -3.5, _grid(101), tol_lambda=1e-20)
        assert res.bracket_lo == -4.0 and res.bracket_hi == np.nextafter(-4.0, 0.0)
        for tol in (0.0, -1e-3, float("nan")):
            with pytest.raises(ConfigError, match="tol_lambda must be positive"):
                refine_eigenvalue("poschl_teller:2", -4.5, -3.5, _grid(101), tol_lambda=tol)


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
