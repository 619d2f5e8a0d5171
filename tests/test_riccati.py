import numpy as np
import pytest

from maslovflow import (
    StructureError,
    SymmetricChart,
    chart_from_frame,
    farfield_frame,
    get_model,
    integrate_chart,
    mat_exp,
    poschl_teller_field,
    singular_eigenvalue_count,
    singular_threshold,
    validate_coefficients,
)
from maslovflow.riccati import BLOCK_STEPS, _mobius_apply
from maslovflow.selftest import planted_rank_loss_frame
from maslovflow.tolerances import CHART_TOL
from conftest import constant_field, random_lagrangian_frame
from oracles import (
    poschl_teller_potential,
    riccati_rhs,
    shooting_node_count,
    unstable_chart_fixed_point,
)


def _random_coeffs(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    return validate_coefficients(a, 0.5 * (b + b.T), 0.5 * (c + c.T), -a.T)


def _chart_steps(coeffs, s, steps):
    """Chart after integrate_chart takes the given steps on a constant field;
    each step applies exp(h A) through the Moebius action."""
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    return integrate_chart(constant_field(coeffs), 0.0, grid, s).charts[-1]


class TestRiccatiRhs:
    def test_zero_chart_gives_c(self, rng):
        coeffs = _random_coeffs(rng, 3)
        rhs = riccati_rhs(SymmetricChart(np.zeros((3, 3))), coeffs)
        assert np.allclose(rhs, coeffs.c)

    def test_pure_c_field(self, rng):
        c = rng.standard_normal((2, 2))
        coeffs = validate_coefficients(np.zeros((2, 2)), np.zeros((2, 2)),
                                       0.5 * (c + c.T), np.zeros((2, 2)))
        s = SymmetricChart(rng.standard_normal((2, 2)))
        assert np.allclose(riccati_rhs(s, coeffs), coeffs.c)

    def test_scalar_sturm_liouville_reduction(self):
        v_minus_lam = 0.7
        coeffs = validate_coefficients(np.zeros((1, 1)), np.ones((1, 1)),
                                       np.array([[v_minus_lam]]), np.zeros((1, 1)))
        for s_val in (-2.0, 0.0, 1.3):
            rhs = riccati_rhs(SymmetricChart(np.array([[s_val]])), coeffs)
            assert abs(rhs[0, 0] - (v_minus_lam - s_val ** 2)) < 1e-14

    def test_symmetric_output(self, rng):
        coeffs = _random_coeffs(rng, 4)
        s = SymmetricChart(rng.standard_normal((4, 4)))
        rhs = riccati_rhs(s, coeffs)
        assert np.array_equal(rhs, rhs.T)


class TestMobiusStep:
    """The Moebius action s -> (phi21 + phi22 s)(phi11 + phi12 s)^-1, run
    through integrate_chart on constant fields."""

    def test_identity_propagator(self, rng):
        s = SymmetricChart(rng.standard_normal((3, 3)))
        zero = validate_coefficients(*[np.zeros((3, 3))] * 4)
        assert np.allclose(_chart_steps(zero, s, [0.5]), s.mat)

    def test_algebraic_fixed_point(self, rng):
        coeffs = _random_coeffs(rng, 3)
        full = coeffs.full()
        if np.min(np.abs(np.linalg.eigvals(full).real)) < 1e-6:
            pytest.skip("random matrix accidentally near-degenerate")
        try:
            s0 = unstable_chart_fixed_point(full)
        except AssertionError:
            pytest.skip("unstable space not n-dimensional for this draw")
        rhs = riccati_rhs(SymmetricChart(s0), coeffs)
        assert np.max(np.abs(rhs)) < 1e-8 * max(1.0, np.max(np.abs(s0)) ** 2)
        s1 = _chart_steps(coeffs, SymmetricChart(s0), [0.05])
        assert np.max(np.abs(s1 - s0)) < 1e-8 * max(1.0, np.max(np.abs(s0)))

    def test_finite_difference_consistency(self, rng):
        coeffs = _random_coeffs(rng, 3)
        s = SymmetricChart(0.3 * rng.standard_normal((3, 3)))
        rhs = riccati_rhs(s, coeffs)
        errors = []
        for h in (1e-2, 1e-3, 1e-4):
            s_h = _chart_steps(coeffs, s, [h])
            fd = (s_h - s.mat) / h
            errors.append(np.max(np.abs(fd - rhs)))
        slopes = np.log10(errors[:-1]) - np.log10(errors[1:])
        assert np.all(np.array(slopes) > 0.9)  # observed order >= 1

    def test_cocycle(self, rng):
        # two steps exp(0.11 A) exp(0.07 A) against one step exp(0.18 A)
        coeffs = _random_coeffs(rng, 3)
        s = SymmetricChart(0.5 * rng.standard_normal((3, 3)))
        lhs = _chart_steps(coeffs, s, [0.07, 0.11])
        rhs = _chart_steps(coeffs, s, [0.18])
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))


class TestIntegrateChart:
    def test_constant_field_fixed_point(self):
        field = poschl_teller_field(2)
        lam = -3.0

        # constant far-field system: s0 is an equilibrium
        a_inf = field.farfield_minus(lam)
        const_field = constant_field(a_inf, -20.0, 20.0)
        s0 = chart_from_frame(farfield_frame(a_inf, "unstable"))
        grid = np.linspace(-20, 20, 201)
        path = integrate_chart(const_field, lam, grid, s0)
        assert np.max(np.abs(path.charts - s0.mat)) < 1e-9

    @pytest.mark.parametrize("lam,expected", [(-5.0, 0), (-2.0, 1)])
    def test_singularity_count_matches_shooting_oracle(self, lam, expected):
        field = poschl_teller_field(2)
        grid = np.linspace(-20, 20, 4001)
        s0 = chart_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_chart(field, lam, grid, s0)
        # scalar chart: a passage of mu through infinity flips the sign of
        # 1/mu while |mu| stays large on both sides
        mu = path.mu[:, 0]
        recip = 1.0 / mu
        passages = 0
        for m in range(len(mu) - 1):
            if abs(mu[m]) > 1.0 and abs(mu[m + 1]) > 1.0 and recip[m] * recip[m + 1] < 0:
                passages += 1
        assert passages == expected
        assert shooting_node_count(poschl_teller_potential(2), lam) == expected

    def test_singular_flags_only_when_expected(self):
        field = poschl_teller_field(2)
        grid = np.linspace(-20, 20, 4001)
        s0 = chart_from_frame(farfield_frame(field.farfield_minus(-5.0), "unstable"))
        path = integrate_chart(field, -5.0, grid, s0)
        assert not np.any(np.abs(path.mu) > singular_threshold(CHART_TOL))

    def test_gauge_consistency_with_linear_frame_flow(self):
        field = poschl_teller_field(2)
        lam = -2.0
        grid = np.linspace(-20, 20, 2001)
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        s0 = chart_from_frame(frame)
        path = integrate_chart(field, lam, grid, s0)
        q, p = frame.q.copy(), frame.p.copy()
        worst = 0.0
        for m in range(len(grid) - 1):
            h = grid[m + 1] - grid[m]
            phi = mat_exp(h * field.evaluate(grid[m] + h / 2, lam).full())
            stacked = phi @ np.vstack([q, p])
            q, p = stacked[:1], stacked[1:]
            if np.linalg.cond(q) < 1e6:
                s_lin = p @ np.linalg.inv(q)
                worst = max(worst, float(np.max(np.abs(s_lin - path.charts[m + 1]))))
            # renormalize the gauge to keep the frame bounded
            norm = np.linalg.norm(np.vstack([q, p]))
            q, p = q / norm, p / norm
        assert worst < 1e-6

    def test_chart_symmetry_defect_small(self):
        field = poschl_teller_field(2)
        grid = np.linspace(-20, 20, 2001)
        s0 = chart_from_frame(farfield_frame(field.farfield_minus(-2.0), "unstable"))
        path = integrate_chart(field, -2.0, grid, s0)
        assert path.max_symmetry_defect < 1e-8

    def test_integrates_through_tangent_singularity(self):
        # s' = 1 + s^2 with s(0) = 0 is s = tan(x): singular at pi/2, yet the
        # Moebius form (rotation matrices here) passes straight through and
        # lands back on tan(x)
        coeffs = validate_coefficients(np.zeros((1, 1)), -np.ones((1, 1)),
                                       np.ones((1, 1)), np.zeros((1, 1)))
        field = constant_field(coeffs, 0.0, 3.0)
        grid = np.linspace(0.0, 3.0, 301)  # pi/2 falls between samples
        path = integrate_chart(field, 0.0, grid, SymmetricChart(np.zeros((1, 1))))
        s_vals = path.charts[:, 0, 0]
        finite_mask = np.abs(np.tan(grid)) < 50
        assert np.max(np.abs(s_vals[finite_mask] - np.tan(grid)[finite_mask])) < 1e-10
        assert np.max(np.abs(s_vals)) > 100.0  # sailed near the singularity

    def test_flags_sample_landing_on_singularity(self):
        coeffs = validate_coefficients(np.zeros((1, 1)), -np.ones((1, 1)),
                                       np.ones((1, 1)), np.zeros((1, 1)))
        field = constant_field(coeffs, 0.0, np.pi)
        grid = np.linspace(0.0, np.pi, 101)  # grid[50] = pi/2 up to roundoff
        path = integrate_chart(field, 0.0, grid, SymmetricChart(np.zeros((1, 1))))
        assert 50 in path.flagged_samples
        assert abs(path.mu[50, 0]) > singular_threshold(CHART_TOL)
        # the halved step records the product of its two denominator signs
        assert path.den_signs[49] == -1 and np.all(np.delete(path.den_signs, 49) == 1)
        # and the flow still recovers: s(pi) = tan(pi) = 0
        assert abs(path.charts[-1, 0, 0] - np.tan(np.pi)) < 1e-9

    def test_rejects_bad_grid(self):
        field = poschl_teller_field(2)
        s0 = SymmetricChart(np.zeros((1, 1)))
        with pytest.raises(StructureError):
            integrate_chart(field, -2.0, np.array([0.0, -1.0]), s0)
        with pytest.raises(StructureError):
            integrate_chart(field, -2.0, np.array([-30.0, 0.0]), s0)


def _chart_per_step(field, lam, grid, s0):
    """Reference chart path one step at a time: the scalar field evaluation,
    one propagator and one _mobius_apply per step."""
    s, charts, flagged, worst, signs = s0.mat, [s0.mat], [], 0.0, []
    for m in range(grid.size - 1):
        h = grid[m + 1] - grid[m]
        phi = mat_exp(h * field.evaluate(grid[m] + 0.5 * h, lam).full())
        s, cond, defect, sign = _mobius_apply(s, phi)
        if cond > 1.0 / CHART_TOL:
            flagged.append(m + 1)
        worst = max(worst, defect)
        charts.append(s)
        signs.append(sign)
    return np.array(charts), tuple(flagged), worst, np.array(signs)


class TestBlockedChart:
    """integrate_chart builds propagators and conditioning for blocks of
    steps; the path must be the one stepped one at a time."""

    @pytest.mark.parametrize("name, lam", [("kdv7", 0.05), ("poschl_teller:2", -0.5)])
    def test_flags_and_defect_match_per_step_reference(self, name, lam):
        field = get_model(name)
        grid = np.linspace(field.x_minus, field.x_plus, 4001)
        s0 = chart_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_chart(field, lam, grid, s0)
        charts, flagged, worst, signs = _chart_per_step(field, lam, grid, s0)
        assert flagged  # the row passes chart singularities
        assert path.flagged_samples == flagged
        assert path.max_symmetry_defect == worst
        assert np.array_equal(path.charts, charts)
        assert np.array_equal(path.den_signs, signs)
        assert np.any(signs < 0)

    @pytest.mark.parametrize("npoints", [2, BLOCK_STEPS + 1, BLOCK_STEPS + 2, 2 * BLOCK_STEPS + 89])
    def test_grid_lengths_across_blocks(self, npoints):
        field = get_model("kdv7")
        lam = 0.1
        grid = -3.0 + 0.01 * np.arange(npoints)
        s0 = SymmetricChart(np.diag([0.5, -1.0, 2.0]))
        path = integrate_chart(field, lam, grid, s0)
        charts, flagged, worst, signs = _chart_per_step(field, lam, grid, s0)
        assert np.array_equal(path.charts, charts)
        assert path.flagged_samples == flagged
        assert path.max_symmetry_defect == worst
        assert np.array_equal(path.den_signs, signs)


class TestSingularEigenvalueCount:
    def test_zero_chart(self):
        assert singular_eigenvalue_count(SymmetricChart(np.zeros((3, 3)))) == 0

    def test_threshold_arithmetic(self):
        s = SymmetricChart(np.diag([1e9, 0.3, -2.0]))
        assert singular_eigenvalue_count(s, 1e-3) == 1
        assert singular_threshold(1e-3) > 1000.0

    def test_planted_rank_loss_two(self, rng):
        frame = planted_rank_loss_frame(4, 2, rng)
        chart = chart_from_frame(frame)
        assert singular_eigenvalue_count(chart) == 2

    def test_theorem_equivalence_sweep(self, rng):
        from maslovflow import total_frame_rank_loss

        for k in (0, 1, 2, 3):
            for _ in range(5):
                frame = planted_rank_loss_frame(4, k, rng)
                chart = chart_from_frame(frame)
                assert singular_eigenvalue_count(chart) == k
                assert total_frame_rank_loss(frame) == k
