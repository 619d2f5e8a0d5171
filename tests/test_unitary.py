import numpy as np
import pytest

from maslovflow import (
    StructureError,
    SymmetricChart,
    ThetaTrace,
    UnitarySymmetric,
    cayley,
    chart_from_frame,
    det_phase,
    farfield_frame,
    get_model,
    integrate_chart,
    integrate_unitary,
    kdv7_field,
    mat_exp,
    poschl_teller_field,
    rotated_coefficients,
    run_trace,
    sym_eig,
    theta_from_chart,
    unitary_from_frame,
    validate_coefficients,
)
from maslovflow.errors import StepSizeError
from maslovflow.matrixkit import symmetrize
from maslovflow.riccati import BLOCK_STEPS
from maslovflow.tolerances import REPROJECT_DEFECT
from maslovflow.unitary import _polar_symmetric_project
from conftest import constant_field, random_lagrangian_frame
from oracles import riccati_rhs


def _random_coeffs(rng, n):
    a = rng.standard_normal((n, n))
    b = symmetrize(rng.standard_normal((n, n)))
    c = symmetrize(rng.standard_normal((n, n)))
    return validate_coefficients(a, b, c, -a.T)


def _random_chart(rng, n, scale=1.0):
    return SymmetricChart(scale * symmetrize(rng.standard_normal((n, n))))


def _xi_at(coeffs, u, h=0.1):
    """The field xi at u, read from the Lie-algebra step integrate_unitary
    stores: one step of length h on a constant field takes sigma = h xi."""
    path = integrate_unitary(constant_field(coeffs), 0.0, np.array([0.0, h]),
                             UnitarySymmetric(u))
    return path.sigmas[1] / h


class TestCayley:
    def test_zero_maps_to_identity(self):
        assert np.allclose(cayley(SymmetricChart(np.zeros((3, 3)))).mat, np.eye(3))

    def test_scalar_one_maps_to_minus_i(self):
        u = cayley(SymmetricChart(np.array([[1.0]]))).mat
        assert abs(u[0, 0] - (-1j)) < 1e-14

    def test_eigenvalue_map(self, rng):
        for _ in range(10):
            s = _random_chart(rng, 4, scale=2.0)
            mu = sym_eig(s.mat).eigenvalues
            expected = np.sort_complex((1 - 1j * mu) / (1 + 1j * mu))
            got = np.sort_complex(np.linalg.eigvals(cayley(s).mat))
            assert np.max(np.abs(np.sort(np.angle(got)) - np.sort(np.angle(expected)))) < 1e-10


class TestUnitaryFromFrame:
    def test_matches_cayley_of_chart(self, rng):
        for _ in range(10):
            frame = random_lagrangian_frame(rng, 3)
            u1 = unitary_from_frame(frame).mat
            u2 = cayley(chart_from_frame(frame)).mat
            assert np.max(np.abs(u1 - u2)) < 1e-9

    def test_defined_on_vertical_plane(self):
        from maslovflow import LagrangianFrame

        frame = LagrangianFrame(q=np.zeros((2, 2)), p=np.eye(2))
        u = unitary_from_frame(frame).mat
        assert np.allclose(u, -np.eye(2))


class TestRotatedCoefficients:
    def test_zero_blocks(self):
        coeffs = validate_coefficients(*[np.zeros((2, 2))] * 4)
        rot = rotated_coefficients(coeffs)
        assert np.allclose(rot.C, 0.0) and np.allclose(rot.D, 0.0)

    def test_b_identity_case(self):
        coeffs = validate_coefficients(np.zeros((2, 2)), np.eye(2),
                                       np.zeros((2, 2)), np.zeros((2, 2)))
        rot = rotated_coefficients(coeffs)
        assert np.allclose(rot.C, -0.5j * np.eye(2))
        assert np.allclose(rot.D, 0.5j * np.eye(2))

    def test_flow_consistency_by_finite_differences(self, rng):
        # d/dx Cay(s(x)) must match C + D u - u (D* + C* u) when ds/dx is the
        # chart Riccati RHS
        coeffs = _random_coeffs(rng, 3)
        rot = rotated_coefficients(coeffs)
        s0 = _random_chart(rng, 3, scale=0.7)
        rhs = riccati_rhs(s0, coeffs)
        h = 1e-5
        u_plus = cayley(SymmetricChart(s0.mat + h * rhs)).mat
        u_minus = cayley(SymmetricChart(s0.mat - h * rhs)).mat
        du_fd = (u_plus - u_minus) / (2 * h)
        u = cayley(s0).mat
        du = rot.C + rot.D @ u - u @ (np.conj(rot.D) + np.conj(rot.C) @ u)
        assert np.max(np.abs(du_fd - du)) < 1e-6


class TestXiField:
    def test_zero_c_gives_d(self, rng):
        # C vanishes when a is skew (so a = d) and c = -b
        m = rng.standard_normal((2, 2))
        a = 0.5 * (m - m.T)
        b = symmetrize(rng.standard_normal((2, 2)))
        coeffs = validate_coefficients(a, b, -b, -a.T)
        rot = rotated_coefficients(coeffs)
        assert np.max(np.abs(rot.C)) < 1e-15
        u = cayley(_random_chart(rng, 2)).mat
        xi = _xi_at(coeffs, u)
        assert np.max(np.abs(xi - rot.D)) < 1e-12

    def test_u_identity_substitution(self, rng):
        coeffs = _random_coeffs(rng, 3)
        rot = rotated_coefficients(coeffs)
        xi = _xi_at(coeffs, np.eye(3, dtype=complex))
        expected = rot.D + 1j * np.imag(rot.C)
        assert np.max(np.abs(xi - expected)) < 1e-12

    def test_action_identity(self, rng):
        for _ in range(10):
            coeffs = _random_coeffs(rng, 3)
            rot = rotated_coefficients(coeffs)
            u = cayley(_random_chart(rng, 3)).mat
            xi = _xi_at(coeffs, u)
            lhs = xi @ u - u @ np.conj(xi)
            rhs = rot.C + rot.D @ u - u @ (np.conj(rot.D) + np.conj(rot.C) @ u)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestEmkStep:
    """The Lie-algebra Euler step, run through integrate_unitary."""

    def test_zero_field_fixed_point(self):
        coeffs = validate_coefficients(*[np.zeros((2, 2))] * 4)
        u0 = UnitarySymmetric(np.eye(2, dtype=complex))
        path = integrate_unitary(constant_field(coeffs), 0.0, np.array([0.0, 0.1]), u0)
        assert np.allclose(path.sigmas[1], 0.0)
        assert np.allclose(path.us[1], u0.mat)

    def test_commuting_diagonal_closed_form(self):
        # a = diag(w) with b = c = 0 gives C = 0, D = diag(w) real? use
        # b - c = 2w to get D = i diag(w): a = d = 0, b = w I, c = -w I
        w = 0.3
        coeffs = validate_coefficients(np.zeros((1, 1)), np.array([[w]]),
                                       np.array([[-w]]), np.zeros((1, 1)))
        u0 = UnitarySymmetric(np.eye(1, dtype=complex))
        h = 0.01
        path = integrate_unitary(constant_field(coeffs), 0.0, h * np.arange(101), u0)
        # each step multiplies by exp(2 i w h)
        expected = np.exp(2j * w * h * 100)
        assert abs(path.us[-1, 0, 0] - expected) < 1e-12

    def test_one_step_refinement_order(self):
        field = kdv7_field()
        lam = 0.15
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        u0 = unitary_from_frame(frame)
        errors = []
        for h in (0.08, 0.04, 0.02):
            u_one = integrate_unitary(field, lam, np.array([0.0, h]), u0).us[-1]
            u_ref = integrate_unitary(field, lam, np.linspace(0.0, h, 101), u0).us[-1]
            errors.append(float(np.max(np.abs(u_one - u_ref))))
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(slopes > 0.8)  # observed order ~ 1


class TestIntegrateUnitary:
    def test_zero_field_constant_theta(self):
        coeffs = validate_coefficients(*[np.zeros((2, 2))] * 4)
        field = constant_field(coeffs)
        u0 = UnitarySymmetric(np.eye(2, dtype=complex))
        path = integrate_unitary(field, 0.0, np.linspace(0, 1, 51), u0)
        assert np.allclose(path.theta_trace.theta, 0.0)

    @pytest.mark.parametrize("lam,count", [(-5.0, 0), (-2.0, 1), (-0.5, 2)])
    def test_poschl_teller_net_winding_matches_crossings(self, lam, count):
        # the endpoints of theta are pinned by the far-field fixed points, so
        # the net winding is 2 pi per crossing
        field = poschl_teller_field(2)
        grid = np.linspace(-20, 20, 4001)
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_unitary(field, lam, grid, u0)
        theta = path.theta_trace.theta
        from maslovflow import detect_crossings

        crossings = detect_crossings(path)
        assert sum(c.multiplicity for c in crossings) == count
        winding = (theta[-1] - theta[0]) / (2 * np.pi)
        assert abs(winding - count) < 0.2

    def test_kdv7_sigma_steps_bounded(self):
        field = kdv7_field()
        lam = 0.15
        grid = np.linspace(-20, 20, 4001)
        h = grid[1] - grid[0]
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_unitary(field, lam, grid, u0)
        assert float(np.max(np.abs(path.sigmas))) < 10.0 * h
        # the stored steps are what theta accumulated
        dtheta = 2.0 * np.imag(np.trace(path.sigmas, axis1=1, axis2=2))
        assert np.max(np.abs(np.diff(path.theta_trace.theta) - dtheta[1:])) < 1e-12

    def test_structure_gate_raises_above_unitary_type(self, monkeypatch):
        import maslovflow.unitary as unitary_mod

        field = kdv7_field()
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(0.15), "unstable"))
        with monkeypatch.context() as patch:
            patch.setattr(unitary_mod, "UNITARY_TYPE", 1e-17)
            with pytest.raises(StructureError, match="unitary symmetric"):
                integrate_unitary(field, 0.15, np.linspace(-20, 20, 401), u0)
        integrate_unitary(field, 0.15, np.linspace(-20, 20, 401), u0)

    def test_drift_and_circle_consistency(self):
        field = kdv7_field()
        grid = np.linspace(-20, 20, 10_001)
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(0.15), "unstable"))
        path = integrate_unitary(field, 0.15, grid, u0)
        assert path.max_unitarity_defect < 1e-9
        assert path.max_symmetry_defect < 1e-9
        assert path.max_circle_defect < 1e-7
        assert path.reprojected_steps == 0

    def test_theta0_default_is_principal(self):
        field = poschl_teller_field(2)
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(-3.0), "unstable"))
        path = integrate_unitary(field, -3.0, np.linspace(-20, 20, 501), u0)
        assert -np.pi < path.theta_trace.theta0 <= np.pi
        assert abs(np.exp(1j * path.theta_trace.theta0) - np.linalg.det(u0.mat)) < 1e-12

    def test_rejects_bad_grid(self):
        # the chart route's grid checks: the unitary route used to integrate a
        # grid reaching past the field's window
        field = poschl_teller_field(2)
        u0 = UnitarySymmetric(np.eye(1, dtype=complex))
        with pytest.raises(StructureError, match="strictly increasing"):
            integrate_unitary(field, -2.0, np.array([0.0, -1.0]), u0)
        wide = np.linspace(-30.0, 30.0, 6001)
        with pytest.raises(StructureError, match="outside"):
            integrate_unitary(field, -0.5, wide, u0)
        with pytest.raises(StructureError, match="outside"):
            run_trace(field, -0.5, wide, backend="unitary")

    def test_theta_trace_rejects_big_steps(self):
        with pytest.raises(StepSizeError):
            ThetaTrace(grid=np.array([0.0, 1.0]), theta=np.array([0.0, 4.0]), theta0=0.0)


def _unitary_per_step(field, lam, grid, u0):
    """Reference unitary path one step at a time: the scalar field
    evaluation, rotated coefficients and the Euler step of every sample."""
    u, us, sigmas = u0.mat, [u0.mat], [np.zeros_like(u0.mat)]
    theta = [det_phase(u0.mat)]
    for m in range(grid.size - 1):
        h = grid[m + 1] - grid[m]
        rot = rotated_coefficients(field.evaluate(grid[m], lam))
        xi = rot.D - 0.5 * (u @ np.conj(rot.C) - rot.C @ u.conj().T)
        sigma = h * (0.5 * (xi - xi.conj().T))
        e = mat_exp(sigma)
        u = e @ u @ e.T
        defect = max(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))),
                     np.max(np.abs(u - u.T)))
        if defect > REPROJECT_DEFECT:
            u = _polar_symmetric_project(u)
        theta.append(theta[-1] + 2.0 * float(np.imag(np.trace(sigma))))
        us.append(u)
        sigmas.append(sigma)
    return np.array(us), np.array(sigmas), np.array(theta)


class TestBlockedUnitary:
    """integrate_unitary computes C and D for blocks of steps; the path must
    be the one stepped one at a time."""

    @pytest.mark.parametrize("npoints", [2, BLOCK_STEPS + 1, BLOCK_STEPS + 2, 2 * BLOCK_STEPS + 89])
    @pytest.mark.parametrize("name, lam", [("kdv7", 0.1), ("poschl_teller:2", -0.5)])
    def test_grid_lengths_across_blocks(self, name, lam, npoints):
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(npoints)
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_unitary(field, lam, grid, u0)
        us, sigmas, theta = _unitary_per_step(field, lam, grid, u0)
        assert np.array_equal(path.us, us)
        assert np.array_equal(path.sigmas, sigmas)
        assert np.array_equal(path.theta_trace.theta, theta)


class TestThetaFromChart:
    def test_matches_unitary_route_mod_2pi(self):
        field = poschl_teller_field(2)
        lam = -2.0
        grid = np.linspace(-20, 20, 4001)
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        cpath = integrate_chart(field, lam, grid, chart_from_frame(frame))
        upath = integrate_unitary(field, lam, grid, unitary_from_frame(frame))
        t_chart = theta_from_chart(cpath).theta
        t_unit = upath.theta_trace.theta
        # same angle up to a global 2 pi multiple and the O(h) method gap
        diff = (t_chart - t_unit) - (t_chart[0] - t_unit[0])
        assert np.max(np.abs(diff)) < 0.05
