import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maslovflow import (
    ConfigError,
    StructureError,
    SymmetricChart,
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
    sweep_lambda,
    sym_eig,
    unitary_from_frame,
    validate_coefficients,
)
from maslovflow.errors import StepSizeError
from maslovflow.matrixkit import symmetrize
import maslovflow.riccati as riccati_mod
import maslovflow.unitary as unitary_mod
from maslovflow.riccati import BLOCK_STEPS, _count_steps, _principal_phases
from maslovflow.tolerances import CIRCLE_CONSISTENCY, REPROJECT_DEFECT
from maslovflow.unitary import _polar_symmetric_project
from conftest import constant_field, random_lagrangian_frame
from oracles import mobius_apply, riccati_rhs


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
            mu, _ = sym_eig(s.mat)
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
        c_rot, d_rot = rotated_coefficients(coeffs)
        assert np.allclose(c_rot, 0.0) and np.allclose(d_rot, 0.0)

    def test_b_identity_case(self):
        coeffs = validate_coefficients(np.zeros((2, 2)), np.eye(2),
                                       np.zeros((2, 2)), np.zeros((2, 2)))
        c_rot, d_rot = rotated_coefficients(coeffs)
        assert np.allclose(c_rot, -0.5j * np.eye(2))
        assert np.allclose(d_rot, 0.5j * np.eye(2))

    def test_flow_consistency_by_finite_differences(self, rng):
        # d/dx Cay(s(x)) must match C + D u - u (D* + C* u) when ds/dx is the
        # chart Riccati RHS
        coeffs = _random_coeffs(rng, 3)
        c_rot, d_rot = rotated_coefficients(coeffs)
        s0 = _random_chart(rng, 3, scale=0.7)
        rhs = riccati_rhs(s0, coeffs)
        h = 1e-5
        u_plus = cayley(SymmetricChart(s0.mat + h * rhs)).mat
        u_minus = cayley(SymmetricChart(s0.mat - h * rhs)).mat
        du_fd = (u_plus - u_minus) / (2 * h)
        u = cayley(s0).mat
        du = c_rot + d_rot @ u - u @ (np.conj(d_rot) + np.conj(c_rot) @ u)
        assert np.max(np.abs(du_fd - du)) < 1e-6


class TestXiField:
    def test_zero_c_gives_d(self, rng):
        # C vanishes when a is skew (so a = d) and c = -b
        m = rng.standard_normal((2, 2))
        a = 0.5 * (m - m.T)
        b = symmetrize(rng.standard_normal((2, 2)))
        coeffs = validate_coefficients(a, b, -b, -a.T)
        c_rot, d_rot = rotated_coefficients(coeffs)
        assert np.max(np.abs(c_rot)) < 1e-15
        u = cayley(_random_chart(rng, 2)).mat
        xi = _xi_at(coeffs, u)
        assert np.max(np.abs(xi - d_rot)) < 1e-12

    def test_u_identity_substitution(self, rng):
        coeffs = _random_coeffs(rng, 3)
        c_rot, d_rot = rotated_coefficients(coeffs)
        xi = _xi_at(coeffs, np.eye(3, dtype=complex))
        expected = d_rot + 1j * np.imag(c_rot)
        assert np.max(np.abs(xi - expected)) < 1e-12

    def test_action_identity(self, rng):
        for _ in range(10):
            coeffs = _random_coeffs(rng, 3)
            c_rot, d_rot = rotated_coefficients(coeffs)
            u = cayley(_random_chart(rng, 3)).mat
            xi = _xi_at(coeffs, u)
            lhs = xi @ u - u @ np.conj(xi)
            rhs = c_rot + d_rot @ u - u @ (np.conj(d_rot) + np.conj(c_rot) @ u)
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
        assert np.allclose(path.theta, 0.0)

    @pytest.mark.parametrize("lam,count", [(-5.0, 0), (-2.0, 1), (-0.5, 2)])
    def test_poschl_teller_net_winding_matches_crossings(self, lam, count):
        # the endpoints of theta are pinned by the far-field fixed points, so
        # the net winding is 2 pi per crossing
        field = poschl_teller_field(2)
        grid = np.linspace(-20, 20, 4001)
        u0 = unitary_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_unitary(field, lam, grid, u0)
        theta = path.theta
        assert path.result.unsigned_count == count
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
        assert np.max(np.abs(np.diff(path.theta) - dtheta[1:])) < 1e-12

    def test_structure_gate_raises_above_unitary_type(self, monkeypatch):
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
        assert -np.pi < path.theta[0] <= np.pi
        assert abs(np.exp(1j * path.theta[0]) - np.linalg.det(u0.mat)) < 1e-12

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

    def test_angle_gate_shared_by_both_routes(self, monkeypatch):
        # the summed-motion gate also bounds the angle's own step, which on
        # a path of either route is the matched motions' signed sum up to
        # roundoff
        with pytest.raises(StepSizeError, match="moved the phases by 3.500 rad in all, >= pi"):
            _count_steps(np.arange(2.0), np.array([[0.0], [0.5]]), np.array([0.0, 3.5]))
        # both routes hand their angle to that gate: ten steps of a field
        # turning each of two phases by 2 in all pass it
        seen = []

        def recording(grid, phases, theta):
            seen.append(theta)
            return _count_steps(grid, phases, theta)

        monkeypatch.setattr(riccati_mod, "_count_steps", recording)
        monkeypatch.setattr(unitary_mod, "_count_steps", recording)
        w = np.eye(2)
        field = constant_field(validate_coefficients(0 * w, w, -w, 0 * w), 0.0, 1.0)
        grid = np.linspace(0.0, 1.0, 11)
        cpath = integrate_chart(field, 0.0, grid, SymmetricChart(np.zeros((2, 2))))
        upath = integrate_unitary(field, 0.0, grid, UnitarySymmetric(np.eye(2, dtype=complex)))
        assert len(seen) == 2 and seen[0] is cpath.theta and seen[1] is upath.theta


def _unitary_per_step(field, lam, grid, u0, scheme="euler"):
    """Reference unitary path one step at a time, with the defect gate of
    every sample read from ``unitary_mod`` as ``integrate_unitary`` reads it.

    An Euler step takes the scalar field evaluation, the rotated
    coefficients and one Lie-algebra step; a Moebius step takes one
    propagator, the maps P, Q, R, S written out from their formulas and one
    Moebius apply.  Returns the path arrays (``sigmas`` None on the Moebius
    scheme), the re-projected steps and the largest unitarity and symmetry
    defects."""
    n = field.n
    u, us, sigmas = u0.mat, [u0.mat], [np.zeros_like(u0.mat)]
    theta = [det_phase(u0.mat)]
    reprojected, max_u, max_s = [], 0.0, 0.0
    for m in range(grid.size - 1):
        h = grid[m + 1] - grid[m]
        if scheme == "euler":
            c_rot, d_rot = rotated_coefficients(field.evaluate(grid[m], lam))
            xi = d_rot - 0.5 * (u @ np.conj(c_rot) - c_rot @ u.conj().T)
            sigma = h * (0.5 * (xi - xi.conj().T))
            e = mat_exp(sigma)
            u = e @ u @ e.T
            sigmas.append(sigma)
            dtheta = 2.0 * float(np.imag(np.trace(sigma)))
        else:
            phi = mat_exp(h * field.evaluate(grid[m] + 0.5 * h, lam).full())
            a, b, c, d = phi[:n, :n], phi[:n, n:], phi[n:, :n], phi[n:, n:]
            mob = 0.5 * np.block([
                [(a + 1j * c) - 1j * (b + 1j * d), (a + 1j * c) + 1j * (b + 1j * d)],
                [(a - 1j * c) - 1j * (b - 1j * d), (a - 1j * c) + 1j * (b - 1j * d)]])
            w = mob[:, n:] @ u + mob[:, :n]
            u = np.linalg.solve(w[:n].T, w[n:].T).T
            dtheta = -2.0 * float(np.angle(np.linalg.slogdet(w[:n])[0]))
        u_defect = float(np.max(np.abs(u @ u.conj().T - np.eye(n))))
        s_defect = float(np.max(np.abs(u - u.T)))
        if not (u_defect <= unitary_mod.UNITARY_TYPE and s_defect <= unitary_mod.UNITARY_TYPE):
            raise StructureError(f"step {m} left the unitary symmetric matrices: "
                                 f"unitarity {u_defect:.3e}, symmetry {s_defect:.3e}")
        max_u, max_s = max(max_u, u_defect), max(max_s, s_defect)
        if max(u_defect, s_defect) > unitary_mod.REPROJECT_DEFECT:
            u = _polar_symmetric_project(u)
            reprojected.append(m)
        theta.append(theta[-1] + dtheta)
        us.append(u)
    sigmas = np.array(sigmas) if scheme == "euler" else None
    return np.array(us), sigmas, np.array(theta), reprojected, max_u, max_s


def _start(field, lam):
    return unitary_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))


class TestBlockedUnitary:
    """integrate_unitary computes C and D for blocks of steps and measures
    the defects of a block's products at once; the path must be the one
    stepped and gated one step at a time."""

    @staticmethod
    def _assert_same(path, reference):
        us, sigmas, theta, reprojected, max_u, max_s = reference
        assert np.array_equal(path.us, us)
        assert (path.sigmas is None and sigmas is None) or np.array_equal(path.sigmas, sigmas)
        assert np.array_equal(path.theta, theta)
        assert path.reprojected_steps == len(reprojected)
        assert path.max_unitarity_defect == max_u
        assert path.max_symmetry_defect == max_s

    @pytest.mark.parametrize("npoints", [2, BLOCK_STEPS + 1, BLOCK_STEPS + 2, 2 * BLOCK_STEPS + 89])
    @pytest.mark.parametrize("name, lam", [("kdv7", 0.1), ("poschl_teller:2", -0.5)])
    def test_grid_lengths_across_blocks(self, name, lam, npoints):
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(npoints)
        u0 = _start(field, lam)
        self._assert_same(integrate_unitary(field, lam, grid, u0),
                          _unitary_per_step(field, lam, grid, u0))

    @pytest.mark.parametrize("name, lam, bound, block_ends", [
        ("kdv7", 0.1, 5e-16, True), ("kdv7", 0.1, 2e-15, False),
        ("poschl_teller:2", -0.5, 1e-15, False), ("poschl_teller:2", -0.5, 0.0, True)])
    def test_reprojected_steps_replayed(self, monkeypatch, name, lam, bound, block_ends):
        # a re-projected step changes every later product of its block; the
        # steps after it are made again from the re-projected sample
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(2 * BLOCK_STEPS + 89)
        u0 = _start(field, lam)
        monkeypatch.setattr(unitary_mod, "REPROJECT_DEFECT", bound)
        reference = _unitary_per_step(field, lam, grid, u0)
        self._assert_same(integrate_unitary(field, lam, grid, u0), reference)
        reprojected = set(reference[3])
        assert 0 < len(reprojected) < grid.size - 1
        if block_ends:
            assert reprojected >= {0, BLOCK_STEPS - 1, BLOCK_STEPS}

    @pytest.mark.parametrize("bound", [1.2e-15, 2e-15, 3e-15])
    @pytest.mark.parametrize("name, lam", [("kdv7", 0.1), ("poschl_teller:2", -0.5)])
    def test_refusal_names_the_first_step_over(self, monkeypatch, name, lam, bound):
        # UNITARY_TYPE below REPROJECT_DEFECT: the first step over it is
        # refused, as when each step is measured alone
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(2 * BLOCK_STEPS + 89)
        u0 = _start(field, lam)
        monkeypatch.setattr(unitary_mod, "UNITARY_TYPE", bound)
        with pytest.raises(StructureError, match="left the unitary symmetric") as expected:
            _unitary_per_step(field, lam, grid, u0)
        step = int(str(expected.value).split()[1])
        assert 0 < step % BLOCK_STEPS < BLOCK_STEPS - 1
        with pytest.raises(StructureError) as got:
            integrate_unitary(field, lam, grid, u0)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [0, 100, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 40])
    def test_non_finite_product_refused_where_made(self, monkeypatch, bad):
        # a NaN product used to pass the gate and fail the next step's
        # mat_exp as "matrix has non-finite entries"
        field = kdv7_field()
        grid = np.linspace(-20, 20, 1001)
        u0 = _start(field, 0.1)
        calls = []

        def nan_at_bad_step(sigma):
            calls.append(None)
            e = mat_exp(sigma)
            return np.full_like(e, np.nan) if len(calls) == bad + 1 else e

        monkeypatch.setattr(unitary_mod, "mat_exp", nan_at_bad_step)
        message = f"step {bad} left the unitary symmetric matrices: unitarity nan, symmetry nan"
        with pytest.raises(StructureError, match=message):
            integrate_unitary(field, 0.1, grid, u0)


class TestMoebiusScheme:
    """integrate_unitary(..., scheme="moebius"): u stepped by the linear
    fractional map of the chart route's propagators, theta by
    -2 arg det(P + Q u); each run of steps is one prefix scan of its maps."""

    @staticmethod
    def _assert_close(path, reference):
        """The scanned path against the per-step reference: u within 1e-12,
        theta within 1e-11 and the same crossings."""
        us, sigmas, theta, _, _, _ = reference
        assert path.sigmas is None and sigmas is None
        assert np.max(np.abs(path.us - us)) <= 1e-12
        assert np.max(np.abs(path.theta - theta)) <= 1e-11
        expected = _count_steps(path.grid, _principal_phases(np.angle(np.linalg.eigvals(us))),
                                theta)
        got = path.result
        assert (got.unsigned_count, got.signed_index) == \
            (expected.unsigned_count, expected.signed_index)
        assert [(c.multiplicity, c.direction) for c in got.crossings] == \
            [(c.multiplicity, c.direction) for c in expected.crossings]
        assert np.allclose([c.x for c in got.crossings], [c.x for c in expected.crossings],
                           rtol=0.0, atol=1e-9)

    @staticmethod
    def _inject(monkeypatch, step, edit):
        """Patch ``_moebius_matrices`` so that ``edit`` changes the map of
        ``step``, counted over the blocks of all rows in call order."""
        made = unitary_mod._moebius_matrices
        calls = []

        def injected(phis):
            maps = made(phis)
            calls.append(None)
            if len(calls) == step // BLOCK_STEPS + 1:
                edit(maps[step % BLOCK_STEPS])
            return maps

        monkeypatch.setattr(unitary_mod, "_moebius_matrices", injected)

    @pytest.mark.parametrize("npoints", [2, BLOCK_STEPS + 1, BLOCK_STEPS + 2, 2 * BLOCK_STEPS + 89])
    @pytest.mark.parametrize("name, lam", [("kdv7", 0.1), ("poschl_teller:2", -0.5)])
    def test_grid_lengths_across_blocks(self, name, lam, npoints):
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(npoints)
        u0 = _start(field, lam)
        path = integrate_unitary(field, lam, grid, u0, scheme="moebius")
        reference = _unitary_per_step(field, lam, grid, u0, "moebius")
        self._assert_close(path, reference)
        assert path.reprojected_steps == len(reference[3])

    @pytest.mark.parametrize("name, lam, bound", [
        ("kdv7", 0.1, 5e-16), ("kdv7", 0.1, 2e-15), ("poschl_teller:2", -0.5, 0.0)])
    def test_reprojected_steps_replayed(self, monkeypatch, name, lam, bound):
        # a re-projected step ends its run; the steps after it are scanned
        # again from the re-projected sample
        field = get_model(name)
        grid = -3.0 + 0.01 * np.arange(2 * BLOCK_STEPS + 89)
        u0 = _start(field, lam)
        monkeypatch.setattr(unitary_mod, "REPROJECT_DEFECT", bound)
        reference = _unitary_per_step(field, lam, grid, u0, "moebius")
        path = integrate_unitary(field, lam, grid, u0, scheme="moebius")
        assert reference[1] is None and 0 < len(reference[3]) < grid.size - 1
        if bound == 0.0:
            # every run is one map: the path is the per-step one, bit for bit
            TestBlockedUnitary._assert_same(path, reference)
        else:
            assert 0 < path.reprojected_steps < grid.size - 1
            self._assert_close(path, reference)

    def test_circle_and_drift(self):
        field = kdv7_field()
        grid = np.linspace(-20, 20, 10_001)
        for lam in (0.12, 0.15):
            path = integrate_unitary(field, lam, grid, _start(field, lam), scheme="moebius")
            assert path.max_circle_defect < 1e-10
            assert np.max(np.abs(np.exp(1j * path.theta) - np.linalg.det(path.us))) \
                == path.max_circle_defect
            assert max(path.max_unitarity_defect, path.max_symmetry_defect) < 1e-11

    def test_richardson_order_two(self):
        # criterion 7's construction: slopes over h, h/2, h/4 against h/64
        field = kdv7_field()
        lam = 0.15
        u0 = _start(field, lam)

        def u_end(nsteps):
            grid = np.linspace(-20.0, 20.0, nsteps + 1)
            return integrate_unitary(field, lam, grid, u0, scheme="moebius").us[-1]

        u_ref = u_end(64_000)
        errors = np.array([np.max(np.abs(u_end(1000 * k) - u_ref)) for k in (1, 2, 4)])
        assert np.all(np.log2(errors[:-1] / errors[1:]) >= 2.0)

    @pytest.mark.parametrize("name, lam", [
        ("kdv7", -0.1), ("kdv7", 0.05), ("kdv7", 0.12),
        ("poschl_teller:2", -5.0), ("poschl_teller:2", -2.0), ("poschl_teller:2", -0.5)])
    def test_count_and_angle_match_chart_route(self, name, lam):
        field = get_model(name)
        grid = np.linspace(field.x_minus, field.x_plus, 4001)
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        upath = integrate_unitary(field, lam, grid, unitary_from_frame(frame), scheme="moebius")
        cpath = integrate_chart(field, lam, grid, chart_from_frame(frame))
        assert upath.result.unsigned_count == cpath.result.unsigned_count
        assert upath.result.signed_index == cpath.result.signed_index
        assert np.max(np.abs(upath.theta - cpath.theta)) < 1e-10

    def test_kdv7_top_eigenvalue_counted_on_a_coarse_grid(self):
        field = kdv7_field()
        grid = np.linspace(-20.0, 20.0, 251)
        u0 = _start(field, 0.12)
        assert integrate_unitary(field, 0.12, grid, u0, scheme="moebius").result.unsigned_count == 3
        assert integrate_unitary(field, 0.12, grid, u0).result.unsigned_count == 2

    def test_unknown_scheme_refused(self):
        field = kdv7_field()
        with pytest.raises(ConfigError, match="scheme"):
            integrate_unitary(field, 0.1, np.linspace(-20.0, 20.0, 11), _start(field, 0.1),
                              scheme="rk4")

    @pytest.mark.parametrize("bad", [0, BLOCK_STEPS - 1, BLOCK_STEPS + 40])
    def test_non_finite_product_refused_where_made(self, monkeypatch, bad):
        # a NaN map ends the run before it, so its product is measured alone
        self._inject(monkeypatch, bad, lambda mob: mob.fill(np.nan))
        field = kdv7_field()
        message = f"step {bad} left the unitary symmetric matrices: unitarity nan, symmetry nan"
        with pytest.raises(StructureError, match=message):
            integrate_unitary(field, 0.1, np.linspace(-20, 20, 1001), _start(field, 0.1),
                              scheme="moebius")

    def test_singular_denominator_fails_only_its_row(self, monkeypatch):
        # the second row's step 122 has P = Q = 0 (each row makes 4 blocks),
        # so its denominator is exactly singular: that row is an error naming
        # the step, and the rows around it are counted
        n = 1
        self._inject(monkeypatch, 4 * BLOCK_STEPS + 122, lambda mob: mob[:n].fill(0.0))
        table = sweep_lambda("poschl_teller:2", np.array([-5.0, -2.0, -0.5]),
                             np.linspace(-20.0, 20.0, 801), backend="unitary")
        assert [r.status for r in table.rows] == ["ok", "error", "ok"]
        assert table.rows[1].reason == "step 122: Moebius denominator P + Q u exactly singular"
        assert [r.crossing_count for r in table.rows] == [0, -1, 2]

    @pytest.mark.parametrize("name, lam, nsteps, limit", [
        ("kdv7", 0.1, 4000, 100), ("poschl_teller:2", -1.0, 1000, 40)])
    def test_runs_scanned_not_stepped(self, monkeypatch, name, lam, nsteps, limit):
        # a structural guard: one solve per run, not one per step (the scan
        # both routes share lives in riccati)
        solve = riccati_mod._solve
        calls = []

        def counting_solve(a, b):
            calls.append(None)
            return solve(a, b)

        monkeypatch.setattr(riccati_mod, "_solve", counting_solve)
        field = get_model(name)
        integrate_unitary(field, lam, np.linspace(-20.0, 20.0, nsteps + 1), _start(field, lam),
                          scheme="moebius")
        assert 0 < len(calls) <= limit

    @pytest.mark.parametrize("lam", [-0.3, -1.0])
    def test_runs_end_before_roundoff_reaches_reprojection(self, lam):
        # coarse kdv7 rows, where a block-long run's products would leave
        # defects above REPROJECT_DEFECT: runs cut by the roundoff bound need
        # no re-projection
        field = kdv7_field()
        path = integrate_unitary(field, lam, np.linspace(-20.0, 20.0, 1001), _start(field, lam),
                                 scheme="moebius")
        assert path.reprojected_steps == 0
        assert max(path.max_unitarity_defect, path.max_symmetry_defect) < 0.1 * REPROJECT_DEFECT


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       nsteps=st.integers(BLOCK_STEPS - 16, 2 * BLOCK_STEPS + 16))
def test_scanned_path_matches_per_step(n, seed, nsteps):
    # a random constant sp(R^2n) field from a random start plane, on grids
    # that straddle a block end: the scan makes the per-step path up to
    # roundoff, with the same count, and the same bits on every call
    rng = np.random.default_rng(seed)
    field = constant_field(_random_coeffs(rng, n))
    grid = np.linspace(0.0, 1.0, nsteps + 1)
    u0 = unitary_from_frame(random_lagrangian_frame(rng, n))
    path = integrate_unitary(field, 0.0, grid, u0, scheme="moebius")
    us, _, theta, _, _, _ = _unitary_per_step(field, 0.0, grid, u0, "moebius")
    assert np.max(np.abs(path.us - us)) <= 1e-11
    assert np.max(np.abs(path.theta - theta)) <= 1e-11
    expected = _count_steps(grid, _principal_phases(np.angle(np.linalg.eigvals(us))), theta)
    assert path.result.unsigned_count == expected.unsigned_count
    assert path.result.signed_index == expected.signed_index
    again = integrate_unitary(field, 0.0, grid, u0, scheme="moebius")
    assert np.array_equal(again.us, path.us) and np.array_equal(again.theta, path.theta)


def _wrapped(angle):
    return np.abs(np.angle(np.exp(1j * angle)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_paths_carry_eigenphases_and_angle_of_u(n, seed):
    # a random constant sp(R^2n) field from a random start plane: on either
    # route the phases are the sorted eigenphases of u, and theta is their
    # sum mod 2 pi
    rng = np.random.default_rng(seed)
    field = constant_field(_random_coeffs(rng, n))
    grid = np.linspace(0.0, 1.0, 81)
    s0 = SymmetricChart(symmetrize(rng.standard_normal((n, n))))
    cpath = integrate_chart(field, 0.0, grid, s0)
    upath = integrate_unitary(field, 0.0, grid, cayley(s0))
    chart_us = np.array([cayley(cpath.chart(m)).mat for m in range(grid.size)])
    for path, us in ((cpath, chart_us), (upath, upath.us)):
        assert path.phases.shape == (grid.size, n)
        expected = _principal_phases(np.angle(np.linalg.eigvals(us)))
        assert np.max(_wrapped(path.phases - expected)) < 1e-9
        assert np.max(_wrapped(path.theta - path.phases.sum(axis=1))) < 1e-8


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       h1=st.floats(0.01, 1.0), h2=st.floats(0.01, 1.0))
def test_moebius_steps_compose(n, seed, h1, h2):
    # stepping by the propagator Phi1 and then Phi2 is one step by Phi2 Phi1,
    # for s under the chart route's Moebius action and for u under the maps
    # _moebius_matrices gives; draws with an ill-conditioned denominator are
    # dropped, since roundoff there swamps the identity
    rng = np.random.default_rng(seed)
    phi1, phi2 = (mat_exp(h * _random_coeffs(rng, n).full()) for h in (h1, h2))
    s0 = symmetrize(rng.standard_normal((n, n)))

    def chart_step(s, phi):
        assume(np.linalg.cond(phi[:n, :n] + phi[:n, n:] @ s) <= 1e8)
        return mobius_apply(s, phi)[0]

    def unitary_step(u, mob):
        den, num = mob[:n, :n] + mob[:n, n:] @ u, mob[n:, :n] + mob[n:, n:] @ u
        assume(np.linalg.cond(den) <= 1e8)
        return np.linalg.solve(den.T, num.T).T

    s21 = chart_step(s0, phi2 @ phi1)
    assert _relative_error(chart_step(chart_step(s0, phi1), phi2), s21) < 1e-10
    maps = unitary_mod._moebius_matrices(np.stack([phi1, phi2, phi2 @ phi1]))
    u0 = cayley(SymmetricChart(s0)).mat
    u21 = unitary_step(u0, maps[2])
    assert _relative_error(unitary_step(unitary_step(u0, maps[0]), maps[1]), u21) < 1e-10


class TestChartAngle:
    def test_matches_unitary_route_mod_2pi(self):
        field = poschl_teller_field(2)
        lam = -2.0
        grid = np.linspace(-20, 20, 4001)
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        cpath = integrate_chart(field, lam, grid, chart_from_frame(frame))
        upath = integrate_unitary(field, lam, grid, unitary_from_frame(frame))
        t_chart = cpath.theta
        t_unit = upath.theta
        # same angle up to a global 2 pi multiple and the O(h) method gap
        diff = (t_chart - t_unit) - (t_chart[0] - t_unit[0])
        assert np.max(np.abs(diff)) < 0.05

    @pytest.mark.parametrize("name, lam", [("kdv7", 0.05), ("poschl_teller:2", -0.5)])
    def test_circle_consistency(self, name, lam):
        # exp(i theta_m) = det Cay(s_m) at every sample, through the chart
        # singularities the row passes: the unitary route's circle check
        field = get_model(name)
        grid = np.linspace(field.x_minus, field.x_plus, 4001)
        s0 = chart_from_frame(farfield_frame(field.farfield_minus(lam), "unstable"))
        path = integrate_chart(field, lam, grid, s0)
        assert path.flagged_samples
        dets = np.linalg.det([cayley(path.chart(m)).mat for m in range(grid.size)])
        assert np.max(np.abs(np.exp(1j * path.theta) - dets)) < CIRCLE_CONSISTENCY
