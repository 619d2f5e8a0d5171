import numpy as np
import pytest

from maslovflow import (
    ChartDomainError,
    CoefficientField,
    HyperbolicityError,
    LagrangianFrame,
    StructureError,
    SymplecticCoefficients,
    cayley,
    chart_from_frame,
    farfield_frame,
    kdv7_coefficients,
    kdv7_field,
    poschl_teller_field,
    total_frame_rank_loss,
    validate_coefficients,
)
from maslovflow.models import KDV7_AMP, KDV7_C_WAVE
from maslovflow.selftest import planted_rank_loss_frame
from conftest import random_lagrangian_frame
from oracles import svd_rank


class TestValidateCoefficients:
    def test_canonical_hamiltonian_block(self):
        c = validate_coefficients(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(c.d, -c.a.T)

    def test_asymmetric_b_rejected(self):
        b = np.eye(2)
        b[0, 1] = 1e-3
        with pytest.raises(StructureError, match="sp"):
            validate_coefficients(np.zeros((2, 2)), b, np.eye(2), np.zeros((2, 2)))

    def test_d_replaced_exactly(self, rng):
        a = rng.standard_normal((3, 3))
        d = -a.T + 1e-12 * rng.standard_normal((3, 3))
        c = validate_coefficients(a, np.eye(3), np.eye(3), d)
        assert np.array_equal(c.d, -a.T)

    def test_kdv7_blocks_at_origin(self):
        coeffs = kdv7_coefficients(0.0, 0.0)
        expected = KDV7_C_WAVE - 2.0 * KDV7_AMP
        assert abs(coeffs.c[0, 0] - expected) < 1e-15
        assert coeffs.n == 3


def _scalar_field(evaluate, x_minus=-1.0, x_plus=1.0, **kwargs):
    return CoefficientField(n=1, evaluate=evaluate, x_minus=x_minus, x_plus=x_plus,
                            farfield_minus=lambda lam: evaluate(x_minus, lam),
                            farfield_plus=lambda lam: evaluate(x_plus, lam), **kwargs)


def _blocks(a, b, c, d):
    return SymplecticCoefficients(n=1, a=np.array([[a]]), b=np.array([[b]]),
                                  c=np.array([[c]]), d=np.array([[d]]))


class TestCoefficientField:
    def test_exact_field_accepted(self):
        field = _scalar_field(lambda x, lam: _blocks(0.0, 1.0, x - lam, -0.0))
        assert field.n == 1

    def test_structure_broken_at_a_sample_rejected(self):
        # d = -a^T fails at x = 0.5, an interior sample of [-1, 1]
        def evaluate(x, lam):
            return _blocks(x, 1.0, -lam, -x if x != 0.5 else 0.0)

        with pytest.raises(StructureError, match="sp"):
            _scalar_field(evaluate)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(StructureError, match="declared n"):
            CoefficientField(n=2, evaluate=lambda x, lam: _blocks(0.0, 1.0, 1.0, 0.0),
                             x_minus=-1.0, x_plus=1.0,
                             farfield_minus=lambda lam: _blocks(0.0, 1.0, 1.0, 0.0),
                             farfield_plus=lambda lam: _blocks(0.0, 1.0, 1.0, 0.0))

    def test_farfield_mismatch_rejected(self):
        exact = _scalar_field(lambda x, lam: _blocks(0.0, 1.0, 1.0, 0.0))
        with pytest.raises(StructureError, match="far-field"):
            CoefficientField(n=1, evaluate=exact.evaluate, x_minus=-1.0, x_plus=1.0,
                             farfield_minus=lambda lam: _blocks(0.0, 1.0, 2.0, 0.0),
                             farfield_plus=exact.farfield_plus)

    def test_full_stack_broadcasts_constant_blocks(self):
        field = _scalar_field(lambda x, lam: _blocks(0.0, 1.0, 2.0, 0.0))
        stack = field.full_stack(np.linspace(-1.0, 1.0, 4), 0.0)
        assert stack.shape == (4, 2, 2)
        assert np.array_equal(stack, np.broadcast_to([[0.0, 1.0], [2.0, 0.0]], (4, 2, 2)))

    def test_full_stack_rejects_other_shapes(self):
        # np.array([[x - lam]]) puts the grid axis last: (1, 1, N)
        field = _scalar_field(lambda x, lam: _blocks(0.0, 1.0, x - lam, -0.0))
        with pytest.raises(StructureError, match="block c has shape"):
            field.full_stack(np.linspace(-1.0, 1.0, 3), 0.0)
        with pytest.raises(StructureError, match="1-d"):
            field.full_stack(np.zeros((2, 2)), 0.0)

    def test_empty_window_rejected(self):
        with pytest.raises(StructureError, match="x_minus < x_plus"):
            _scalar_field(lambda x, lam: _blocks(0.0, 1.0, 1.0, 0.0), 1.0, 1.0)


class TestTotalFrameRankLoss:
    def test_full_rank(self):
        frame = LagrangianFrame(q=np.eye(3), p=np.zeros((3, 3)))
        assert total_frame_rank_loss(frame) == 0

    def test_one_zero_direction(self):
        q = np.diag([1.0, 0.0])
        p = np.diag([0.0, 1.0])
        frame = LagrangianFrame(q=q, p=p)
        assert total_frame_rank_loss(frame) == 1

    def test_planted_loss_two_against_stacked_svd(self, rng):
        frame = planted_rank_loss_frame(5, 2, rng)
        assert total_frame_rank_loss(frame) == 2
        total = np.block([[frame.q, np.zeros((5, 5))], [frame.p, np.eye(5)]])
        assert 10 - svd_rank(total) == 2


class TestFarfieldFrame:
    def test_scalar_unstable_direction(self):
        coeffs = validate_coefficients(np.zeros((1, 1)), np.ones((1, 1)),
                                       np.ones((1, 1)), np.zeros((1, 1)))
        frame = farfield_frame(coeffs, "unstable")
        s0 = frame.p[0, 0] / frame.q[0, 0]
        assert abs(s0 - 1.0) < 1e-12
        assert abs(abs(frame.q[0, 0]) - 1 / np.sqrt(2)) < 1e-12

    def test_scalar_stable_direction(self):
        coeffs = validate_coefficients(np.zeros((1, 1)), np.ones((1, 1)),
                                       np.ones((1, 1)), np.zeros((1, 1)))
        frame = farfield_frame(coeffs, "stable")
        assert abs(frame.p[0, 0] / frame.q[0, 0] + 1.0) < 1e-12

    def test_kdv7_invariant_subspace_residual(self):
        field = kdv7_field()
        a_inf = field.farfield_minus(0.15)
        frame = farfield_frame(a_inf, "unstable")
        f = frame.stacked()
        restriction = f.T @ a_inf.full() @ f  # F orthonormal
        residual = np.max(np.abs(a_inf.full() @ f - f @ restriction))
        assert residual < 1e-10

    def test_invariance_property_random_lambdas(self, rng):
        field = kdv7_field()
        for lam in (-0.3, -0.1, 0.0, 0.1):
            for side in ("unstable", "stable"):
                a_inf = field.farfield_plus(lam)
                f = farfield_frame(a_inf, side).stacked()
                residual = np.max(np.abs(a_inf.full() @ f - f @ (f.T @ a_inf.full() @ f)))
                assert residual < 1e-9

    def test_non_hyperbolic_rejected(self):
        field = poschl_teller_field(2)
        with pytest.raises(HyperbolicityError, match="essential"):
            farfield_frame(field.farfield_minus(0.5), "unstable")

    def test_deterministic(self):
        field = kdv7_field()
        a_inf = field.farfield_minus(0.1)
        f1 = farfield_frame(a_inf, "unstable")
        f2 = farfield_frame(a_inf, "unstable")
        assert np.array_equal(f1.q, f2.q) and np.array_equal(f1.p, f2.p)


class TestChartFromFrame:
    def test_horizontal_plane(self):
        frame = LagrangianFrame(q=np.eye(3), p=np.zeros((3, 3)))
        assert np.allclose(chart_from_frame(frame).mat, 0.0)

    def test_scalar_diagonal_plane(self):
        v = 1 / np.sqrt(2)
        frame = LagrangianFrame(q=np.array([[v]]), p=np.array([[v]]))
        assert abs(chart_from_frame(frame).mat[0, 0] - 1.0) < 1e-14

    def test_cayley_image_is_unitary_symmetric(self, rng):
        for _ in range(10):
            frame = random_lagrangian_frame(rng, 4)
            u = cayley(chart_from_frame(frame)).mat
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
            assert np.max(np.abs(u - u.T)) < 1e-10

    def test_gauge_invariance(self, rng):
        for _ in range(10):
            frame = random_lagrangian_frame(rng, 3)
            g = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            gauged = LagrangianFrame(q=frame.q @ g, p=frame.p @ g)
            s1 = chart_from_frame(frame).mat
            s2 = chart_from_frame(gauged).mat
            assert np.max(np.abs(s1 - s2)) < 1e-9 * max(1.0, np.max(np.abs(s1)))

    def test_vertical_plane_rejected(self):
        frame = LagrangianFrame(q=np.zeros((2, 2)), p=np.eye(2))
        with pytest.raises(ChartDomainError, match="top cell"):
            chart_from_frame(frame)
