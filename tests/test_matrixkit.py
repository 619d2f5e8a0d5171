import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from scipy.linalg import expm as scipy_expm

from maslovflow import StructureError, det_phase, mat_exp, sym_arctan, sym_eig
from maslovflow.matrixkit import _solve, as_real_symmetric, symmetrize
from oracles import eig2x2_quadratic


class TestSymEig:
    def test_identity(self):
        w, _ = sym_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = sym_eig(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])

    def test_random_2x2_against_quadratic_formula(self, rng):
        for _ in range(25):
            m = symmetrize(rng.standard_normal((2, 2)))
            w, _ = sym_eig(m)
            assert np.allclose(w, eig2x2_quadratic(m), atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        for n in (1, 3, 6):
            m = symmetrize(rng.uniform(-5, 5, (n, n)))
            w, v = sym_eig(m)
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
            recon = (v * w) @ v.T
            assert np.max(np.abs(m - recon)) < 1e-10 * max(1.0, np.max(np.abs(m)))

    def test_rejects_non_finite(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(StructureError):
            sym_eig(m)

    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            as_real_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_series_terminates(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(mat_exp(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_scalar_analytic(self):
        m = np.array([[1j * np.pi]])
        assert np.allclose(mat_exp(m), [[-1.0]], atol=1e-14)

    def test_inverse_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            m *= 5.0 / max(np.linalg.norm(m), 1e-12)
            prod = mat_exp(m) @ mat_exp(-m)
            assert np.max(np.abs(prod - np.eye(n))) < 1e-10

    def test_skew_hermitian_gives_unitary(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sk = 0.5 * (a - a.conj().T)
            u = mat_exp(sk)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12

    def test_against_scipy_across_norms(self, rng):
        for scale in (1e-3, 0.1, 1.0, 4.0, 40.0):
            m = scale * rng.standard_normal((5, 5))
            ref = scipy_expm(m)
            got = mat_exp(m)
            assert np.max(np.abs(got - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_complex_against_scipy(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.max(np.abs(mat_exp(m) - scipy_expm(m))) < 1e-12 * np.max(np.abs(scipy_expm(m)))


class TestMatExpStack:
    """A stack of matrices goes through mat_exp at once; each matrix must come
    out exactly as it does alone, with its own Pade degree and squarings."""

    # 1-norms on every branch: degrees 3, 5, 7, 9, then degree 13 with 0, 1,
    # 3 and 7 squarings
    NORMS = (0.01, 0.2, 0.9, 2.0, 5.0, 9.0, 40.0, 600.0)

    @staticmethod
    def _with_norm(rng, k, norm, complex_entries):
        m = rng.standard_normal((k, k))
        if complex_entries:
            m = m + 1j * rng.standard_normal((k, k))
        return m * (norm / np.abs(m).sum(axis=0).max())

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_each_branch_bit_for_bit(self, rng, complex_entries):
        for norm in self.NORMS:
            for k in (1, 3, 6):
                stack = np.array([self._with_norm(rng, k, norm, complex_entries)
                                  for _ in range(7)])
                alone = np.array([mat_exp(m) for m in stack])
                assert np.array_equal(mat_exp(stack), alone), (norm, k)

    def test_mixed_branches_in_one_stack(self, rng):
        norms = rng.permutation(np.repeat(self.NORMS, 4))
        stack = np.array([self._with_norm(rng, 4, norm, True) for norm in norms])
        alone = np.array([mat_exp(m) for m in stack])
        assert np.array_equal(mat_exp(stack), alone)

    def test_norm_matches_linalg_one_norm(self, rng):
        stack = rng.standard_normal((50, 5, 5))
        ref = np.array([np.linalg.norm(m, 1) for m in stack])
        assert np.array_equal(np.abs(stack).sum(-2).max(-1), ref)

    def test_leading_axes_kept(self, rng):
        stack = 0.3 * rng.standard_normal((2, 3, 4, 4))
        out = mat_exp(stack)
        assert out.shape == stack.shape
        assert np.array_equal(out[1, 2], mat_exp(stack[1, 2]))

    def test_non_finite_anywhere_raises(self, rng):
        stack = 0.1 * rng.standard_normal((300, 3, 3))
        for bad in (np.nan, np.inf):
            broken = stack.copy()
            broken[257, 2, 1] = bad
            with pytest.raises(StructureError, match="non-finite"):
                mat_exp(broken)

    def test_non_finite_single_matrix_raises(self, rng):
        for k in (1, 3):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
                m = 0.1 * rng.standard_normal((k, k)).astype(type(bad))
                m[k - 1, 0] = bad
                with pytest.raises(StructureError, match="non-finite"):
                    mat_exp(m)

    def test_single_matrix_same_bits_as_stack_of_one(self, rng):
        # one matrix of any dtype or layout gives the bits of a stack of one
        for norm in self.NORMS:
            for k in (1, 3, 6):
                for complex_entries in (False, True):
                    m = self._with_norm(rng, k, norm, complex_entries)
                    inputs = [m, m.T, m[::-1, ::-1], np.asfortranarray(m),
                              m.astype(np.complex64 if complex_entries else np.float32)]
                    if not complex_entries:
                        inputs.append(np.rint(4.0 * m / norm).astype(int))
                    for x in inputs:
                        kept = x.copy()
                        got = mat_exp(x)
                        assert got.dtype == (complex if complex_entries else float)
                        assert np.array_equal(got, mat_exp(x[None])[0]), (norm, k, x.dtype)
                        assert np.array_equal(x, kept)

    def test_non_square_rejected(self):
        with pytest.raises(StructureError):
            mat_exp(np.zeros((4, 2, 3)))
        with pytest.raises(StructureError):
            mat_exp(np.zeros(3))


class TestSolve:
    """_solve calls LAPACK's solve gufunc the way np.linalg.solve does,
    without its wrapper; the bits and the singular-matrix error must be
    np.linalg.solve's."""

    def test_gufunc_signature(self):
        # a private numpy module: a numpy that moves or changes it fails here
        assert _umath_linalg.solve.signature == "(m,m),(m,n)->(m,n)"

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_bits_as_linalg_solve(self, rng, dtype, n):
        for k in (1, n, 2 * n):
            a = rng.standard_normal((n, n)).astype(dtype)
            b = rng.standard_normal((n, k)).astype(dtype)
            if dtype is np.complex128:
                a += 1j * rng.standard_normal((n, n))
                b += 1j * rng.standard_normal((n, k))
            bt = np.ascontiguousarray(b.T)
            # C-order, then transposed (non-contiguous) views as the chart step passes them
            for lhs, rhs in ((a, b), (a.T, bt.T), (a[::-1, ::-1], b[::-1])):
                got = _solve(lhs, rhs)
                ref = np.linalg.solve(lhs, rhs)
                assert got.dtype == ref.dtype == dtype
                assert np.array_equal(got, ref)

    def test_mixed_real_and_complex(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.array_equal(_solve(a, b), np.linalg.solve(a, b))

    @pytest.mark.parametrize("a", [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   np.array([[1.0, 1j], [1j, -1.0]])])
    def test_exactly_singular_raises_without_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                _solve(a, np.ones((a.shape[0], 1), dtype=a.dtype))
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                np.linalg.solve(a, np.ones((a.shape[0], 1), dtype=a.dtype))

    def test_caller_error_state_restored(self):
        # _solve sets its own error state around the gufunc call; the
        # caller's state holds after a solve and after a singular one
        with np.errstate(all="warn", under="ignore"):
            before = np.geterr()
            _solve(np.eye(2), np.ones((2, 1)))
            assert np.geterr() == before
            with pytest.raises(np.linalg.LinAlgError):
                _solve(np.zeros((1, 1), dtype=complex), np.ones((1, 1), dtype=complex))
            assert np.geterr() == before
            assert np.geterrcall() is None


class TestSymArctan:
    def test_zero(self):
        assert np.allclose(sym_arctan(np.zeros((3, 3))), 0.0)

    def test_identity_scalar_case(self):
        assert np.allclose(sym_arctan(np.eye(2)), (np.pi / 4) * np.eye(2))

    def test_trace_equals_eigenvalue_sum(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            s = symmetrize(rng.uniform(-5, 5, (n, n)))
            mu, _ = sym_eig(s)
            assert abs(np.trace(sym_arctan(s)) - np.sum(np.arctan(mu))) < 1e-12 * n

    def test_spectrum_in_open_interval(self, rng):
        s = symmetrize(rng.uniform(-50, 50, (4, 4)))
        w = np.linalg.eigvalsh(sym_arctan(s))
        assert np.all(np.abs(w) < np.pi / 2)


class TestDetPhase:
    def test_identity(self):
        assert det_phase(np.eye(4)) == 0.0

    def test_product_of_phases(self):
        assert abs(det_phase(np.diag([1j, 1j])) - np.pi) < 1e-15

    def test_result_in_principal_branch(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(a)
            phase = det_phase(q)
            assert -np.pi < phase <= np.pi
            assert abs(np.exp(1j * phase) - np.linalg.det(q)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(StructureError):
            det_phase(2.0 * np.eye(3))
