import numpy as np
import pytest

from maslovflow import (
    HyperbolicityError,
    ModelError,
    ModelSpec,
    StructureError,
    farfield_frame,
    get_model,
    kdv7_coefficients,
    kdv7_field,
    kdv7_wave,
    poschl_teller_field,
    validate_coefficients,
)
from maslovflow.models import KDV7_AMP, KDV7_C_WAVE


class TestKdv7Wave:
    def test_peak_value(self):
        assert abs(kdv7_wave(0.0) - 2.0 * KDV7_AMP) < 1e-15

    def test_decay(self):
        assert kdv7_wave(50.0) < 1e-8
        assert kdv7_wave(-50.0) < 1e-8

    def test_even(self, rng):
        for x in rng.uniform(0, 30, 20):
            assert kdv7_wave(x) == kdv7_wave(-x)

    def test_exact_steady_state_residual(self):
        # the integrated wave ODE -c U + U^2/2 + U'' - U'''' + sigma U^(6) = 0
        # must hold to high precision for the stored constants
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        old_dps = mp.dps
        try:
            mp.dps = 40
            c = mpmath.mpf(710000) / 2159 ** 2
            sigma = mpmath.mpf(2159) / 10000
            amp = mpmath.mpf(1039500) / 2159 ** 2
            width = mpmath.sqrt(mpmath.mpf(25) / 2159)

            def profile(x):
                s = mpmath.sech(width * x)
                return amp * (s ** 6 + s ** 4)

            for xv in ("0.3", "1.1", "2.7"):
                xv = mpmath.mpf(xv)
                residual = (-c * profile(xv) + profile(xv) ** 2 / 2
                            + mpmath.diff(profile, xv, 2)
                            - mpmath.diff(profile, xv, 4)
                            + sigma * mpmath.diff(profile, xv, 6))
                assert abs(residual) < mpmath.mpf("1e-30")
        finally:
            mp.dps = old_dps

    def test_translation_mode_in_kernel(self):
        # (c - U - d2 + d4 - sigma d6) U' = 0: lambda = 0 is an eigenvalue
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        old_dps = mp.dps
        try:
            mp.dps = 40
            c = mpmath.mpf(710000) / 2159 ** 2
            sigma = mpmath.mpf(2159) / 10000
            amp = mpmath.mpf(1039500) / 2159 ** 2
            width = mpmath.sqrt(mpmath.mpf(25) / 2159)

            def wave_slope(x):
                s = mpmath.sech(width * x)
                t = mpmath.tanh(width * x)
                return amp * width * (-6 * s ** 6 - 4 * s ** 4) * t

            for xv in ("0.4", "1.3"):
                xv = mpmath.mpf(xv)
                s = mpmath.sech(width * xv)
                u_val = amp * (s ** 6 + s ** 4)
                residual = ((c - u_val) * wave_slope(xv)
                            - mpmath.diff(wave_slope, xv, 2)
                            + mpmath.diff(wave_slope, xv, 4)
                            - sigma * mpmath.diff(wave_slope, xv, 6))
                assert abs(residual) < mpmath.mpf("1e-30")
        finally:
            mp.dps = old_dps


class TestKdv7Coefficients:
    def test_lambda_entry(self):
        coeffs = kdv7_coefficients(0.0, 0.0)
        assert abs(coeffs.c[0, 0] - (KDV7_C_WAVE - 2 * KDV7_AMP)) < 1e-15

    def test_inverse_sigma_entry(self):
        coeffs = kdv7_coefficients(1.0, 0.1)
        full = coeffs.full()
        assert abs(full[2, 5] - 1.0 / 0.2159) < 1e-12
        assert abs(full[2, 5] - 4.63177) < 1e-3

    def test_only_one_entry_depends_on_lambda(self, rng):
        x = float(rng.uniform(-5, 5))
        a1 = kdv7_coefficients(x, -0.2).full()
        a2 = kdv7_coefficients(x, 0.1).full()
        diff = np.abs(a1 - a2)
        assert diff[3, 0] > 0
        diff[3, 0] = 0.0
        assert np.max(diff) == 0.0

    def test_validates_for_1000_random_points(self, rng):
        for _ in range(1000):
            x = float(rng.uniform(-25, 25))
            lam = float(rng.uniform(-0.5, 0.5))
            coeffs = kdv7_coefficients(x, lam)
            # re-validate the emitted blocks
            validate_coefficients(coeffs.a, coeffs.b, coeffs.c, coeffs.d)

    def test_farfield_drops_wave_only(self):
        field = kdv7_field()
        a_inf = field.farfield_minus(0.1).full()
        a_far = kdv7_coefficients(1e6, 0.1).full()
        assert np.max(np.abs(a_inf - a_far)) < 1e-300
        assert field.farfield_defect(0.1) <= field.farfield_tol

    def test_declared_farfield_tolerance_is_fixed(self):
        # the default window's tail (6.5e-4) passes; narrower windows whose
        # truncation changes counts are refused when the field is built
        assert kdv7_field().farfield_tol == 1e-3
        assert kdv7_field(-30.0, 30.0).farfield_tol == 1e-3
        for half_width in (12.0, 6.0):
            with pytest.raises(StructureError, match="far-field"):
                kdv7_field(-half_width, half_width)

    def test_hyperbolic_across_sweep_window(self):
        field = kdv7_field()
        for lam in np.linspace(-0.3, 0.15, 91):
            farfield_frame(field.farfield_minus(float(lam)), "unstable")

    def test_essential_edge_is_wave_speed(self):
        field = kdv7_field()
        with pytest.raises(HyperbolicityError):
            farfield_frame(field.farfield_minus(KDV7_C_WAVE + 1e-4), "unstable")
        farfield_frame(field.farfield_minus(KDV7_C_WAVE - 1e-3), "unstable")


class TestPoschlTeller:
    def test_hyperbolic_iff_negative_lambda(self):
        field = poschl_teller_field(2)
        frame = farfield_frame(field.farfield_minus(-1e-3), "unstable")
        assert frame.n == 1
        with pytest.raises(HyperbolicityError):
            farfield_frame(field.farfield_minus(0.0), "unstable")
        with pytest.raises(HyperbolicityError):
            farfield_frame(field.farfield_minus(0.5), "unstable")

    def test_farfield_rates(self):
        field = poschl_teller_field(2)
        lam = -4.0
        a_inf = field.farfield_minus(lam).full()
        w = np.sort(np.linalg.eigvals(a_inf).real)
        assert np.allclose(w, [-2.0, 2.0], atol=1e-9)

    def test_invalid_m_rejected(self):
        with pytest.raises(ModelError):
            poschl_teller_field(5)


class TestGridEvaluation:
    """A model evaluated on an array of x must agree with its evaluation at
    each x alone, the one the far-field checks use."""

    @pytest.mark.parametrize("name, lam", [("kdv7", 0.07), ("kdv7", -0.25),
                                           ("poschl_teller:2", -1.5),
                                           ("poschl_teller:3", -7.0)])
    def test_array_matches_scalar(self, rng, name, lam):
        field = get_model(name)
        x = np.concatenate([np.linspace(field.x_minus, field.x_plus, 801),
                            rng.uniform(field.x_minus, field.x_plus, 200)])
        scalar = np.array([field.evaluate(float(v), lam).full() for v in x])
        np.testing.assert_array_max_ulp(field.full_stack(x, lam), scalar, maxulp=1)

    def test_kdv7_only_c11_carries_the_grid_axis(self):
        coeffs = kdv7_coefficients(np.linspace(-3.0, 3.0, 7), 0.1)
        assert coeffs.c.shape == (7, 3, 3)
        assert coeffs.a.shape == coeffs.b.shape == coeffs.d.shape == (3, 3)
        assert np.all(coeffs.c[:, 1:, :] == coeffs.c[0, 1:, :])
        assert np.all(coeffs.c[:, 0, 1:] == 0.0)

    def test_kdv7_wave_array_equals_scalar_exactly(self, rng):
        x = rng.uniform(-40.0, 40.0, 2000)
        assert np.array_equal(kdv7_wave(x), np.array([kdv7_wave(float(v)) for v in x]))


class TestModelSpec:
    def test_parse_kdv7(self):
        assert ModelSpec.parse("kdv7") == ModelSpec("kdv7", {})

    def test_parse_poschl_teller(self):
        assert ModelSpec.parse("poschl_teller:3") == ModelSpec("poschl_teller", {"m": 3})

    def test_parse_errors(self):
        with pytest.raises(ModelError):
            ModelSpec.parse("kdv9")
        with pytest.raises(ModelError):
            ModelSpec.parse("poschl_teller")
        with pytest.raises(ModelError):
            ModelSpec.parse("poschl_teller:x")

    def test_get_model_overrides_window(self):
        field = get_model(ModelSpec("poschl_teller", {"m": 1, "x_minus": -10.0, "x_plus": 12.0}))
        assert field.x_minus == -10.0 and field.x_plus == 12.0
