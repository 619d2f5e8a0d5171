"""Bundled coefficient fields.

* ``kdv7``: the 6th-order self-adjoint spectral problem of a solitary wave of
  a seventh-order KdV equation, reduced to a first-order system on sp(R^6).
* ``poschl_teller:m``: the scalar Schroedinger problem with the solvable
  potential V = -m(m+1) sech^2 x, whose eigenvalues {-j^2 : j = 1..m} are
  known in closed form; used as a desk-scale counting oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .errors import ModelError
from .system import CoefficientField, SymplecticCoefficients

__all__ = [
    "Kdv7Params",
    "ModelSpec",
    "kdv7_wave",
    "kdv7_coefficients",
    "kdv7_field",
    "poschl_teller_field",
    "poschl_teller_eigenvalues",
    "get_model",
    "MODEL_NAMES",
]

# Exact solitary-wave family: with sigma7 = 2159/10^4, the profile
# amp*(sech^6 + sech^4)(k x) with k^2 = 25/2159 is an exact steady state of
# the integrated wave ODE precisely for speed 710000/2159^2 (verified to 40
# digits in the test suite).  The speed also equals the essential-spectrum
# edge of the linearized operator, and the translation mode puts an
# eigenvalue exactly at lambda = 0.
_C_WAVE = Fraction(710000, 2159 ** 2)
_SIGMA7 = Fraction(2159, 10000)
_AMP = Fraction(1039500, 2159 ** 2)
_WIDTH_SQ = Fraction(25, 2159)

# Declared far-field tolerance of the kdv7 field: the largest gap allowed
# between the wave at the window ends and its limit 0.  The default window
# [-20, 20] leaves a tail of 6.5e-4; a window narrow enough to change counts
# (a tail of 1.9e-2 at [-12, 12]) is rejected when the field is built.
_KDV7_FARFIELD_TOL = 1e-3

# Declared far-field tolerance of the Poeschl-Teller fields: the largest
# |V| allowed at the window ends.  The default window [-20, 20] leaves about
# 1e-16; [-6, 6] leaves 1.5e-4 (m = 2), and [-5, 5], with 1.1e-3, is
# rejected when the field is built.
_PT_FARFIELD_TOL = 1e-3


@dataclass(frozen=True)
class Kdv7Params:
    """Constants of the seventh-order KdV solitary-wave problem."""

    c_wave: float = float(_C_WAVE)
    sigma7: float = float(_SIGMA7)
    amp: float = float(_AMP)
    width: float = float(np.sqrt(float(_WIDTH_SQ)))

    def __post_init__(self) -> None:
        if min(self.c_wave, self.sigma7, self.amp, self.width) <= 0:
            raise ModelError("Kdv7Params must all be positive")


def _sech(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / np.cosh(np.clip(z, -700.0, 700.0))


def kdv7_wave(x: np.ndarray | float, params: Kdv7Params = Kdv7Params()):
    """Solitary-wave profile U(x) = amp (sech^6(kx) + sech^4(kx)).

    The powers are taken one element at a time with the C library's pow,
    which numpy also uses for a scalar; its vectorized power can differ in
    the last bit, and the wave at an array of x must equal the wave at each
    x exactly.
    """
    s = np.asarray(_sech(params.width * np.asarray(x, dtype=float))).astype(object)
    s6 = np.asarray(s ** 6, dtype=float)
    s4 = np.asarray(s ** 4, dtype=float)
    return params.amp * (s6 + s4)


def _kdv7_blocks(lam: float, u: np.ndarray | float, params: Kdv7Params) -> SymplecticCoefficients:
    """Exact sp(R^6) blocks with wave value(s) ``u``: a = 0, d = -a^T, and b, c
    exactly symmetric.  An array ``u`` of shape (N,) gives c of shape
    (N, 3, 3); the other blocks do not depend on x and stay (3, 3)."""
    u = np.asarray(u, dtype=float)
    a = np.zeros((3, 3))
    b = np.array([[0.0, -1.0, 0.0],
                  [-1.0, -1.0, 0.0],
                  [0.0, 0.0, 1.0 / params.sigma7]])
    c = np.zeros(u.shape + (3, 3))
    c[..., 0, 0] = -lam + params.c_wave - u
    c[..., 1, 2] = c[..., 2, 1] = -1.0
    c[..., 2, 2] = 1.0
    return SymplecticCoefficients(n=3, a=a, b=b, c=c, d=-a.T)


def kdv7_coefficients(
    x: np.ndarray | float,
    lam: float,
    params: Kdv7Params = Kdv7Params(),
) -> SymplecticCoefficients:
    """Coefficient matrix of the first-order system at (x, lambda), n = 3.

    Only the (4,1) entry, -lambda + c_wave - U(x), depends on x or lambda.
    A 1-d array of x gives that entry for every x at once: c has shape
    (N, 3, 3), the other blocks (3, 3).
    """
    return _kdv7_blocks(lam, kdv7_wave(x, params), params)


def kdv7_field(
    x_minus: float = -20.0,
    x_plus: float = 20.0,
    params: Kdv7Params = Kdv7Params(),
) -> CoefficientField:
    """The kdv7 coefficient field on [x_minus, x_plus].

    The far-field limits drop the wave profile.  The window ends must come
    within 1e-3 of them, so a window that cuts off too much of the wave
    raises ``StructureError`` instead of miscounting.
    """

    def evaluate(x: np.ndarray | float, lam: float) -> SymplecticCoefficients:
        return kdv7_coefficients(x, lam, params)

    def limit(lam: float) -> SymplecticCoefficients:
        return _kdv7_blocks(lam, float(kdv7_wave(np.inf, params)), params)

    return CoefficientField(n=3, evaluate=evaluate, x_minus=x_minus, x_plus=x_plus,
                            farfield_minus=limit, farfield_plus=limit,
                            farfield_tol=_KDV7_FARFIELD_TOL, name="kdv7")


def poschl_teller_eigenvalues(m: int) -> tuple[float, ...]:
    """Closed-form bound states of V = -m(m+1) sech^2 x: {-j^2 : j = 1..m}."""
    return tuple(-float(j * j) for j in range(m, 0, -1))


def poschl_teller_field(
    m: int,
    x_minus: float = -20.0,
    x_plus: float = 20.0,
) -> CoefficientField:
    """Poeschl-Teller oracle model with m bound states; hyperbolic iff lambda < 0.

    First-order reduction of -u'' + V u = lambda u with q = u, p = u':
    a = 0, b = 1, c = V - lambda, d = 0.  The far-field limits are those of
    V(+-inf) = 0; the window ends must come within 1e-3 of them, so a window
    that cuts into the well raises ``StructureError`` instead of miscounting.
    """
    if m not in (1, 2, 3):
        raise ModelError(f"poschl_teller expects m in {{1, 2, 3}}, got {m}")

    def blocks(c: np.ndarray | float) -> SymplecticCoefficients:
        a = np.zeros((1, 1))
        c_block = np.asarray(c, dtype=float)[..., None, None]
        return SymplecticCoefficients(n=1, a=a, b=np.ones((1, 1)), c=c_block, d=-a.T)

    def evaluate(x: np.ndarray | float, lam: float) -> SymplecticCoefficients:
        sech = _sech(x)
        return blocks(-m * (m + 1) * sech * sech - lam)

    def limit(lam: float) -> SymplecticCoefficients:
        return blocks(-lam)

    return CoefficientField(n=1, evaluate=evaluate, x_minus=x_minus, x_plus=x_plus,
                            farfield_minus=limit, farfield_plus=limit,
                            farfield_tol=_PT_FARFIELD_TOL, name=f"poschl_teller:{m}")


@dataclass(frozen=True)
class ModelSpec:
    """Picklable handle for a bundled model: a name plus keyword overrides.

    Recognized params: ``x_minus``, ``x_plus`` for both models and ``m`` for
    poschl_teller.
    """

    name: str
    params: dict = dataclass_field(default_factory=dict)

    @staticmethod
    def parse(text: str) -> "ModelSpec":
        """Parse "kdv7" or "poschl_teller:m" style names."""
        base, _, arg = text.partition(":")
        base = base.strip()
        if base == "kdv7":
            if arg:
                raise ModelError(f"kdv7 takes no ':' argument, got {text!r}")
            return ModelSpec("kdv7", {})
        if base == "poschl_teller":
            if not arg:
                raise ModelError("poschl_teller needs ':m', e.g. poschl_teller:2")
            try:
                m = int(arg)
            except ValueError as exc:
                raise ModelError(f"bad poschl_teller parameter {arg!r}") from exc
            return ModelSpec("poschl_teller", {"m": m})
        raise ModelError(f"unknown model {text!r}; choose from {sorted(MODEL_NAMES)}")


MODEL_NAMES = ("kdv7", "poschl_teller")


# ``tol`` is ignored; benchmark/probe.py still passes it.
def get_model(spec: ModelSpec | str, tol: object = None) -> CoefficientField:
    """Build the coefficient field a ModelSpec or name refers to."""
    if isinstance(spec, str):
        spec = ModelSpec.parse(spec)
    kwargs = dict(spec.params)
    x_minus = float(kwargs.pop("x_minus", -20.0))
    x_plus = float(kwargs.pop("x_plus", 20.0))
    if spec.name == "kdv7":
        if kwargs:
            raise ModelError(f"kdv7 got unexpected params {sorted(kwargs)}")
        return kdv7_field(x_minus, x_plus)
    if spec.name == "poschl_teller":
        m = int(kwargs.pop("m", 2))
        if kwargs:
            raise ModelError(f"poschl_teller got unexpected params {sorted(kwargs)}")
        return poschl_teller_field(m, x_minus, x_plus)
    raise ModelError(f"unknown model {spec.name!r}; choose from {sorted(MODEL_NAMES)}")
