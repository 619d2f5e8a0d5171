import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_lagrangian_frame(rng: np.random.Generator, n: int):
    """Well-conditioned random Lagrangian frame: symplectic image of a
    symmetric-chart plane, with a random gauge."""
    from maslovflow import LagrangianFrame

    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    q, p = np.eye(n), s
    x, _ = np.linalg.qr(rng.standard_normal((n, n)))
    shear = rng.standard_normal((n, n))
    shear = 0.5 * (shear + shear.T)
    # [[X, 0], [X S, X]] with X orthogonal and S symmetric is symplectic
    q2 = x @ q
    p2 = x @ (shear @ q + p)
    g = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return LagrangianFrame(q=q2 @ g, p=p2 @ g)


def constant_field(coeffs, x_minus: float = 0.0, x_plus: float = 1.0):
    """Coefficient field equal to ``coeffs`` everywhere, far fields included."""
    from maslovflow import CoefficientField

    return CoefficientField(n=coeffs.n, evaluate=lambda x, lam: coeffs,
                            x_minus=x_minus, x_plus=x_plus,
                            farfield_minus=lambda lam: coeffs,
                            farfield_plus=lambda lam: coeffs)
