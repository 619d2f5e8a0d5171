"""Sanity checks of the test oracles themselves, run before anything relies
on them: the shooting oracle must reproduce the closed-form Poeschl-Teller
spectrum."""

import numpy as np
import pytest

from oracles import (
    eig2x2_quadratic,
    poschl_teller_eigenvalues,
    poschl_teller_potential,
    shooting_eigenvalue,
    shooting_node_count,
)


@pytest.mark.parametrize("m,expected", [(1, (-1.0,)), (2, (-4.0, -1.0))])
def test_shooting_reproduces_closed_form_spectrum(m, expected):
    pot = poschl_teller_potential(m)
    for target in expected:
        found = shooting_eigenvalue(pot, target - 0.5, target + 0.5, tol=1e-6)
        assert abs(found - target) < 1e-4


def test_poschl_teller_closed_form_eigenvalues():
    assert poschl_teller_eigenvalues(2) == (-4.0, -1.0)
    assert poschl_teller_eigenvalues(1) == (-1.0,)
    assert poschl_teller_eigenvalues(3) == (-9.0, -4.0, -1.0)


def test_shooting_node_counts_poschl_teller_2():
    pot = poschl_teller_potential(2)
    assert shooting_node_count(pot, -5.0) == 0
    assert shooting_node_count(pot, -2.0) == 1
    assert shooting_node_count(pot, -0.5) == 2


def test_quadratic_eig_against_characteristic_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        m = 0.5 * (m + m.T)
        w = eig2x2_quadratic(m)
        for lam in w:
            assert abs(np.linalg.det(m - lam * np.eye(2))) < 1e-10
