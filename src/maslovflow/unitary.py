"""Cayley transform and the singularity-free flow on unitary symmetric
matrices.

Under u = Cay(s) = (I - is)(I + is)^{-1} the chart Riccati flow becomes
``du/dx = C + D u - u (D* + C* u)`` with rotated coefficients C, D built from
the sp(R^2n) blocks.  That flow is the Lie-algebra action ``xi u - u xi*`` of
the skew-Hermitian field ``xi = D - (u C* - C u^dag)/2``, so it can be stepped
inside the unitary group: each step exponentiates a Lie-algebra element and
the angle accumulates as ``dtheta = -2i tr(sigma_step)``, which is exact on
the group and needs no branch unwinding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .matrixkit import det_phase, mat_exp, sym_eig
from .riccati import BLOCK_STEPS, SymmetricChart, _check_theta_steps
from .system import CoefficientField, LagrangianFrame, SymplecticCoefficients
from .tolerances import CIRCLE_CONSISTENCY, REPROJECT_DEFECT, UNITARY_TYPE

__all__ = [
    "UnitarySymmetric",
    "UnitaryPath",
    "cayley",
    "unitary_from_frame",
    "rotated_coefficients",
    "integrate_unitary",
]


@dataclass(frozen=True)
class UnitarySymmetric:
    """Unitary symmetric matrix (the Cayley image of a chart point)."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError(f"expected square matrix, got {m.shape}")
        n = m.shape[0]
        u_defect = float(np.max(np.abs(m @ m.conj().T - np.eye(n))))
        s_defect = float(np.max(np.abs(m - m.T)))
        if u_defect > UNITARY_TYPE or s_defect > UNITARY_TYPE:
            raise StructureError(
                f"not unitary symmetric: unitarity {u_defect:.3e}, symmetry {s_defect:.3e}")

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class UnitaryPath:
    """Unitary samples with the accumulated angle and drift diagnostics.

    ``theta`` is the angle between the evolving plane and the standard
    reference plane, accumulated without branch ambiguity; ``sigmas[m]`` is
    the Lie-algebra step that produced sample m (zero at m = 0).  Defects are measured on the raw step products, before any
    re-projection, so they quantify the intrinsic drift of the scheme.
    """

    grid: np.ndarray
    us: np.ndarray
    sigmas: np.ndarray
    theta: np.ndarray
    max_unitarity_defect: float
    max_symmetry_defect: float
    max_circle_defect: float
    reprojected_steps: int = 0


def cayley(s: SymmetricChart) -> UnitarySymmetric:
    """Cayley transform u = (I - is)(I + is)^{-1}, evaluated spectrally.

    Eigenvalues map as mu -> (1 - i mu)/(1 + i mu); the result is exactly
    symmetric by construction.
    """
    w, v = sym_eig(s.mat)
    phases = (1.0 - 1j * w) / (1.0 + 1j * w)
    return UnitarySymmetric((v * phases) @ v.T)


def unitary_from_frame(frame: LagrangianFrame) -> UnitarySymmetric:
    """Unitary symmetric representative (q - ip)(q + ip)^{-1} of a plane.

    Defined for every Lagrangian frame (q + ip is always invertible), so it
    also covers planes outside the top cell; gauge-invariant in the frame.
    """
    q = frame.q.astype(complex)
    p = frame.p.astype(complex)
    u = np.linalg.solve((q + 1j * p).T, (q - 1j * p).T).T
    return UnitarySymmetric(0.5 * (u + u.T))


def rotated_coefficients(coeffs: SymplecticCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Rotate sp(R^2n) blocks into the complex pair (C, D) driving the
    u-flow: C = (a - d - i(b + c))/2, symmetric, and D = (a + d + i(b - c))/2,
    skew-Hermitian."""
    c_rot = 0.5 * (coeffs.a - coeffs.d - 1j * (coeffs.b + coeffs.c))
    d_rot = 0.5 * (coeffs.a + coeffs.d + 1j * (coeffs.b - coeffs.c))
    return c_rot, d_rot


def _polar_symmetric_project(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    proj = w @ vh
    return 0.5 * (proj + proj.T)


def integrate_unitary(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    u0: UnitarySymmetric,
) -> UnitaryPath:
    """Integrate the unitary flow over ``grid`` with the Lie-algebra Euler
    scheme and accumulate theta by -2i tr(sigma_step).

    Each step takes sigma = h xi(x_m, u_m) with the skew-Hermitian field
    xi = D - (u C* - C u^dag)/2, which satisfies xi u - u xi* = C + D u -
    u (D* + C* u) on unitary symmetric u, and then u -> exp(sigma) u
    exp(sigma)^T.  C and D, which do not depend on u, are computed
    ``BLOCK_STEPS`` steps at a time.  The unitarity and symmetry defects of
    every raw product are measured: above ``UNITARY_TYPE`` they raise
    ``StructureError``; above ``REPROJECT_DEFECT`` the sample is re-projected
    (polar factor, then symmetric averaging).  The grid is checked by
    :meth:`CoefficientField.check_grid`.  Theta starts at the principal
    value of -i log det u0; the sampled path satisfies exp(i theta_m) =
    det u_m up to roundoff, and the worst circle defect is recorded and
    gated, then the steps of theta by ``_check_theta_steps``.
    """
    grid = field.check_grid(grid)
    if u0.n != field.n:
        raise StructureError("initial u dimension disagrees with field")

    nsteps = grid.size - 1
    n = field.n
    us = np.empty((nsteps + 1, n, n), dtype=complex)
    sigmas = np.zeros((nsteps + 1, n, n), dtype=complex)
    us[0] = u0.mat
    eye = np.eye(n)
    max_u_defect = 0.0
    max_s_defect = 0.0
    reprojected = 0
    u = u0.mat
    steps = np.diff(grid)
    for lo in range(0, nsteps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, nsteps)
        full = field.full_stack(grid[lo:hi], lam)
        c_rots, d_rots = rotated_coefficients(SymplecticCoefficients(
            n=n, a=full[:, :n, :n], b=full[:, :n, n:], c=full[:, n:, :n], d=full[:, n:, n:]))
        for m, c_rot, c_conj, d_rot in zip(range(lo, hi), c_rots, np.conj(c_rots), d_rots):
            xi = d_rot - 0.5 * (u @ c_conj - c_rot @ u.conj().T)
            sigma = steps[m] * (0.5 * (xi - xi.conj().T))
            e = mat_exp(sigma)
            u_next = e @ u @ e.T
            u_defect = float(np.abs(u_next @ u_next.conj().T - eye).max())
            s_defect = float(np.abs(u_next - u_next.T).max())
            if u_defect > UNITARY_TYPE or s_defect > UNITARY_TYPE:
                raise StructureError(f"step {m} left the unitary symmetric matrices: "
                                     f"unitarity {u_defect:.3e}, symmetry {s_defect:.3e}")
            max_u_defect = max(max_u_defect, u_defect)
            max_s_defect = max(max_s_defect, s_defect)
            if max(u_defect, s_defect) > REPROJECT_DEFECT:
                u_next = _polar_symmetric_project(u_next)
                reprojected += 1
            sigmas[m + 1] = sigma
            us[m + 1] = u_next
            u = u_next

    # theta_{m+1} = theta_m - 2i tr(sigma_{m+1}), summed in step order
    increments = 2.0 * np.trace(sigmas[1:], axis1=1, axis2=2).imag
    theta = np.cumsum(np.concatenate([[det_phase(u0.mat)], increments]))
    circle = float(np.max(np.abs(np.exp(1j * theta) - np.linalg.det(us))))
    if circle > CIRCLE_CONSISTENCY:
        raise StructureError(
            f"theta/determinant circle consistency broken: defect {circle:.3e}")
    _check_theta_steps(theta)
    return UnitaryPath(grid=grid, us=us, sigmas=sigmas, theta=theta,
                       max_unitarity_defect=max_u_defect,
                       max_symmetry_defect=max_s_defect,
                       max_circle_defect=circle,
                       reprojected_steps=reprojected)

