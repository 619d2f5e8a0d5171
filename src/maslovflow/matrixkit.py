"""Dense matrix kernels: symmetric eigendecomposition, matrix exponential,
principal matrix functions, and determinant phase.

All other modules build on these four operations.  Inputs are plain numpy
arrays; validated wrapper types live with the modules that own them.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .tolerances import CHART_SYMMETRY, EIG_ORTHONORMALITY, EIG_RECONSTRUCTION, UNITARY_CHECK

__all__ = [
    "symmetrize",
    "as_real_symmetric",
    "sym_eig",
    "mat_exp",
    "sym_arctan",
    "det_phase",
]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part (m + m^T)/2."""
    return 0.5 * (m + m.T)


def as_real_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a real square matrix.

    Rejects non-finite input and asymmetry defects beyond ``CHART_SYMMETRY``
    relative to the matrix scale; the returned array is exactly symmetric.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise StructureError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    defect = float(np.max(np.abs(m - m.T)))
    if defect > CHART_SYMMETRY * scale:
        raise StructureError(
            f"matrix not symmetric: defect {defect:.3e} > {CHART_SYMMETRY * scale:.3e}")
    return symmetrize(m)


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a real symmetric matrix, as
    ``np.linalg.eigh`` returns it: ascending eigenvalues w and orthonormal
    columns v with ``M = V diag(w) V^T``.

    Uses the LAPACK symmetric solver (tridiagonalization + implicit QL/QR).
    The result is checked against the orthonormality and reconstruction
    tolerances before it is returned.
    """
    m = as_real_symmetric(m)
    w, v = np.linalg.eigh(m)
    n = m.shape[0]
    orth = float(np.max(np.abs(v.T @ v - np.eye(n))))
    if orth > EIG_ORTHONORMALITY:
        raise StructureError(f"eigenvector basis not orthonormal: {orth:.3e}")
    scale = max(float(np.max(np.abs(m))), 1e-300)
    recon = float(np.max(np.abs(m - (v * w) @ v.T)))
    if recon > EIG_RECONSTRUCTION * scale:
        raise StructureError(f"eigendecomposition reconstruction defect {recon:.3e}")
    return w, v


# Pade coefficients and 1-norm bounds theta_m for the scaling-and-squaring
# matrix exponential; the pairing (m, theta_m) guarantees a backward error
# below unit roundoff in double precision (exp(A + dA) computed exactly with
# ||dA|| <= u ||A||).
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
_DEGREES = (3, 5, 7, 9, 13)
_THETA_BOUNDS = np.array([_THETA[d] for d in _DEGREES[:-1]])


def _pade_factors(a: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    b = _PADE_B[degree]
    n = a.shape[-1]
    eye = np.eye(n, dtype=a.dtype)
    a2 = a @ a
    if degree == 3:
        u = a @ (b[3] * a2 + b[1] * eye)
        v = b[2] * a2 + b[0] * eye
        return u, v
    a4 = a2 @ a2
    if degree == 5:
        u = a @ (b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    a6 = a4 @ a2
    if degree == 7:
        u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    if degree == 9:
        a8 = a6 @ a2
        u = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    # degree 13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return u, v


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with diagonal Pade.

    ``m`` is one square matrix or a stack of them, shape ``(..., k, k)``.
    Each matrix gets its own Pade degree from its 1-norm against the
    standard backward-error bound table (degrees 3/5/7/9/13); larger norms
    are scaled by 2^-s with s from ``||m||_1 / theta_13`` and squared back.
    Every matrix of a stack comes out bit for bit as it would alone.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise StructureError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StructureError("matrix has non-finite entries")
    dtype = complex if np.iscomplexobj(m) else float
    a = m.astype(dtype, copy=True)
    if a.size == 0:
        return a
    k = a.shape[-1]
    a = a.reshape(-1, k, k)
    # the 1-norm as np.linalg.norm(., 1) computes it: largest column sum
    norms = np.abs(a).sum(-2).max(-1)
    branch = np.searchsorted(_THETA_BOUNDS, norms)  # first bound >= norm
    r = np.empty_like(a)
    indices = np.unique(branch) if branch.size > 1 else branch
    for index in indices:
        sel = slice(None) if indices.size == 1 else branch == index
        degree = _DEGREES[index]
        if degree < 13:
            u, v = _pade_factors(a[sel], degree)
            r[sel] = np.linalg.solve(v - u, v + u)
            continue
        squarings = np.maximum(0, np.ceil(np.log2(norms[sel] / _THETA[13]))).astype(int)
        u, v = _pade_factors(a[sel] / (2.0 ** squarings)[:, None, None], 13)
        r13 = np.linalg.solve(v - u, v + u)
        for level in range(1, int(squarings.max()) + 1):
            more = squarings >= level
            r13[more] = r13[more] @ r13[more]
        r[sel] = r13
    return r.reshape(m.shape)


def sym_arctan(s: np.ndarray) -> np.ndarray:
    """Principal arctan of a real symmetric matrix, V arctan(L) V^T.

    The spectrum of the result lies in (-pi/2, pi/2).
    """
    w, v = sym_eig(s)
    return symmetrize((v * np.arctan(w)) @ v.T)


def det_phase(u: np.ndarray) -> float:
    """Principal argument of det(u) for a unitary matrix, in (-pi, pi].

    Computed from the sign factor of an LU-based log-determinant (sum of
    arguments of the triangular diagonal), which cannot overflow.
    """
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise StructureError("matrix has non-finite entries")
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if defect > UNITARY_CHECK:
        raise StructureError(f"matrix not unitary: defect {defect:.3e}")
    sign, _ = np.linalg.slogdet(u.astype(complex))
    return float(np.angle(sign))
