"""Symplectic coefficient fields, Lagrangian frames, and far-field data.

A first-order system d/dx (q, p)^T = A(x, lambda) (q, p)^T with
A = [[a, b], [c, d]] lies in sp(R^2n) when b and c are symmetric and
a = -d^T.  This module validates that structure where a coefficient field
enters, and builds initial frames from far-field invariant subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import ChartDomainError, HyperbolicityError, StructureError
from .matrixkit import symmetrize
from .tolerances import DEFAULT_TOLERANCES, Tolerances

if TYPE_CHECKING:  # pragma: no cover
    from .riccati import SymmetricChart

__all__ = [
    "SymplecticCoefficients",
    "CoefficientField",
    "LagrangianFrame",
    "validate_coefficients",
    "total_frame_rank_loss",
    "farfield_frame",
    "chart_from_frame",
]


@dataclass(frozen=True)
class SymplecticCoefficients:
    """Blocks of A = [[a, b], [c, d]] in sp(R^2n).

    The stored blocks satisfy b = b^T and c = c^T exactly and d = -a^T
    exactly: build them with :func:`validate_coefficients`, or directly from
    exactly symmetric b, c and d = -a.T as the bundled models do.
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def full(self) -> np.ndarray:
        """Assemble the 2n x 2n coefficient matrix."""
        return np.block([[self.a, self.b], [self.c, self.d]])


def validate_coefficients(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SymplecticCoefficients:
    """Check the sp(R^2n) block structure and return exact-structure blocks.

    b and c are symmetrized, d is replaced by -a^T; defects beyond the
    structure tolerance raise ``StructureError``.
    """
    blocks = [np.asarray(x, dtype=float) for x in (a, b, c, d)]
    n = blocks[0].shape[0]
    for name, blk in zip("abcd", blocks):
        if blk.shape != (n, n):
            raise StructureError(f"block {name} has shape {blk.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(blk)):
            raise StructureError(f"block {name} has non-finite entries")
    a, b, c, d = blocks
    for name, blk in (("b", b), ("c", c)):
        defect = float(np.max(np.abs(blk - blk.T)))
        if defect > tol.block_structure:
            raise StructureError(f"not in sp(R^2n): block {name} asymmetric by {defect:.3e}")
    defect = float(np.max(np.abs(d + a.T)))
    if defect > tol.block_structure:
        raise StructureError(f"not in sp(R^2n): d + a^T deviates by {defect:.3e}")
    return SymplecticCoefficients(n=n, a=a, b=symmetrize(b), c=symmetrize(c), d=-a.T)


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient matrix A(x, lambda) with constant far-field limits.

    ``evaluate`` must be a pure function of (x, lambda).  It takes a scalar
    x, giving (n, n) blocks, or a 1-d array of N values of x, giving blocks
    with a leading grid axis, (N, n, n); a block that does not depend on x
    may keep shape (n, n) and is broadcast (see :meth:`full_stack`).
    ``farfield_minus`` and ``farfield_plus`` give the constant limits as
    functions of lambda; ``evaluate(x_minus, lam)`` agrees with
    ``farfield_minus(lam)`` within ``farfield_tol`` (and likewise at the
    right end).
    """

    n: int
    evaluate: Callable[[float | np.ndarray, float], SymplecticCoefficients]
    x_minus: float
    x_plus: float
    farfield_minus: Callable[[float], SymplecticCoefficients]
    farfield_plus: Callable[[float], SymplecticCoefficients]
    farfield_tol: float = DEFAULT_TOLERANCES.farfield_default
    name: str = ""

    def __post_init__(self) -> None:
        """Check the structure once, where the field enters: ``evaluate`` at
        five points across the window and both far-field limits, at
        lambda = 0, must give sp(R^2n) blocks of size n, and the window ends
        must agree with the limits within ``farfield_tol``."""
        if not self.x_minus < self.x_plus:
            raise StructureError(f"need x_minus < x_plus, got [{self.x_minus}, {self.x_plus}]")
        samples = [self.evaluate(float(x), 0.0) for x in np.linspace(self.x_minus, self.x_plus, 5)]
        samples += [self.farfield_minus(0.0), self.farfield_plus(0.0)]
        for coeffs in samples:
            if validate_coefficients(coeffs.a, coeffs.b, coeffs.c, coeffs.d).n != self.n:
                raise StructureError(f"field {self.name!r} gives blocks of size {coeffs.a.shape}, "
                                     f"declared n = {self.n}")
        defect = self.farfield_defect(0.0)
        if defect > self.farfield_tol:
            raise StructureError(f"field {self.name!r}: window ends differ from the far-field "
                                 f"limits by {defect:.3e} > {self.farfield_tol:.3e}")

    def full_stack(self, x: np.ndarray, lam: float) -> np.ndarray:
        """The 2n x 2n coefficient matrices at every point of a 1-d ``x``,
        shape (N, 2n, 2n), from one call of ``evaluate``.

        Each block must come back as (N, n, n), or as (n, n) when it does not
        depend on x; any other shape raises ``StructureError``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise StructureError(f"expected a 1-d array of x, got shape {x.shape}")
        n, count = self.n, x.size
        coeffs = self.evaluate(x, lam)
        out = np.empty((count, 2 * n, 2 * n))
        top, bottom = slice(None, n), slice(n, None)
        for name, rows, cols in (("a", top, top), ("b", top, bottom),
                                 ("c", bottom, top), ("d", bottom, bottom)):
            block = np.asarray(getattr(coeffs, name))
            if block.shape not in ((n, n), (count, n, n)):
                raise StructureError(f"field {self.name!r}: block {name} has shape {block.shape} "
                                     f"at {count} points, expected {(count, n, n)} or {(n, n)}")
            out[:, rows, cols] = block
        return out

    def farfield_defect(self, lam: float) -> float:
        """Largest entrywise gap between the truncated ends and the limits."""
        d_minus = np.max(np.abs(self.evaluate(self.x_minus, lam).full()
                                - self.farfield_minus(lam).full()))
        d_plus = np.max(np.abs(self.evaluate(self.x_plus, lam).full()
                               - self.farfield_plus(lam).full()))
        return float(max(d_minus, d_plus))


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n x n frame (q, p)^T spanning a Lagrangian plane.

    Invariants (checked at construction): q^T p = p^T q and the stacked
    matrix has full column rank.
    """

    q: np.ndarray
    p: np.ndarray
    _tol: Tolerances = dataclass_field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        q, p, tol = self.q, self.p, self._tol
        n = q.shape[0]
        if q.shape != (n, n) or p.shape != (n, n):
            raise StructureError("LagrangianFrame: q and p must be square of equal size")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise StructureError("LagrangianFrame: non-finite entries")
        scale = max(1.0, float(np.max(np.abs(q))) * float(np.max(np.abs(p))))
        defect = float(np.max(np.abs(q.T @ p - p.T @ q)))
        if defect > tol.frame_lagrangian * scale:
            raise StructureError(f"LagrangianFrame: Lagrangian condition fails, defect {defect:.3e}")
        sv = np.linalg.svd(np.vstack([q, p]), compute_uv=False)
        if sv[-1] <= tol.frame_rank * sv[0]:
            raise StructureError(
                f"LagrangianFrame: stacked frame rank-deficient (sv ratio {sv[-1]/sv[0]:.3e})")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def stacked(self) -> np.ndarray:
        return np.vstack([self.q, self.p])


def _cond2(m: np.ndarray) -> float:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0:
        return np.inf
    return float(sv[0] / sv[-1])


def _rank(m: np.ndarray, rel_threshold: float) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_threshold * sv[0]))


def total_frame_rank_loss(frame: LagrangianFrame, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Rank loss of q, equal to the rank loss of [[q, 0], [p, I]].

    This counts the dimension of intersection with the standard reference
    plane (0, I).
    """
    return frame.n - _rank(frame.q, tol.rank_threshold)


def farfield_frame(
    a_inf: SymplecticCoefficients,
    side: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LagrangianFrame:
    """Orthonormal frame of the unstable or stable invariant subspace of A_inf.

    ``side`` is "unstable" (Re > 0 eigenvalues) or "stable" (Re < 0).
    Complex-conjugate eigenvector pairs v = x +- iy contribute the real
    columns (x, y); selected eigenvalues are ordered by descending real part
    then ascending imaginary part, and the columns are orthonormalized by QR.
    """
    if side not in ("unstable", "stable"):
        raise ValueError(f"side must be 'unstable' or 'stable', got {side!r}")
    n = a_inf.n
    w, v = np.linalg.eig(a_inf.full())
    if float(np.min(np.abs(w.real))) < tol.hyperbolicity:
        raise HyperbolicityError("far-field not hyperbolic (lambda may be in essential spectrum)")
    want = w.real > 0 if side == "unstable" else w.real < 0
    idx = np.nonzero(want)[0]
    if idx.size != n:
        raise StructureError(
            f"{side} subspace has dimension {idx.size}, expected {n}")
    order = sorted(idx, key=lambda i: (-w[i].real, w[i].imag))
    cols: list[np.ndarray] = []
    used: set[int] = set()
    for i in order:
        if i in used:
            continue
        used.add(i)
        if abs(w[i].imag) <= tol.hyperbolicity:
            cols.append(v[:, i].real)
            continue
        cols.append(v[:, i].real)
        cols.append(v[:, i].imag)
        for j in order:
            if j not in used and abs(w[j] - np.conj(w[i])) <= 1e-9 * max(1.0, abs(w[i])):
                used.add(j)
                break
    basis = np.column_stack(cols)
    if basis.shape[1] != n:
        raise StructureError("realified invariant subspace has wrong dimension")
    q_fact, _ = np.linalg.qr(basis)
    # fix QR sign ambiguity for reproducible output
    signs = np.sign(q_fact[np.argmax(np.abs(q_fact), axis=0), np.arange(n)])
    signs[signs == 0] = 1.0
    q_fact = q_fact * signs
    return LagrangianFrame(q=q_fact[:n], p=q_fact[n:])


def chart_from_frame(frame: LagrangianFrame, tol: Tolerances = DEFAULT_TOLERANCES) -> "SymmetricChart":
    """Chart representative s = p q^{-1} of the plane spanned by the frame.

    Fails with ``ChartDomainError`` when q is (numerically) singular, i.e.
    the plane lies outside the top Schubert cell.
    """
    from .riccati import SymmetricChart

    cond_q = _cond2(frame.q)
    if cond_q >= tol.cond_limit:
        raise ChartDomainError("plane outside top cell: q is numerically singular")
    s = np.linalg.solve(frame.q.T, frame.p.T).T
    defect = float(np.max(np.abs(s - s.T)))
    scale = max(1.0, float(np.max(np.abs(s))))
    # near the chart boundary the solve loses ~eps*cond(q) relative accuracy
    allowed = max(tol.chart_symmetry * scale, 100.0 * np.finfo(float).eps * cond_q * scale)
    if defect > allowed:
        raise StructureError(f"chart not symmetric: defect {defect:.3e}")
    return SymmetricChart(symmetrize(s))
