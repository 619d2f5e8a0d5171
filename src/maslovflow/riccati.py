"""Riccati flow of the chart representative s = p q^{-1}.

The linear flow generated by A = [[a, b], [c, d]] induces
``ds/dx = c + d s - s (a + b s)`` on the dense chart of symmetric matrices.
Integration is done through the Moebius action of local fundamental
solutions, which passes through chart singularities (points where an
eigenvalue of s escapes to infinity) without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .matrixkit import mat_exp, symmetrize
from .system import CoefficientField
from .tolerances import CHART_TOL

# Steps whose state-independent work (field evaluation, propagators) is done
# together; bounded so the stacks stay small on any grid.
BLOCK_STEPS = 256

__all__ = [
    "SymmetricChart",
    "EigenTrace",
    "ChartPath",
    "integrate_chart",
    "singular_eigenvalue_count",
    "singular_threshold",
]


@dataclass(frozen=True)
class SymmetricChart:
    """Real symmetric chart matrix; constructor-symmetrized and finite."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError(f"chart must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise StructureError("chart has non-finite entries")
        object.__setattr__(self, "mat", symmetrize(m))

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class EigenTrace:
    """Eigenvalues mu_i(x) of the chart along the grid, sorted ascending
    per sample, with per-eigenvalue singularity flags."""

    grid: np.ndarray
    mu: np.ndarray
    singular_flags: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.grid) <= 0):
            raise StructureError("EigenTrace grid must be strictly increasing")
        if np.any(np.diff(self.mu, axis=1) < 0):
            raise StructureError("EigenTrace rows must be sorted ascending")


@dataclass(frozen=True)
class ChartPath:
    """Chart samples along the grid plus the eigenvalue trace.

    ``charts[m]`` is the exactly-symmetric chart at ``grid[m]``;
    ``flagged_samples`` marks grid indices where the Moebius denominator was
    ill-conditioned (chart singularity crossed nearby);
    ``max_symmetry_defect`` is the largest pre-symmetrization defect seen.
    """

    grid: np.ndarray
    charts: np.ndarray
    eigen_trace: EigenTrace
    flagged_samples: tuple[int, ...] = ()
    max_symmetry_defect: float = 0.0

    def chart(self, i: int) -> SymmetricChart:
        return SymmetricChart(self.charts[i])


def _mobius_apply(s: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Apply the Moebius action; returns (new s, effective denominator
    condition, pre-symmetrization defect).

    The effective condition compares the smallest singular value of the
    denominator against the scale of its inputs; the plain condition number
    is blind to a uniformly tiny denominator (always 1 for n = 1).
    """
    n = s.shape[0]
    num = phi[n:, :n] + phi[n:, n:] @ s
    den = phi[:n, :n] + phi[:n, n:] @ s
    sv_min = float(np.linalg.svd(den, compute_uv=False)[-1])
    scale = (float(np.linalg.norm(phi[:n, :], 2))
             * max(1.0, float(np.linalg.norm(s, 2))))
    cond = np.inf if sv_min == 0.0 else scale / sv_min
    if not np.isfinite(cond):
        raise np.linalg.LinAlgError("Moebius denominator exactly singular")
    s_new = np.linalg.solve(den.T, num.T).T
    defect = float(np.max(np.abs(s_new - s_new.T)))
    return symmetrize(s_new), cond, defect


def singular_threshold(chart_tol: float) -> float:
    """|mu| above which an eigenvalue counts as singular: cot(chart_tol/2)."""
    return 1.0 / np.tan(0.5 * chart_tol)


def singular_eigenvalue_count(
    s: SymmetricChart,
    chart_tol: float = CHART_TOL,
) -> int:
    """Number of eigenvalues of Cay(s) within ``chart_tol`` of -1 on the
    circle, i.e. eigenvalues of s with |mu| > cot(chart_tol / 2).

    Equals the rank loss of q for the frame the chart represents.
    """
    mu = np.linalg.eigvalsh(s.mat)
    return int(np.sum(np.abs(mu) > singular_threshold(chart_tol)))


def _propagators(field: CoefficientField, x_lo: np.ndarray, x_hi: np.ndarray,
                 lam: float) -> np.ndarray:
    """Midpoint-frozen propagators exp(h A(x_lo + h/2)), h = x_hi - x_lo, of
    a run of steps, stacked (steps, 2n, 2n)."""
    h = x_hi - x_lo
    return mat_exp(h[:, None, None] * field.full_stack(x_lo + 0.5 * h, lam))


def integrate_chart(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    s0: SymmetricChart,
    chart_tol: float = CHART_TOL,
) -> ChartPath:
    """Integrate the chart flow over ``grid`` with midpoint-frozen
    exponential propagators applied through the Moebius action.

    The propagators, which do not depend on the chart, are built
    ``BLOCK_STEPS`` steps at a time; the step loop only solves for the next
    chart.  The integration proceeds through chart singularities; samples
    where the Moebius denominator condition exceeds ``1 / chart_tol`` are
    flagged.  If a denominator is exactly singular (the solve fails) the
    step is retried as two half steps (the singular set is isolated) and
    the sample flagged.
    """
    grid = field.check_grid(grid)
    if s0.n != field.n:
        raise StructureError("initial chart dimension disagrees with field")

    n = field.n
    nsteps = grid.size - 1
    charts = np.empty((nsteps + 1, n, n))
    charts[0] = s0.mat
    dens = np.empty((nsteps, n, n))
    unsymmetrized = np.empty((nsteps, n, n))
    top_norms = np.empty(nsteps)
    halved: dict[int, tuple[float, float]] = {}  # step -> (condition, defect)
    s = s0.mat
    for lo in range(0, nsteps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, nsteps)
        phis = _propagators(field, grid[lo:hi], grid[lo + 1:hi + 1], lam)
        top_norms[lo:hi] = np.linalg.svd(phis[:, :n, :], compute_uv=False).max(-1)
        for m, phi in enumerate(phis, start=lo):
            num = phi[n:, :n] + phi[n:, n:] @ s
            den = phi[:n, :n] + phi[:n, n:] @ s
            try:
                s_new = np.linalg.solve(den.T, num.T).T
            except np.linalg.LinAlgError:
                # exactly singular sample: take one-sided substeps around it
                x_mid = 0.5 * (grid[m] + grid[m + 1])
                halves = _propagators(field, np.array([grid[m], x_mid]),
                                      np.array([x_mid, grid[m + 1]]), lam)
                s_half, c1, d1 = _mobius_apply(s, halves[0])
                s_new, c2, d2 = _mobius_apply(s_half, halves[1])
                halved[m] = (max(c1, c2), max(d1, d2))
            dens[m] = den
            unsymmetrized[m] = s_new
            s = symmetrize(s_new)
            charts[m + 1] = s

    # the conditioning _mobius_apply measures, for all steps at once
    sv_min = np.linalg.svd(dens, compute_uv=False)[:, -1]
    scale = top_norms * np.maximum(1.0, np.linalg.svd(charts[:-1], compute_uv=False).max(-1))
    with np.errstate(divide="ignore"):
        cond = np.where(sv_min == 0.0, np.inf, scale / sv_min)
    defects = np.abs(unsymmetrized - unsymmetrized.transpose(0, 2, 1)).max(axis=(1, 2))
    for m, (c, d) in halved.items():
        cond[m], defects[m] = c, d
    flag = cond > 1.0 / chart_tol
    flag[list(halved)] = True
    flagged = tuple(int(m) + 1 for m in np.flatnonzero(flag))

    mu = np.linalg.eigvalsh(charts)
    flags = np.abs(mu) > singular_threshold(chart_tol)
    trace = EigenTrace(grid=grid, mu=mu, singular_flags=flags)
    return ChartPath(grid=grid, charts=charts, eigen_trace=trace,
                     flagged_samples=flagged, max_symmetry_defect=float(defects.max()))
