"""Riccati flow of the chart representative s = p q^{-1}, and the step gates
and crossing count of both routes.

The linear flow generated by A = [[a, b], [c, d]] induces
``ds/dx = c + d s - s (a + b s)`` on the dense chart of symmetric matrices.
Integration is done through the Moebius action of local fundamental
solutions, which passes through chart singularities (points where an
eigenvalue of s escapes to infinity) without special-casing.  Each
integrator counts the path it makes once, with ``_count_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError, StructureError
from .matrixkit import _solve, mat_exp, symmetrize
from .system import CoefficientField
from .tolerances import CHART_TOL, PHASE_MATCH_REJECT, SINGULAR_MU

# Steps whose state-independent work (field evaluation, propagators) is done
# together; bounded so the stacks stay small on any grid.
BLOCK_STEPS = 256

__all__ = [
    "CrossingRecord",
    "MaslovResult",
    "SymmetricChart",
    "ChartPath",
    "integrate_chart",
    "singular_eigenvalue_count",
]


@dataclass(frozen=True)
class CrossingRecord:
    """Passages of eigenphases of u through pi within one grid step.

    ``direction`` follows the declared sign convention: an eigenphase of u
    increasing through pi counts +1.
    """

    x: float
    multiplicity: int
    direction: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise StructureError("crossing multiplicity must be >= 1")
        if self.direction not in (-1, 1):
            raise StructureError("crossing direction must be -1 or +1")


@dataclass(frozen=True)
class MaslovResult:
    """Crossings with their unsigned and signed totals."""

    crossings: tuple[CrossingRecord, ...]
    unsigned_count: int
    signed_index: int


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
class ChartPath:
    """Chart samples along the grid with their eigenvalues, eigenphases and
    angle.

    ``charts[m]`` is the exactly-symmetric chart at ``grid[m]``, ``mu[m]``
    its ascending eigenvalues, ``phases[m]`` the eigenphases -2 arctan(mu)
    of Cay(s) as ``_principal_phases`` orders them, and ``theta[m]`` the
    angle -2 tr arctan(s), its steps taken in [-2 pi, 2 pi) by
    ``_unwound_theta``.
    ``den_signs[m]``, the sign of det of step m's Moebius denominator, is -1
    when an odd number of eigenvalues of s passed infinity in the step; it
    picks each step's branch of the angle.
    ``result`` holds the path's crossings (``_count_steps``, whose phase and
    angle gates are the route's only step gates).
    ``flagged_samples`` marks grid indices where that denominator was
    ill-conditioned (chart singularity crossed nearby);
    ``max_symmetry_defect`` is the largest pre-symmetrization defect seen.
    """

    grid: np.ndarray
    charts: np.ndarray
    mu: np.ndarray
    phases: np.ndarray
    theta: np.ndarray
    den_signs: np.ndarray
    result: MaslovResult
    flagged_samples: tuple[int, ...] = ()
    max_symmetry_defect: float = 0.0

    def chart(self, i: int) -> SymmetricChart:
        return SymmetricChart(self.charts[i])


def _principal_phases(phases: np.ndarray) -> np.ndarray:
    """Principal eigenphases (N, n) sorted along each row in (-pi, pi], with
    -pi taken as pi."""
    return np.sort(np.where(phases == -np.pi, np.pi, phases), axis=1)


def _count_steps(grid: np.ndarray, phases: np.ndarray, theta: np.ndarray) -> MaslovResult:
    """Crossings of a path of either route from its sorted principal
    eigenphases (N, n) and its angle theta, the sum of the continuous
    eigenphases, once every step has passed the phase gates.

    Each step's net number k of eigenphases passing pi upward,
    k = (dtheta - d sum(phases)) / 2 pi, is an integer.  With the phases
    sorted in (-pi, pi], the one consistent matching is a cyclic shift by k:
    phase i at sample m continues as phase (i + k) mod n at sample m + 1,
    lifted by 2 pi floor((i + k) / n).  A step is refused (``StepSizeError``)
    when a matched phase moves more than ``PHASE_MATCH_REJECT``, or when the
    matched motions sum in absolute value, or the angle moves, by pi or
    more.  The angle's motion is the matched motions' signed sum up to
    roundoff, so its bound makes exact what the sum already bounds: the one
    angle gate of both routes.  A step with k != 0 gives one record of multiplicity |k| and direction
    sign(k) at the mean of the linearly interpolated passages of its
    wrapping pairs.
    """
    n = phases.shape[1]
    dtheta = np.diff(theta)
    k = np.rint((dtheta - np.diff(phases.sum(axis=1))) / (2.0 * np.pi)).astype(int)
    shifted = np.arange(n) + k[:, None]
    wraps = shifted // n
    prev = phases[:-1]
    cur = np.take_along_axis(phases[1:], shifted % n, axis=1) + 2.0 * np.pi * wraps
    motion = np.abs(cur - prev)
    worst, total = motion.max(axis=1), np.maximum(motion.sum(axis=1), np.abs(dtheta))
    bad = np.flatnonzero((worst > PHASE_MATCH_REJECT) | (total >= np.pi))
    if bad.size:
        m = int(bad[0])
        if worst[m] > PHASE_MATCH_REJECT:
            raise StepSizeError(f"phase tracking lost at sample {m + 1}: "
                                f"step moved a phase by {worst[m]:.3f} rad")
        raise StepSizeError(f"phase tracking lost at sample {m + 1}: "
                            f"step moved the phases by {total[m]:.3f} rad in all, >= pi")
    records = []
    for m in np.flatnonzero(k):
        direction = int(np.sign(k[m]))
        wrapping = wraps[m] != 0
        lo, hi = prev[m, wrapping], cur[m, wrapping]
        frac = (direction * np.pi - lo) / (hi - lo)
        x = grid[m] + frac * (grid[m + 1] - grid[m])
        records.append(CrossingRecord(x=float(np.mean(x)), multiplicity=abs(int(k[m])),
                                      direction=direction))
    return MaslovResult(crossings=tuple(records),
                        unsigned_count=sum(c.multiplicity for c in records),
                        signed_index=sum(c.direction * c.multiplicity for c in records))


def _unwound_theta(mu: np.ndarray, den_signs: np.ndarray) -> np.ndarray:
    """The angle theta = -2 tr arctan(s) from the chart eigenvalues (N, n)
    and the sign of det of each step's Moebius denominator (N - 1).

    The raw formula jumps by 2 pi when an eigenvalue of s passes infinity,
    which flips the denominator's sign.  Each step's increment is wrapped
    into [-pi, pi); where the number of 2 pi wraps taken has the other
    parity than the number of passages the sign shows, the increment moves
    by 2 pi across zero.  So the increment lies in [-2 pi, 2 pi), the
    window of -2 arg det of the unitary route's denominator.
    """
    base = -2.0 * np.sum(np.arctan(mu), axis=1)
    raw = np.diff(base)
    delta = np.mod(raw + np.pi, 2.0 * np.pi) - np.pi
    odd = np.rint((raw - delta) / (2.0 * np.pi)) % 2 == 1
    flip = odd != (den_signs < 0)
    delta[flip] -= np.where(delta[flip] < 0.0, -2.0 * np.pi, 2.0 * np.pi)
    return base[0] + np.concatenate([[0.0], np.cumsum(delta)])


def _mobius_scale(tops: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Scale of the Moebius inputs, ||[phi_11 phi_12]||_2 max(1, ||s||_2),
    from the propagators' top block rows ``tops`` (..., n, 2n) and the
    eigenvalues ``mu`` (..., n) of the symmetric charts s.

    ||s||_2 is max |mu|; ||T||_2 is the square root of the largest
    eigenvalue of T T^T.  One step and a stack of steps share this formula.
    """
    top_norms = np.sqrt(np.linalg.eigvalsh(tops @ tops.swapaxes(-1, -2))[..., -1])
    return top_norms * np.maximum(1.0, np.abs(mu).max(-1))


def _mobius_apply(s: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Apply the Moebius action; returns (new s, effective denominator
    condition, pre-symmetrization defect, sign of det of the denominator).

    The effective condition compares the smallest singular value of the
    denominator against the scale of its inputs (``_mobius_scale``); the
    plain condition number is blind to a uniformly tiny denominator (always
    1 for n = 1).
    """
    n = s.shape[0]
    num = phi[n:, :n] + phi[n:, n:] @ s
    den = phi[:n, :n] + phi[:n, n:] @ s
    sv_min = float(np.linalg.svd(den, compute_uv=False)[-1])
    scale = float(_mobius_scale(phi[:n, :], np.linalg.eigvalsh(s)))
    cond = np.inf if sv_min == 0.0 else scale / sv_min
    if not np.isfinite(cond):
        raise np.linalg.LinAlgError("Moebius denominator exactly singular")
    s_new = _solve(den.T, num.T).T
    defect = float(np.max(np.abs(s_new - s_new.T)))
    return symmetrize(s_new), cond, defect, float(np.linalg.slogdet(den)[0])


def singular_eigenvalue_count(s: SymmetricChart) -> int:
    """Number of eigenvalues of Cay(s) within ``CHART_TOL`` of -1 on the
    circle, i.e. eigenvalues of s with |mu| > ``SINGULAR_MU``.

    Equals the rank loss of q for the frame the chart represents.
    """
    mu = np.linalg.eigvalsh(s.mat)
    return int(np.sum(np.abs(mu) > SINGULAR_MU))


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
) -> ChartPath:
    """Integrate the chart flow over ``grid`` with midpoint-frozen
    exponential propagators applied through the Moebius action.

    The propagators, which do not depend on the chart, are built
    ``BLOCK_STEPS`` steps at a time; the step loop only solves for the next
    chart.  Each block's new charts then get their eigenvalues ``mu`` at
    once, and the denominator condition takes its scale from them and the
    propagators' top rows (``_mobius_scale``); the smallest singular values
    of all denominators follow the loop as one stack.  The integration
    proceeds through chart singularities; samples where the Moebius
    denominator condition exceeds ``1 / CHART_TOL`` are flagged.  If a
    denominator is exactly singular (the solve fails) the step is retried as
    two half steps (the singular set is isolated), the sample flagged and
    the product of the two denominator signs recorded.
    The angle is unwound from the chart eigenvalues on the branch the
    denominator signs pick (``_unwound_theta``).  Every step passes the
    phase and angle gates of ``_count_steps``, which gives the path its
    crossings; the chart coordinate itself adds no gate.
    """
    grid = field.check_grid(grid)
    if s0.n != field.n:
        raise StructureError("initial chart dimension disagrees with field")

    n = field.n
    nsteps = grid.size - 1
    charts = np.empty((nsteps + 1, n, n))
    charts[0] = s0.mat
    mu = np.empty((nsteps + 1, n))
    mu[0] = np.linalg.eigvalsh(s0.mat)
    dens = np.empty((nsteps, n, n))
    unsymmetrized = np.empty((nsteps, n, n))
    scale = np.empty(nsteps)
    halved: dict[int, tuple[float, float, float]] = {}  # step -> (condition, defect, sign)
    s = s0.mat
    for lo in range(0, nsteps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, nsteps)
        phis = _propagators(field, grid[lo:hi], grid[lo + 1:hi + 1], lam)
        for m, phi in enumerate(phis, start=lo):
            num = phi[n:, :n] + phi[n:, n:] @ s
            den = phi[:n, :n] + phi[:n, n:] @ s
            try:
                s_new = _solve(den.T, num.T).T
            except np.linalg.LinAlgError:
                # exactly singular sample: take one-sided substeps around it
                x_mid = 0.5 * (grid[m] + grid[m + 1])
                halves = _propagators(field, np.array([grid[m], x_mid]),
                                      np.array([x_mid, grid[m + 1]]), lam)
                s_half, c1, d1, sign1 = _mobius_apply(s, halves[0])
                s_new, c2, d2, sign2 = _mobius_apply(s_half, halves[1])
                halved[m] = (max(c1, c2), max(d1, d2), sign1 * sign2)
            dens[m] = den
            unsymmetrized[m] = s_new
            s = symmetrize(s_new)
            charts[m + 1] = s
        mu[lo + 1:hi + 1] = np.linalg.eigvalsh(charts[lo + 1:hi + 1])
        scale[lo:hi] = _mobius_scale(phis[:, :n, :], mu[lo:hi])

    # the conditioning _mobius_apply measures, for all steps at once
    sv_min = np.linalg.svd(dens, compute_uv=False)[:, -1]
    with np.errstate(divide="ignore"):
        cond = np.where(sv_min == 0.0, np.inf, scale / sv_min)
    defects = np.abs(unsymmetrized - unsymmetrized.transpose(0, 2, 1)).max(axis=(1, 2))
    den_signs = np.linalg.slogdet(dens)[0]
    for m, (c, d, sign) in halved.items():
        cond[m], defects[m], den_signs[m] = c, d, sign
    flag = cond > 1.0 / CHART_TOL
    flag[list(halved)] = True
    flagged = tuple(int(m) + 1 for m in np.flatnonzero(flag))

    phases = _principal_phases(-2.0 * np.arctan(mu))
    theta = _unwound_theta(mu, den_signs)
    return ChartPath(grid=grid, charts=charts, mu=mu, phases=phases, theta=theta,
                     den_signs=den_signs, result=_count_steps(grid, phases, theta),
                     flagged_samples=flagged, max_symmetry_defect=float(defects.max()))
