"""Riccati flow of the chart representative s = p q^{-1}, and the Moebius
march, step gates and crossing count of both routes.

The linear flow generated by A = [[a, b], [c, d]] induces
``ds/dx = c + d s - s (a + b s)`` on the dense chart of symmetric matrices.
Integration is done through the Moebius action of local fundamental
solutions, which passes through chart singularities (points where an
eigenvalue of s escapes to infinity) without special-casing.  Linear
fractional maps compose, so both routes march each run of steps by one
prefix scan of its maps (``_moebius_run``), with runs ended by one roundoff
rule (``_run_ends``).  Each integrator counts the path it makes once, with
``_count_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError, StructureError
from .matrixkit import _solve, mat_exp, symmetrize
from .system import CoefficientField
from .tolerances import CHART_TOL, PHASE_MATCH_REJECT, REPROJECT_DEFECT, SINGULAR_MU

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
    ``max_symmetry_defect`` is the largest pre-symmetrization defect of the
    samples as the scans solve them.
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


def _run_ends(maps: np.ndarray, bound: float) -> list[int]:
    """ends[i], the end of the run from map i of a block's maps (k, 2n, 2n):
    the longest run whose roundoff bound eps prod (1 + ||M - I||_F)^2 stays
    within ``bound`` (``REPROJECT_DEFECT`` on both routes), one map at least
    (so every run is one map when ``bound`` is 0)."""
    norms = np.linalg.norm(maps - np.eye(maps.shape[-1]), axis=(1, 2))
    growth = np.concatenate([[0.0], np.cumsum(2.0 * np.log1p(norms))])
    with np.errstate(divide="ignore"):
        limit = np.log(bound / np.finfo(float).eps)
    last = np.searchsorted(growth, growth[:-1] + limit, side="right") - 1
    return np.maximum(np.arange(1, len(maps) + 1), last).tolist()


def _moebius_run(maps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The samples z_1, ..., z_k, unsymmetrized, that a run of maps
    M_i = [[P_i, Q_i], [R_i, S_i]] (k, 2n, 2n) makes from z_0 = ``z`` under
    z -> (R + S z)(P + Q z)^{-1}, by a prefix scan: s under the propagators
    Phi, or u under ``unitary._moebius_matrices(Phi)``.

    Hillis-Steele doubling makes the products T_j = M_j ... M_0 in
    ceil(log2 k) stacked matmuls; then [X_j; Y_j] = T_j [I; z_0] and
    z_{j+1} = Y_j X_j^{-1} in one stacked solve.  A run of one map is the
    single step with the same operations.  X_j is the product of the
    denominators P_i + Q_i z_i of steps i <= j, so when a solve is exactly
    singular the first X_j whose slogdet sign is 0 names the first exactly
    singular step j: only the j samples before it are returned.
    """
    n = z.shape[0]
    prods, shift = maps, 1
    while shift < len(prods):
        prods = np.concatenate([prods[:shift], prods[shift:] @ prods[:-shift]])
        shift *= 2
    w = prods[:, :, n:] @ z + prods[:, :, :n]  # [X_j; Y_j]
    dens, nums = w[:, :n].swapaxes(1, 2), w[:, n:].swapaxes(1, 2)
    try:
        return _solve(dens, nums).swapaxes(1, 2)
    except np.linalg.LinAlgError:
        j = int(np.flatnonzero(np.linalg.slogdet(dens)[0] == 0)[0])
        return _solve(dens[:j], nums[:j]).swapaxes(1, 2)


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
    exponential propagators applied through the Moebius action
    s -> (C + D s)(A + B s)^{-1}.

    The propagators, which do not depend on the chart, are built
    ``BLOCK_STEPS`` steps at a time, and each run of them (``_run_ends``)
    is one prefix scan (``_moebius_run``) from the symmetrized last sample
    of the run before; no loop over steps is left.  Each run's samples are
    symmetrized as one stack; each block's get their eigenvalues ``mu`` as
    one stack, and so do its step denominators A + B s_m: the sign of each
    det, and the effective condition, the smallest singular value against
    the scale of the inputs ||[A B]||_2 max(1, ||s_m||_2) (the plain
    condition number is blind to a uniformly tiny denominator, always 1 for
    n = 1).  The integration proceeds through chart singularities; samples
    where that condition exceeds ``1 / CHART_TOL`` are flagged.  An exactly
    singular step (``_moebius_run`` names it) is retried as two half steps
    (the singular set is isolated), the sample flagged and the product of
    the two denominator signs recorded.
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
    cond = np.empty(nsteps)
    den_signs = np.empty(nsteps)
    halved: dict[int, float] = {}  # step -> product of its two halves' denominator signs
    defect = 0.0
    for lo in range(0, nsteps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, nsteps)
        phis = _propagators(field, grid[lo:hi], grid[lo + 1:hi + 1], lam)
        ends = _run_ends(phis, REPROJECT_DEFECT)
        start = lo
        while start < hi:
            made = _moebius_run(phis[start - lo:ends[start - lo]], charts[start])
            if not len(made):
                # exactly singular step: take one-sided substeps around it
                edges = np.array([grid[start], grid[start:start + 2].mean(), grid[start + 1]])
                halves = _propagators(field, edges[:-1], edges[1:], lam)
                made = _moebius_run(halves, charts[start])
                if len(made) < 2:
                    raise np.linalg.LinAlgError("Moebius denominator exactly singular")
                befores = np.stack([charts[start], symmetrize(made[0])])
                dens = halves[:, :n, :n] + halves[:, :n, n:] @ befores
                halved[start] = float(np.prod(np.linalg.slogdet(dens)[0]))
                made = made[1:]
            charts[start + 1:start + 1 + len(made)] = symmetrize(made)
            defect = max(defect, float(np.abs(made - made.swapaxes(1, 2)).max()))
            start += len(made)
        mu[lo + 1:hi + 1] = np.linalg.eigvalsh(charts[lo + 1:hi + 1])
        dens = phis[:, :n, :n] + phis[:, :n, n:] @ charts[lo:hi]
        top_norms = np.sqrt(np.linalg.eigvalsh(phis[:, :n] @ phis[:, :n].swapaxes(1, 2))[:, -1])
        scale = top_norms * np.maximum(1.0, np.abs(mu[lo:hi]).max(axis=1))
        sv_min = np.linalg.svd(dens, compute_uv=False)[:, -1]
        with np.errstate(divide="ignore"):
            cond[lo:hi] = np.where(sv_min == 0.0, np.inf, scale / sv_min)
        den_signs[lo:hi] = np.linalg.slogdet(dens)[0]

    den_signs[list(halved)] = list(halved.values())
    flag = cond > 1.0 / CHART_TOL
    flag[list(halved)] = True
    flagged = tuple(int(m) + 1 for m in np.flatnonzero(flag))

    phases = _principal_phases(-2.0 * np.arctan(mu))
    theta = _unwound_theta(mu, den_signs)
    return ChartPath(grid=grid, charts=charts, mu=mu, phases=phases, theta=theta,
                     den_signs=den_signs, result=_count_steps(grid, phases, theta),
                     flagged_samples=flagged, max_symmetry_defect=defect)
