"""Crossing detection, Maslov index assembly, and spectral-parameter sweeps.

A crossing is a passage of the evolving Lagrangian plane through the train of
the standard reference plane: an eigenphase of the unitary representative u
passes the angle pi (equivalently an eigenvalue of the chart s passes through
infinity).  Eigenvalues of the underlying self-adjoint problem are located by
integer jumps of the crossing count as the spectral parameter increases.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BackendDisagreementError,
    ChartDomainError,
    ConfigError,
    HyperbolicityError,
    StepSizeError,
    StructureError,
)
from .models import ModelSpec, get_model
from .riccati import ChartPath, SymmetricChart, integrate_chart
from .system import CoefficientField, LagrangianFrame, chart_from_frame, farfield_frame
from .tolerances import CHART_TOL, END_FLAG_ANGLE, PHASE_MATCH_REJECT, check_chart_tol
from .unitary import UnitaryPath, UnitarySymmetric, cayley, integrate_unitary, unitary_from_frame

__all__ = [
    "CrossingRecord",
    "MaslovResult",
    "SweepRow",
    "SweepTable",
    "RefineResult",
    "TraceResult",
    "detect_crossings",
    "crossings_from_chart",
    "end_intersection_dimension",
    "run_trace",
    "sweep_lambda",
    "refine_eigenvalue",
]

BACKENDS = ("chart", "unitary", "both")


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


def detect_crossings(u_path: UnitaryPath) -> MaslovResult:
    """Passages of spec(u) through -1 along a unitary path, counted from the
    path's exact angle (see ``_count_from_angle``).

    Consecutive samples of u must differ by less than 0.5 in every entry.
    """
    us, grid = u_path.us, u_path.grid
    if us.shape[0] != grid.size:
        raise StructureError("u path and grid lengths disagree")
    jumps = np.max(np.abs(np.diff(us, axis=0)), axis=(1, 2))
    if jumps.size and float(np.max(jumps)) >= 0.5:
        raise StepSizeError(
            f"consecutive u samples differ by {float(np.max(jumps)):.3f} >= 0.5; refine the grid")
    phases = np.angle(np.linalg.eigvals(us))
    return _count_from_angle(phases, u_path.theta, grid)


def crossings_from_chart(path: ChartPath) -> MaslovResult:
    """Crossings along a chart path: eigenvalues of s through infinity.

    Uses the circle coordinates -2 arctan(mu), which are the eigenphases of
    Cay(s), and the angle the path unwinds from them; a passage of mu
    through +-infinity is a passage of the phase through pi, so chart and
    unitary routes count identically.

    An unwound angle is blind to a step whose eigenphases move by pi or
    more in net.  Each eigenvalue of s passing infinity flips the sign of
    det of the step's Moebius denominator, so a step whose net passage
    count k has the other parity is refused (``StepSizeError``).
    """
    phases = -2.0 * np.arctan(path.mu)
    result = _count_from_angle(phases, path.theta, path.grid)
    _, k = _net_passages(phases, path.theta)
    bad = np.flatnonzero((k % 2 == 1) != (path.den_signs < 0))
    if bad.size:
        m = int(bad[0])
        raise StepSizeError(f"chart angle lost at sample {m + 1}: net passage count {k[m]} "
                            "disagrees in parity with the Moebius denominator; refine the grid")
    return result


def _net_passages(phases: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The principal eigenphases (N, n) sorted in (-pi, pi], and each step's
    net number k = (dtheta - d sum(phases)) / 2 pi of them passing pi upward."""
    phases = np.sort(np.where(phases == -np.pi, np.pi, phases), axis=1)
    k = np.rint((np.diff(theta) - np.diff(phases.sum(axis=1))) / (2.0 * np.pi)).astype(int)
    return phases, k


def _count_from_angle(
    phases: np.ndarray,
    theta: np.ndarray,
    grid: np.ndarray,
) -> MaslovResult:
    """Crossings from the principal eigenphases (N, n) of u and the angle
    theta (the sum of the continuous eigenphases).

    Over step m the net number of eigenphases passing pi upward is
    k = (dtheta - d sum(phases)) / 2 pi, an integer.  With the phases sorted
    in (-pi, pi], the one consistent matching is a cyclic shift by k: sorted
    phase i at sample m continues as phase (i + k) mod n at sample m + 1,
    lifted by 2 pi floor((i + k) / n), and its motions sum to dtheta.  A step
    with k != 0 gives one record of multiplicity |k| and direction sign(k) at
    the mean of the linearly interpolated passages of its wrapping pairs.
    A step is refused (``StepSizeError``) when a matched motion exceeds
    ``PHASE_MATCH_REJECT`` or the motions sum in absolute value to pi or
    more, beyond which an unwound theta could pick another matching.
    """
    phases, k = _net_passages(phases, theta)
    n = phases.shape[1]
    shifted = np.arange(n) + k[:, None]
    wraps = shifted // n
    prev = phases[:-1]
    cur = np.take_along_axis(phases[1:], shifted % n, axis=1) + 2.0 * np.pi * wraps
    motion = np.abs(cur - prev)
    worst, total = motion.max(axis=1), motion.sum(axis=1)
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


def end_intersection_dimension(
    u_end: np.ndarray,
    u_reference: np.ndarray,
) -> int:
    """Dimension of the near-intersection of two planes from their unitary
    representatives: the number of singular values of (u1 - u2) below the
    chord length of ``END_FLAG_ANGLE``.

    Two Lagrangian planes intersect in dimension k exactly when u1 - u2 has
    a k-dimensional kernel.
    """
    sv = np.linalg.svd(np.asarray(u_end) - np.asarray(u_reference), compute_uv=False)
    chord = 2.0 * np.sin(0.5 * END_FLAG_ANGLE)
    return int(np.sum(sv < chord))


def _end_of_interval_flag(
    crossings: list[CrossingRecord],
    grid: np.ndarray,
    u_end: np.ndarray,
    u_ref: np.ndarray | None,
    chart_tol: float,
) -> tuple[bool, int]:
    """Asymptotic-intersection flag for the right end of the window.

    Fires when the run is truncation-sensitive: a crossing sits within one
    step of x_plus, the final plane is within ``chart_tol`` of the train
    (an eigenphase of u_end near pi, i.e. a huge chart eigenvalue at the
    end), or the final plane intersects the far-field reference plane within
    ``END_FLAG_ANGLE``.  Near-exact spectral eigenvalues produce the middle
    signature; the dimension of the reference-plane intersection is returned
    alongside.
    """
    h = float(grid[-1] - grid[-2])
    edge_crossing = any(c.x > grid[-1] - 1.5 * h for c in crossings)
    end_phases = np.angle(np.linalg.eigvals(u_end))
    near_train = bool(np.min(np.abs(np.abs(end_phases) - np.pi)) < chart_tol)
    end_dim = 0
    if u_ref is not None:
        end_dim = end_intersection_dimension(u_end, u_ref)
    return bool(edge_crossing or near_train or end_dim > 0), end_dim


@dataclass(frozen=True)
class TraceResult:
    """Everything a single-lambda run produces.

    ``count_chart`` and ``count_unitary`` are the crossing counts of each
    route, -1 for a route that did not run; ``result`` holds the unitary
    route's crossings when it ran, else the chart route's, and ``theta`` the
    angle of the same route.
    """

    lam: float
    grid: np.ndarray
    backend: str
    init_mode: str
    theta: np.ndarray
    unitary_path: UnitaryPath | None
    chart_path: ChartPath | None
    result: MaslovResult
    end_flag: bool
    end_dimension: int
    count_chart: int = -1
    count_unitary: int = -1


def _far_field_ends(
    field: CoefficientField,
    lam: float,
    init: str,
) -> tuple[LagrangianFrame | None, str, np.ndarray | None]:
    """The far-field data a row starts and ends with: the start frame (None
    for the identity plane u0 = I), the start used, and the unitary
    representative of the right far field's stable plane (None if undefined).

    "farfield" needs both far fields hyperbolic and raises otherwise; "auto"
    falls back to the identity plane and to no end reference; "identity"
    starts from the identity plane.
    """
    frame0 = u_ref = None
    init_mode = "identity"
    if init != "identity":
        try:
            frame0 = farfield_frame(field.farfield_minus(lam), "unstable")
            init_mode = "farfield"
        except (HyperbolicityError, StructureError):
            if init == "farfield":
                raise
    try:
        u_ref = unitary_from_frame(farfield_frame(field.farfield_plus(lam), "stable")).mat
    except (HyperbolicityError, StructureError) as exc:
        if init == "farfield":
            raise type(exc)(f"right far field: {exc}") from exc
    return frame0, init_mode, u_ref


def _run_row(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    backend: str,
    ends: tuple[LagrangianFrame | None, str, np.ndarray | None],
    chart_tol: float,
) -> TraceResult:
    """The per-lambda core behind traces, sweep rows and refine probes.

    From the ``_far_field_ends`` data it integrates the requested route(s),
    detects crossings on each, and sets the end-of-interval flag.  Counts of
    both routes are returned, not compared.
    """
    frame0, init_mode, u_ref = ends
    n = field.n
    chart_path: ChartPath | None = None
    u_path: UnitaryPath | None = None
    count_chart = count_unitary = -1
    if backend != "unitary":
        s0 = SymmetricChart(np.zeros((n, n))) if frame0 is None else chart_from_frame(frame0)
        chart_path = integrate_chart(field, lam, grid, s0, chart_tol)
        result = crossings_from_chart(chart_path)
        count_chart = result.unsigned_count
    if backend != "chart":
        u0 = UnitarySymmetric(np.eye(n, dtype=complex)) if frame0 is None else unitary_from_frame(frame0)
        u_path = integrate_unitary(field, lam, grid, u0)
        result = detect_crossings(u_path)
        count_unitary = result.unsigned_count
    if u_path is None:
        theta, u_end = chart_path.theta, cayley(chart_path.chart(-1)).mat
    else:
        theta, u_end = u_path.theta, u_path.us[-1]
    end_flag, end_dim = _end_of_interval_flag(result.crossings, grid, u_end, u_ref, chart_tol)
    return TraceResult(lam=lam, grid=grid, backend=backend, init_mode=init_mode,
                       theta=theta, unitary_path=u_path, chart_path=chart_path,
                       result=result, end_flag=end_flag, end_dimension=end_dim,
                       count_chart=count_chart, count_unitary=count_unitary)


def run_trace(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    backend: str = "unitary",
    init: str = "auto",
    chart_tol: float = CHART_TOL,
) -> TraceResult:
    """Integrate one lambda with the requested backend(s) and detect
    crossings against the standard reference plane.

    ``init``: "farfield" starts from the unstable subspace of the left far
    field and fails unless both far fields are hyperbolic; "identity" starts
    from the horizontal plane u0 = I; "auto" tries the far field and falls
    back to the identity plane, recording the fallback in ``init_mode``.
    With ``backend="both"`` a chart/unitary count mismatch raises
    ``BackendDisagreementError``.
    """
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if init not in ("auto", "farfield", "identity"):
        raise ConfigError(f"init must be auto|farfield|identity, got {init!r}")
    check_chart_tol(chart_tol)
    grid = np.asarray(grid, dtype=float)
    trace = _run_row(field, lam, grid, backend, _far_field_ends(field, lam, init), chart_tol)
    if backend == "both" and trace.count_chart != trace.count_unitary:
        raise BackendDisagreementError(
            f"backend disagreement at lambda={lam}: chart counts {trace.count_chart}, "
            f"unitary counts {trace.count_unitary}")
    return trace


@dataclass(frozen=True)
class SweepRow:
    """One lambda row of a sweep."""

    lam: float
    status: str  # "ok" | "skipped" | "disagree" | "error"
    reason: str
    theta_end: float
    crossing_count: int
    end_flag: bool
    count_chart: int = -1
    count_unitary: int = -1


@dataclass(frozen=True)
class SweepTable:
    """Sweep results over a strictly increasing lambda grid.

    ``detected_eigenvalues`` lists the (lambda_lo, lambda_hi] intervals
    between consecutive rows that are neither skipped nor in error where the
    unsigned crossing count increments, with the jump size.
    """

    lambdas: np.ndarray
    rows: tuple[SweepRow, ...]
    detected_eigenvalues: tuple[tuple[float, float, int], ...]
    backend: str

    def __post_init__(self) -> None:
        if np.any(np.diff(self.lambdas) <= 0):
            raise ConfigError("lambda grid must be strictly increasing")

    def has_disagreement(self) -> bool:
        return any(r.status == "disagree" for r in self.rows)


def _failed_row(lam: float, status: str, reason: str) -> SweepRow:
    return SweepRow(lam=lam, status=status, reason=reason, theta_end=float("nan"),
                    crossing_count=-1, end_flag=False)


def _sweep_row(field: CoefficientField, lam: float, grid: np.ndarray, backend: str,
               chart_tol: float) -> SweepRow:
    """One sweep row or refine probe: the core from both far fields.

    A lambda outside the method's domain (a far field not hyperbolic, or a
    start plane off the chart) gives a skipped row; numerical failures of
    the integration or detection propagate.
    """
    try:
        ends = _far_field_ends(field, lam, "farfield")
    except (HyperbolicityError, StructureError) as exc:
        return _failed_row(lam, "skipped", str(exc))
    try:
        trace = _run_row(field, lam, grid, backend, ends, chart_tol)
    except ChartDomainError as exc:
        return _failed_row(lam, "skipped", str(exc))
    status, reason = "ok", ""
    if backend == "both" and trace.count_chart != trace.count_unitary:
        status, reason = "disagree", f"chart={trace.count_chart} unitary={trace.count_unitary}"
    return SweepRow(lam=lam, status=status, reason=reason,
                    theta_end=float(trace.theta[-1]),
                    crossing_count=trace.result.unsigned_count, end_flag=trace.end_flag,
                    count_chart=trace.count_chart, count_unitary=trace.count_unitary)


def _sweep_chunk(job: tuple) -> list[SweepRow]:
    """Rows for a chunk of lambdas on one field; a row whose integration or
    detection fails numerically gets status "error" and the reason."""
    spec, lambdas, grid, backend, chart_tol = job
    field = get_model(spec)
    rows = []
    for lam in lambdas:
        try:
            rows.append(_sweep_row(field, float(lam), grid, backend, chart_tol))
        except (StepSizeError, StructureError) as exc:
            rows.append(_failed_row(float(lam), "error", str(exc)))
    return rows


def sweep_lambda(
    model: ModelSpec | str,
    lambda_grid: np.ndarray,
    x_grid: np.ndarray,
    backend: str = "both",
    workers: int = 1,
    chart_tol: float = CHART_TOL,
) -> SweepTable:
    """Integrate every lambda row and locate eigenvalues by count jumps.

    Rows whose far fields are not hyperbolic are skipped and rows that fail
    numerically are marked "error"; both are flagged, never silently used.
    Rows are independent; the grid is cut into chunks that each build the
    field once (one chunk when serial, a few per worker in a process pool),
    and the rows are reassembled in grid order, so the result does not
    depend on scheduling.
    """
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}, got {backend!r}")
    check_chart_tol(chart_tol)
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or lambda_grid.size == 0:
        raise ConfigError("lambda grid must be a non-empty 1-d array")
    if np.any(np.diff(lambda_grid) <= 0):
        raise ConfigError("lambda grid must be strictly increasing")
    x_grid = np.asarray(x_grid, dtype=float)

    n_chunks = min(lambda_grid.size, 4 * workers) if workers > 1 else 1
    jobs = [(spec, chunk, x_grid, backend, chart_tol)
            for chunk in np.array_split(lambda_grid, n_chunks)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, jobs))
    else:
        parts = [_sweep_chunk(job) for job in jobs]
    rows = [row for part in parts for row in part]

    detected: list[tuple[float, float, int]] = []
    prev: SweepRow | None = None
    for row in rows:
        if row.status in ("skipped", "error"):
            continue
        if prev is not None and row.crossing_count > prev.crossing_count:
            detected.append((prev.lam, row.lam, row.crossing_count - prev.crossing_count))
        prev = row
    return SweepTable(lambdas=lambda_grid, rows=tuple(rows),
                      detected_eigenvalues=tuple(detected), backend=backend)


@dataclass(frozen=True)
class RefineResult:
    """Bisection refinement of one crossing-count jump."""

    lam_star: float
    bracket_lo: float
    bracket_hi: float
    count_lo: int
    count_hi: int


def refine_eigenvalue(
    model: ModelSpec | str,
    lam_lo: float,
    lam_hi: float,
    x_grid: np.ndarray,
    tol_lambda: float = 1e-3,
    backend: str = "unitary",
    chart_tol: float = CHART_TOL,
) -> RefineResult:
    """Bisect a lambda bracket on the crossing-count jump.

    Requires the unsigned counts at the bracket ends to differ; returns the
    bracket midpoint once the bracket is shorter than ``tol_lambda``.  The
    field is built once; a probe that is skipped or fails raises, and with
    ``backend="both"`` so does a probe whose routes disagree
    (``BackendDisagreementError``).
    """
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}, got {backend!r}")
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    if not lam_lo < lam_hi:
        raise ConfigError("need lam_lo < lam_hi")
    check_chart_tol(chart_tol)
    field = get_model(spec)
    x_grid = np.asarray(x_grid, dtype=float)

    def count_at(lam: float) -> int:
        row = _sweep_row(field, lam, x_grid, backend, chart_tol)
        if row.status == "skipped":
            raise HyperbolicityError(f"lambda={lam}: {row.reason}")
        if row.status == "disagree":
            raise BackendDisagreementError(f"backend disagreement at lambda={lam}: {row.reason}")
        return int(row.crossing_count)

    c_lo = count_at(lam_lo)
    c_hi = count_at(lam_hi)
    if c_lo == c_hi:
        raise ConfigError(
            f"crossing counts equal at both bracket ends ({c_lo}); nothing to refine")
    lo, hi = float(lam_lo), float(lam_hi)
    while hi - lo > tol_lambda:
        mid = 0.5 * (lo + hi)
        if count_at(mid) == c_lo:
            lo = mid
        else:
            hi = mid
    return RefineResult(lam_star=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                        count_lo=c_lo, count_hi=c_hi)
