"""Crossing detection, Maslov index assembly, and spectral-parameter sweeps.

A crossing is a passage of the evolving Lagrangian plane through the train of
the standard reference plane: an eigenphase of the unitary representative u
passes the angle pi (equivalently an eigenvalue of the chart s passes through
infinity).  Eigenvalues of the underlying self-adjoint problem are located by
integer jumps of the crossing count as the spectral parameter increases.
"""

from __future__ import annotations

import warnings
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
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .unitary import (
    ThetaTrace,
    UnitaryPath,
    UnitarySymmetric,
    cayley,
    integrate_unitary,
    theta_from_chart,
    unitary_from_frame,
)

__all__ = [
    "CrossingRecord",
    "MaslovResult",
    "SweepRow",
    "SweepTable",
    "RefineResult",
    "TraceResult",
    "detect_crossings",
    "crossings_from_chart",
    "maslov_index",
    "end_intersection_dimension",
    "run_trace",
    "sweep_lambda",
    "refine_eigenvalue",
]

BACKENDS = ("chart", "unitary", "both")


@dataclass(frozen=True)
class CrossingRecord:
    """One detected reference-plane intersection.

    ``direction`` follows the declared sign convention: an eigenphase of u
    increasing through pi counts +1; 0 means the direction could not be
    attributed (tangential or unresolved multiple crossing).
    """

    x: float
    multiplicity: int
    direction: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise StructureError("crossing multiplicity must be >= 1")
        if self.direction not in (-1, 0, 1):
            raise StructureError("crossing direction must be -1, 0 or +1")


@dataclass(frozen=True)
class MaslovResult:
    """Crossings with their unsigned and signed totals.

    ``sign_incomplete`` is set when any crossing carries direction 0; such
    crossings contribute to ``unsigned_count`` only.
    """

    crossings: tuple[CrossingRecord, ...]
    unsigned_count: int
    signed_index: int
    sign_incomplete: bool
    theta_trace: ThetaTrace | None = None


def maslov_index(
    crossings: list[CrossingRecord] | tuple[CrossingRecord, ...],
    theta_trace: ThetaTrace | None = None,
) -> MaslovResult:
    """Assemble unsigned and signed totals from crossing records."""
    unsigned = sum(c.multiplicity for c in crossings)
    signed = sum(c.direction * c.multiplicity for c in crossings)
    incomplete = any(c.direction == 0 for c in crossings)
    return MaslovResult(crossings=tuple(crossings), unsigned_count=unsigned,
                        signed_index=signed, sign_incomplete=incomplete,
                        theta_trace=theta_trace)


def _track_phases(phases: np.ndarray, reject: float) -> np.ndarray:
    """Continuously unwrap per-sample eigenphase sets by nearest matching.

    Returns an (nsamp, n) array of unwrapped phases; column i follows one
    eigenphase branch across samples.
    """
    # imported here: scipy.optimize costs most of the package's import time
    from scipy.optimize import linear_sum_assignment

    nsamp, n = phases.shape
    unwrapped = np.empty_like(phases)
    unwrapped[0] = phases[0]
    prev = phases[0].copy()
    prev_un = phases[0].copy()
    two_pi = 2.0 * np.pi
    for m in range(1, nsamp):
        cur = phases[m]
        dist = np.abs((cur[None, :] - prev[:, None] + np.pi) % two_pi - np.pi)
        rows, cols = linear_sum_assignment(dist)
        worst = float(dist[rows, cols].max())
        if worst > reject:
            raise StepSizeError(
                f"phase tracking lost at sample {m}: step moved a phase by {worst:.3f} rad")
        matched = cur[cols]
        delta = (matched - prev + np.pi) % two_pi - np.pi
        prev_un = prev_un + delta
        unwrapped[m] = prev_un
        prev = matched
    return unwrapped


def _crossings_from_phase_tracks(
    unwrapped: np.ndarray,
    grid: np.ndarray,
) -> list[CrossingRecord]:
    """Extract passages of unwrapped phase tracks through pi (mod 2 pi)."""
    nsamp, n = unwrapped.shape
    # track index -> (step, interpolated x, direction)
    events: dict[int, list[tuple[float, int]]] = {}
    level = (unwrapped - np.pi) / (2.0 * np.pi)
    floors = np.floor(level)
    for i in range(n):
        (steps,) = np.nonzero(floors[1:, i] != floors[:-1, i])
        for m in steps:
            lo, hi = level[m, i], level[m + 1, i]
            direction = 1 if hi > lo else -1
            target = max(floors[m, i], floors[m + 1, i])  # the integer crossed
            frac = (target - lo) / (hi - lo)
            x_cross = grid[m] + frac * (grid[m + 1] - grid[m])
            events.setdefault(int(m), []).append((float(x_cross), direction))
    records: list[CrossingRecord] = []
    for m in sorted(events):
        evs = events[m]
        multiplicity = len(evs)
        directions = {d for _, d in evs}
        x_mean = float(np.mean([x for x, _ in evs]))
        if len(directions) == 1:
            direction = directions.pop()
        else:
            direction = 0
            warnings.warn(f"opposite-direction crossings within one step near x={x_mean:.4f}; "
                          "direction recorded as 0", stacklevel=3)
        records.append(CrossingRecord(x=x_mean, multiplicity=multiplicity, direction=direction))
    return records


def _phases_ambiguous(phases: np.ndarray, step: int, resolution: float) -> bool:
    for m in (step, step + 1):
        p = np.sort(phases[m])
        if p.size > 1 and float(np.min(np.diff(p))) < resolution:
            return True
    return False


def detect_crossings(
    u_path: np.ndarray | UnitaryPath,
    grid: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[CrossingRecord]:
    """Detect passages of spec(u) through -1 along a unitary path.

    Eigenphases are tracked between samples by nearest matching (rejection
    threshold ``tol.phase_match_reject``); a crossing is recorded when a
    tracked phase passes pi, with multiplicity the number of phases crossing
    in the same step and direction the sign of the phase velocity.  Crossings
    whose phases sit closer than ``tol.chart_tol`` get direction 0 and a
    warning.
    """
    if isinstance(u_path, UnitaryPath):
        us = u_path.us
        grid = u_path.grid if grid is None else np.asarray(grid, dtype=float)
    else:
        us = np.asarray(u_path)
        if grid is None:
            raise ConfigError("grid required when u_path is a raw array")
        grid = np.asarray(grid, dtype=float)
    if us.shape[0] != grid.size:
        raise StructureError("u path and grid lengths disagree")
    jumps = np.max(np.abs(np.diff(us, axis=0)), axis=(1, 2))
    if jumps.size and float(np.max(jumps)) >= 0.5:
        raise StepSizeError(
            f"consecutive u samples differ by {float(np.max(jumps)):.3f} >= 0.5; refine the grid")
    phases = np.angle(np.linalg.eigvals(us))
    phases = np.sort(phases, axis=1)
    return _detect_from_phases(phases, grid, tol)


def crossings_from_chart(
    path: ChartPath,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[CrossingRecord]:
    """Crossings along a chart path: eigenvalues of s through infinity.

    Uses the circle coordinates -2 arctan(mu), which are the eigenphases of
    Cay(s); a passage of mu through +-infinity is a passage of the phase
    through pi, so chart and unitary routes count identically.
    """
    phases = np.sort(-2.0 * np.arctan(path.eigen_trace.mu), axis=1)
    return _detect_from_phases(phases, path.grid, tol)


def _detect_from_phases(
    phases: np.ndarray,
    grid: np.ndarray,
    tol: Tolerances,
) -> list[CrossingRecord]:
    unwrapped = _track_phases(phases, tol.phase_match_reject)
    records = _crossings_from_phase_tracks(unwrapped, grid)
    out: list[CrossingRecord] = []
    for rec in records:
        step = int(np.searchsorted(grid, rec.x, side="right") - 1)
        step = min(max(step, 0), phases.shape[0] - 2)
        if rec.direction != 0 and rec.multiplicity > 1 and _phases_ambiguous(phases, step, tol.chart_tol):
            warnings.warn(
                f"crossing near x={rec.x:.4f} involves phases closer than the resolution; "
                "direction recorded as 0", stacklevel=2)
            rec = CrossingRecord(x=rec.x, multiplicity=rec.multiplicity, direction=0)
        out.append(rec)
    return out


def end_intersection_dimension(
    u_end: np.ndarray,
    u_reference: np.ndarray,
    angle_tol: float = DEFAULT_TOLERANCES.end_flag_angle,
) -> int:
    """Dimension of the near-intersection of two planes from their unitary
    representatives: the number of singular values of (u1 - u2) below the
    chord length of ``angle_tol``.

    Two Lagrangian planes intersect in dimension k exactly when u1 - u2 has
    a k-dimensional kernel.
    """
    sv = np.linalg.svd(np.asarray(u_end) - np.asarray(u_reference), compute_uv=False)
    chord = 2.0 * np.sin(0.5 * angle_tol)
    return int(np.sum(sv < chord))


def _end_of_interval_flag(
    crossings: list[CrossingRecord],
    grid: np.ndarray,
    u_end: np.ndarray,
    u_ref: np.ndarray | None,
    tol: Tolerances,
) -> tuple[bool, int]:
    """Asymptotic-intersection flag for the right end of the window.

    Fires when the run is truncation-sensitive: a crossing sits within one
    step of x_plus, the final plane is within ``chart_tol`` of the train
    (an eigenphase of u_end near pi, i.e. a huge chart eigenvalue at the
    end), or the final plane intersects the far-field reference plane within
    ``end_flag_angle``.  Near-exact spectral eigenvalues produce the middle
    signature; the dimension of the reference-plane intersection is returned
    alongside.
    """
    h = float(grid[-1] - grid[-2])
    edge_crossing = any(c.x > grid[-1] - 1.5 * h for c in crossings)
    end_phases = np.angle(np.linalg.eigvals(u_end))
    near_train = bool(np.min(np.abs(np.abs(end_phases) - np.pi)) < tol.chart_tol)
    end_dim = 0
    if u_ref is not None:
        end_dim = end_intersection_dimension(u_end, u_ref, tol.end_flag_angle)
    return bool(edge_crossing or near_train or end_dim > 0), end_dim


@dataclass(frozen=True)
class TraceResult:
    """Everything a single-lambda run produces.

    ``count_chart`` and ``count_unitary`` are the crossing counts of each
    route, -1 for a route that did not run; ``result`` holds the unitary
    route's crossings when it ran, else the chart route's.
    """

    lam: float
    grid: np.ndarray
    backend: str
    init_mode: str
    theta: ThetaTrace
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
    tol: Tolerances,
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
            frame0 = farfield_frame(field.farfield_minus(lam), "unstable", tol)
            init_mode = "farfield"
        except (HyperbolicityError, StructureError):
            if init == "farfield":
                raise
    try:
        u_ref = unitary_from_frame(farfield_frame(field.farfield_plus(lam), "stable", tol)).mat
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
    tol: Tolerances,
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
        s0 = SymmetricChart(np.zeros((n, n))) if frame0 is None else chart_from_frame(frame0, tol)
        chart_path = integrate_chart(field, lam, grid, s0, tol)
        crossings = crossings_from_chart(chart_path, tol)
        count_chart = sum(c.multiplicity for c in crossings)
    if backend != "chart":
        u0 = UnitarySymmetric(np.eye(n, dtype=complex)) if frame0 is None else unitary_from_frame(frame0)
        u_path = integrate_unitary(field, lam, grid, u0, tol=tol)
        crossings = detect_crossings(u_path, tol=tol)
        count_unitary = sum(c.multiplicity for c in crossings)
        theta = u_path.theta_trace
        u_end = u_path.us[-1]
    else:
        theta = theta_from_chart(chart_path)
        u_end = cayley(chart_path.chart(-1), tol).mat

    end_flag, end_dim = _end_of_interval_flag(crossings, grid, u_end, u_ref, tol)
    return TraceResult(lam=lam, grid=grid, backend=backend, init_mode=init_mode,
                       theta=theta, unitary_path=u_path, chart_path=chart_path,
                       result=maslov_index(crossings, theta_trace=theta),
                       end_flag=end_flag, end_dimension=end_dim,
                       count_chart=count_chart, count_unitary=count_unitary)


def run_trace(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    backend: str = "unitary",
    init: str = "auto",
    tol: Tolerances = DEFAULT_TOLERANCES,
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
    grid = np.asarray(grid, dtype=float)
    trace = _run_row(field, lam, grid, backend, _far_field_ends(field, lam, init, tol), tol)
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
               tol: Tolerances) -> SweepRow:
    """One sweep row or refine probe: the core from both far fields.

    A lambda outside the method's domain (a far field not hyperbolic, or a
    start plane off the chart) gives a skipped row; numerical failures of
    the integration or detection propagate.
    """
    try:
        ends = _far_field_ends(field, lam, "farfield", tol)
    except (HyperbolicityError, StructureError) as exc:
        return _failed_row(lam, "skipped", str(exc))
    try:
        trace = _run_row(field, lam, grid, backend, ends, tol)
    except ChartDomainError as exc:
        return _failed_row(lam, "skipped", str(exc))
    status, reason = "ok", ""
    if backend == "both" and trace.count_chart != trace.count_unitary:
        status, reason = "disagree", f"chart={trace.count_chart} unitary={trace.count_unitary}"
    return SweepRow(lam=lam, status=status, reason=reason,
                    theta_end=float(trace.theta.theta[-1]),
                    crossing_count=trace.result.unsigned_count, end_flag=trace.end_flag,
                    count_chart=trace.count_chart, count_unitary=trace.count_unitary)


def _sweep_chunk(job: tuple) -> list[SweepRow]:
    """Rows for a chunk of lambdas on one field; a row whose integration or
    detection fails numerically gets status "error" and the reason."""
    spec, lambdas, grid, backend, tol = job
    field = get_model(spec, tol)
    rows = []
    for lam in lambdas:
        try:
            rows.append(_sweep_row(field, float(lam), grid, backend, tol))
        except (StepSizeError, StructureError) as exc:
            rows.append(_failed_row(float(lam), "error", str(exc)))
    return rows


def sweep_lambda(
    model: ModelSpec | str,
    lambda_grid: np.ndarray,
    x_grid: np.ndarray,
    backend: str = "both",
    workers: int = 1,
    tol: Tolerances = DEFAULT_TOLERANCES,
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
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or lambda_grid.size == 0:
        raise ConfigError("lambda grid must be a non-empty 1-d array")
    if np.any(np.diff(lambda_grid) <= 0):
        raise ConfigError("lambda grid must be strictly increasing")
    x_grid = np.asarray(x_grid, dtype=float)

    n_chunks = min(lambda_grid.size, 4 * workers) if workers > 1 else 1
    jobs = [(spec, chunk, x_grid, backend, tol)
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
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RefineResult:
    """Bisect a lambda bracket on the crossing-count jump.

    Requires the unsigned counts at the bracket ends to differ; returns the
    bracket midpoint once the bracket is shorter than ``tol_lambda``.  The
    field is built once; a probe that is skipped or fails raises.
    """
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    if not lam_lo < lam_hi:
        raise ConfigError("need lam_lo < lam_hi")
    field = get_model(spec, tol)
    x_grid = np.asarray(x_grid, dtype=float)

    def count_at(lam: float) -> int:
        row = _sweep_row(field, lam, x_grid, backend, tol)
        if row.status == "skipped":
            raise HyperbolicityError(f"lambda={lam}: {row.reason}")
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
