"""Per-lambda rows, the end-of-interval flag, lambda sweeps and refinement.

A crossing is a passage of the evolving Lagrangian plane through the train of
the standard reference plane: an eigenphase of the unitary representative u
passes the angle pi (equivalently an eigenvalue of the chart s passes through
infinity); each path carries the crossings its integrator counted.
Eigenvalues of the underlying self-adjoint problem are located by integer
jumps of the crossing count as the spectral parameter increases.
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
from .riccati import ChartPath, CrossingRecord, MaslovResult, SymmetricChart, integrate_chart
from .system import CoefficientField, LagrangianFrame, chart_from_frame, farfield_frame
from .tolerances import CHART_TOL, END_FLAG_ANGLE
from .unitary import UnitaryPath, UnitarySymmetric, cayley, integrate_unitary, unitary_from_frame

__all__ = [
    "SweepRow",
    "SweepTable",
    "RefineResult",
    "TraceResult",
    "end_intersection_dimension",
    "run_trace",
    "sweep_lambda",
    "refine_eigenvalue",
]

BACKENDS = ("chart", "unitary", "both")


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
    end_phases: np.ndarray,
    u_end: np.ndarray,
    u_ref: np.ndarray | None,
) -> tuple[bool, int]:
    """Asymptotic-intersection flag for the right end of the window.

    Fires when the run is truncation-sensitive: a crossing sits within one
    step of x_plus, the final plane is within ``CHART_TOL`` of the train
    (an eigenphase ``end_phases`` of u_end near pi, i.e. a huge chart
    eigenvalue at the end), or the final plane intersects the far-field
    reference plane within ``END_FLAG_ANGLE``.  Near-exact spectral
    eigenvalues produce the middle signature; the dimension of the
    reference-plane intersection is returned alongside.
    """
    h = float(grid[-1] - grid[-2])
    edge_crossing = any(c.x > grid[-1] - 1.5 * h for c in crossings)
    near_train = bool(np.min(np.abs(np.abs(end_phases) - np.pi)) < CHART_TOL)
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
) -> TraceResult:
    """The per-lambda core behind traces, sweep rows and refine probes.

    From the ``_far_field_ends`` data it integrates the requested route(s),
    the unitary one by the Moebius scheme on the chart route's propagators,
    reads the crossings each path carries, and sets the end-of-interval
    flag.  Counts of both routes are returned, not compared.
    """
    frame0, init_mode, u_ref = ends
    n = field.n
    chart_path: ChartPath | None = None
    u_path: UnitaryPath | None = None
    if backend != "unitary":
        s0 = SymmetricChart(np.zeros((n, n))) if frame0 is None else chart_from_frame(frame0)
        chart_path = integrate_chart(field, lam, grid, s0)
    if backend != "chart":
        u0 = UnitarySymmetric(np.eye(n, dtype=complex)) if frame0 is None else unitary_from_frame(frame0)
        u_path = integrate_unitary(field, lam, grid, u0, scheme="moebius")
    if u_path is None:
        path, u_end = chart_path, cayley(chart_path.chart(-1)).mat
    else:
        path, u_end = u_path, u_path.us[-1]
    end_flag, end_dim = _end_of_interval_flag(path.result.crossings, grid, path.phases[-1],
                                              u_end, u_ref)
    return TraceResult(lam=lam, grid=grid, backend=backend, init_mode=init_mode,
                       theta=path.theta, unitary_path=u_path, chart_path=chart_path,
                       result=path.result, end_flag=end_flag, end_dimension=end_dim,
                       count_chart=-1 if chart_path is None else chart_path.result.unsigned_count,
                       count_unitary=-1 if u_path is None else u_path.result.unsigned_count)


def run_trace(
    field: CoefficientField,
    lam: float,
    grid: np.ndarray,
    backend: str = "unitary",
    init: str = "auto",
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
    trace = _run_row(field, lam, grid, backend, _far_field_ends(field, lam, init))
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


def _sweep_row(field: CoefficientField, lam: float, grid: np.ndarray, backend: str) -> SweepRow:
    """One sweep row or refine probe: the core from both far fields.

    A lambda outside the method's domain (a far field not hyperbolic, or a
    start plane off the chart) gives a skipped row; numerical failures of
    the integration propagate.
    """
    try:
        ends = _far_field_ends(field, lam, "farfield")
    except (HyperbolicityError, StructureError) as exc:
        return _failed_row(lam, "skipped", str(exc))
    try:
        trace = _run_row(field, lam, grid, backend, ends)
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
    """Rows for a chunk of lambdas on one field; a row whose integration
    fails numerically gets status "error" and the reason."""
    spec, lambdas, grid, backend = job
    field = get_model(spec)
    rows = []
    for lam in lambdas:
        try:
            rows.append(_sweep_row(field, float(lam), grid, backend))
        except (StepSizeError, StructureError) as exc:
            rows.append(_failed_row(float(lam), "error", str(exc)))
    return rows


def sweep_lambda(
    model: ModelSpec | str,
    lambda_grid: np.ndarray,
    x_grid: np.ndarray,
    backend: str = "both",
    workers: int = 1,
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
    jobs = [(spec, chunk, x_grid, backend) for chunk in np.array_split(lambda_grid, n_chunks)]
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
) -> RefineResult:
    """Bisect a lambda bracket on the crossing-count jump.

    Requires the unsigned counts at the bracket ends to differ and a
    positive ``tol_lambda``; returns the bracket midpoint once the bracket
    is shorter than ``tol_lambda`` or its ends are adjacent floats.  The
    field is built once; a probe that is skipped or fails raises, and with
    ``backend="both"`` so does a probe whose routes disagree
    (``BackendDisagreementError``).
    """
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}, got {backend!r}")
    spec = ModelSpec.parse(model) if isinstance(model, str) else model
    if not lam_lo < lam_hi:
        raise ConfigError("need lam_lo < lam_hi")
    if not tol_lambda > 0:
        raise ConfigError(f"tol_lambda must be positive, got {tol_lambda}")
    field = get_model(spec)
    x_grid = np.asarray(x_grid, dtype=float)

    def count_at(lam: float) -> int:
        row = _sweep_row(field, lam, x_grid, backend)
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
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink further
            break
        if count_at(mid) == c_lo:
            lo = mid
        else:
            hi = mid
    return RefineResult(lam_star=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                        count_lo=c_lo, count_hi=c_hi)
