"""Built-in invariant suite behind ``maslovflow selftest``.

Each property is checked with an explicit numeric bound and reports its worst
observed defect, so regressions show up as numbers rather than booleans; a
property passes when its worst defect is below its bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .maslov import _far_field_ends, _run_row
from .matrixkit import det_phase, sym_arctan, symmetrize
from .models import get_model
from .riccati import SymmetricChart, singular_eigenvalue_count
from .system import LagrangianFrame, chart_from_frame, farfield_frame, total_frame_rank_loss
from .tolerances import RANK_THRESHOLD
from .unitary import UnitarySymmetric, cayley, integrate_unitary, unitary_from_frame

__all__ = [
    "PropertyReport",
    "planted_rank_loss_frame",
    "check_trace_formula",
    "check_unitarity_drift",
    "check_theorem1",
    "check_route_agreement",
    "run_selftest",
]


@dataclass(frozen=True)
class PropertyReport:
    name: str
    max_defect: float
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """The one pass rule of every property: worst defect below bound."""
        return self.max_defect < self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: max defect {self.max_defect:.3e} (bound {self.bound:.1e}){extra}"


_SEED = 20240611  # of run_selftest's random inputs
_PLANTED_EPS = 1e-9  # distance from pi/2 of planted_rank_loss_frame's planted angles


def planted_rank_loss_frame(n: int, k: int, rng: np.random.Generator) -> LagrangianFrame:
    """Lagrangian frame whose q block has exactly k singular values ~ eps.

    Built from the diagonal frame (cos a_j, sin a_j) with k angles at
    pi/2 - eps, eps = ``_PLANTED_EPS``, disguised by a symplectic map that
    stabilizes the standard reference plane (so the planted intersection
    dimension is preserved) and a random gauge.  Used by the Theorem-1
    equivalence property.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    angles = rng.uniform(0.15, 1.2, size=n)
    angles[:k] = 0.5 * np.pi - _PLANTED_EPS
    q0 = np.diag(np.cos(angles))
    p0 = np.diag(np.sin(angles))
    e_orth, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g_orth, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s_shear = symmetrize(rng.standard_normal((n, n)))
    f_block = e_orth @ s_shear  # E^T F = S symmetric -> the map is symplectic
    q = e_orth @ q0 @ g_orth
    p = (f_block @ q0 + e_orth @ p0) @ g_orth
    return LagrangianFrame(q=q, p=p)


def check_trace_formula(rng: np.random.Generator, bound: float) -> PropertyReport:
    """arg det Cay(s) against -2 tr arctan(s), mod 2 pi, on 200 random
    symmetric s drawn from ``rng`` (n in 1..6, entries in [-5, 5])."""
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        s_mat = symmetrize(rng.uniform(-5.0, 5.0, size=(n, n)))
        lhs = det_phase(cayley(SymmetricChart(s_mat)).mat)
        rhs = -2.0 * float(np.trace(sym_arctan(s_mat)))
        defect = abs(_wrap(lhs - rhs))
        worst = max(worst, defect)
    return PropertyReport("trace_formula", worst, bound,
                          "arg det Cay(s) vs -2 tr arctan(s), 200 random s")


def _wrap(angle: float) -> float:
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


def check_unitarity_drift(bound: float) -> PropertyReport:
    """Worst unitarity and symmetry defect of the raw unitary-route steps on
    kdv7 at lambda = 0.15 over 1e4 steps.  The defects measure the drift of
    the unprojected scheme, so a path with any re-projected step fails."""
    field = get_model("kdv7")
    grid = np.linspace(field.x_minus, field.x_plus, 10_001)
    frame = farfield_frame(field.farfield_minus(0.15), "unstable")
    path = integrate_unitary(field, 0.15, grid, unitary_from_frame(frame))
    if path.reprojected_steps:
        return PropertyReport("unitarity_drift", np.inf, bound,
                              f"kdv7 lambda=0.15, 1e4 steps, {path.reprojected_steps} "
                              "re-projected")
    worst = max(path.max_unitarity_defect, path.max_symmetry_defect)
    return PropertyReport("unitarity_drift", worst, bound,
                          "kdv7 lambda=0.15, 1e4 steps, no re-projection")


def check_theorem1(rng: np.random.Generator, bound: float) -> PropertyReport:
    """Singular-eigenvalue count, rank loss of q and total-frame rank loss
    against the planted k on 50 frames from ``rng`` (n = 4, k = i mod 4);
    the defect is the number of frames where any count differs."""
    n = 4
    failures = 0
    for i in range(50):
        k = i % 4
        frame = planted_rank_loss_frame(n, k, rng)
        chart = chart_from_frame(frame)
        c_sing = singular_eigenvalue_count(chart)
        c_rank = total_frame_rank_loss(frame)
        stacked = np.block([[frame.q, np.zeros((n, n))], [frame.p, np.eye(n)]])
        sv = np.linalg.svd(stacked, compute_uv=False)
        c_total = 2 * n - int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        if not (c_sing == c_rank == c_total == k):
            failures += 1
    return PropertyReport("theorem1_equivalence", float(failures), bound,
                          "singular-eigenvalue vs rank-loss counts, 50 planted frames")


def _check_backend_agreement(bound: float) -> PropertyReport:
    """The largest spread of the chart, Moebius and Euler counts on six rows.

    Under ``both`` the chart and Moebius routes are two coordinates of one
    discrete map; the Lie-algebra Euler scheme, from the same start plane,
    is a discretization of its own."""
    cases = [("poschl_teller:2", (-5.0, -2.0, -0.5)), ("kdv7", (-0.2, 0.05, 0.13))]
    worst = 0
    for name, lams in cases:
        field = get_model(name)
        grid = np.linspace(field.x_minus, field.x_plus, 2001)
        for lam in lams:
            # the core's two counts, compared here rather than raised on
            ends = _far_field_ends(field, lam, fallback=True)
            trace = _run_row(field, lam, grid, "both", ends)
            u0 = UnitarySymmetric(trace.unitary_path.us[0])
            euler = integrate_unitary(field, lam, grid, u0, scheme="euler")
            counts = (trace.count_chart, trace.count_unitary, euler.result.unsigned_count)
            worst = max(worst, max(counts) - min(counts))
    return PropertyReport("backend_agreement", float(worst), bound,
                          "chart, Moebius and Euler crossing counts on both bundled models")


def check_route_agreement(cases: Sequence[tuple[str, float]], bound: float) -> PropertyReport:
    """Trace-formula route vs sigma-accumulation route for each (model name,
    lambda) in ``cases``: 4000 unitary steps across the model's window from
    the left far field; theta is compared on the stretch after the first
    sample with all |mu_i| < 10, up to the next sample without."""
    worst = 0.0
    for name, lam in cases:
        field = get_model(name)
        grid = np.linspace(field.x_minus, field.x_plus, 4001)
        frame = farfield_frame(field.farfield_minus(lam), "unstable")
        path = integrate_unitary(field, lam, grid, unitary_from_frame(frame))
        # the eigenphases of Cay(s) are -2 arctan(mu_i), so -2 tr arctan(s) is
        # the sum of the principal eigenphases of u where the chart exists
        base = np.sum(path.phases, axis=1)
        keep = np.all(np.abs(path.phases) < 2.0 * np.arctan(10.0), axis=1)
        anchor = int(np.nonzero(keep)[0][0])
        offset = path.theta[anchor] - base[anchor]
        offset = round(offset / (2.0 * np.pi)) * 2.0 * np.pi
        # compare on the anchor's unbroken stretch: past a singular sample the
        # raw trace formula changes branch by 2 pi
        breaks = np.nonzero(~keep)[0]
        after = breaks[breaks > anchor]
        lim = int(after[0]) if after.size else path.us.shape[0]
        sel = slice(anchor, lim)
        diff = np.abs(path.theta[sel] - (base[sel] + offset))
        worst = max(worst, float(np.max(diff)))
    return PropertyReport("route_agreement", worst, bound,
                          "theta from -2 tr arctan(s) vs sigma accumulation, |mu| < 10 stretch")


_BOUNDS = {
    "trace_formula": 1e-10,
    "unitarity_drift": 1e-9,
    "theorem1_equivalence": 0.5,  # failure count must be zero
    "backend_agreement": 0.5,
    "route_agreement": 1e-5,
}

_ROUTE_CASES = (("poschl_teller:2", -2.0), ("kdv7", 0.15))


def run_selftest() -> list[PropertyReport]:
    """Run the invariant suite on inputs drawn from ``_SEED``; returns one
    report per property, in the order of ``_BOUNDS``."""
    rng = np.random.default_rng(_SEED)
    return [
        check_trace_formula(rng, _BOUNDS["trace_formula"]),
        check_unitarity_drift(_BOUNDS["unitarity_drift"]),
        check_theorem1(rng, _BOUNDS["theorem1_equivalence"]),
        _check_backend_agreement(_BOUNDS["backend_agreement"]),
        check_route_agreement(_ROUTE_CASES, _BOUNDS["route_agreement"]),
    ]
