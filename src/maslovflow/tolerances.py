"""Numerical thresholds.

Every numerical gate in the package reads its threshold here.  Only
``CHART_TOL`` can be set for a run (the CLI's ``--chart-tol``); functions
whose result depends on it take ``chart_tol`` with this default and refuse
a value outside (0, pi) through :func:`check_chart_tol`.
"""

import math

from .errors import ConfigError

# max-norm bound on V^T V - I for eigenvector bases
EIG_ORTHONORMALITY = 1e-12
# relative max-norm bound on M - V diag(w) V^T
EIG_RECONSTRUCTION = 1e-10
# max-norm bound on u u^dag - I accepted by det_phase
UNITARY_CHECK = 1e-8
# max-norm bound on the unitarity and symmetry defects of UnitarySymmetric
# inputs and of every raw unitary-route step
UNITARY_TYPE = 1e-10
# absolute defect accepted when validating sp(R^2n) blocks
BLOCK_STRUCTURE = 1e-10
# max-norm bound on q^T p - p^T q for frames
FRAME_LAGRANGIAN = 1e-10
# relative singular-value floor for full-rank stacked frames
FRAME_RANK = 1e-10
# relative singular-value cutoff used by rank computations
RANK_THRESHOLD = 1e-8
# condition-number gate for chart inversions
COND_LIMIT = 1e12
# relative pre-symmetrization defect allowed in charts
CHART_SYMMETRY = 1e-8
# angular radius (radians) around -1 on the unit circle inside which a Cayley
# eigenvalue counts as singular; equivalently |mu| > cot(chart_tol / 2)
CHART_TOL = 1e-3
# minimum |Re(eigenvalue)| for a hyperbolic far field
HYPERBOLICITY = 1e-8
# default far-field consistency tolerance for fields that do not declare their own
FARFIELD_DEFAULT = 1e-8
# unitarity defect above which integrate_unitary re-projects
REPROJECT_DEFECT = 1e-12
# bound on |exp(i theta) - det u| along unitary paths
CIRCLE_CONSISTENCY = 1e-8
# largest per-step motion of one eigenphase of u accepted when the sorted
# phases of consecutive samples are matched by the shift the angle theta gives
PHASE_MATCH_REJECT = 0.785398163397448  # pi/4
# principal-angle threshold (radians) below which the final plane is flagged
# as intersecting the far-field reference plane
END_FLAG_ANGLE = 1e-3


def check_chart_tol(chart_tol: float) -> None:
    """Refuse (``ConfigError``) a chart singularity angle outside (0, pi); at
    pi and beyond cot(chart_tol / 2) <= 0 and every eigenvalue would count as
    singular."""
    if not 0.0 < chart_tol < math.pi:
        raise ConfigError(f"chart_tol must lie in (0, pi), got {chart_tol}")
