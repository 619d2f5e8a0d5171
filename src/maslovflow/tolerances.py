"""Numerical thresholds.

Every numerical gate in the package reads its threshold here.  Each one is
a constant: no run sets a threshold.
"""

import math

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
# eigenvalue counts as singular, and the end flag's bound on a final eigenphase
# near pi; 1 / CHART_TOL bounds the chart route's unflagged Moebius denominator
# condition and the trace CSV's |mu|
CHART_TOL = 1e-3
# |mu| above which a chart eigenvalue counts as singular: cot(CHART_TOL / 2)
SINGULAR_MU = 1.0 / math.tan(0.5 * CHART_TOL)
# minimum |Re(eigenvalue)| for a hyperbolic far field
HYPERBOLICITY = 1e-8
# default far-field consistency tolerance for fields that do not declare their own
FARFIELD_DEFAULT = 1e-8
# unitarity defect above which integrate_unitary re-projects
REPROJECT_DEFECT = 1e-12
# largest change of any entry of u between consecutive unitary samples
U_JUMP_REJECT = 0.5
# bound on |exp(i theta) - det u| along unitary paths
CIRCLE_CONSISTENCY = 1e-8
# largest per-step motion of one eigenphase of u accepted when the sorted
# phases of consecutive samples are matched by the shift the angle theta gives
PHASE_MATCH_REJECT = 0.785398163397448  # pi/4
# principal-angle threshold (radians) below which the final plane is flagged
# as intersecting the far-field reference plane
END_FLAG_ANGLE = 1e-3

