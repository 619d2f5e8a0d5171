"""Central tolerance configuration.

Every numerical gate in the package reads from one `Tolerances` record so the
library, the self-test suite and the CLI agree on the same defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by all modules.

    Attributes
    ----------
    eig_orthonormality : max-norm bound on ``V^T V - I`` for eigenvector bases.
    eig_reconstruction : relative max-norm bound on ``M - V diag(w) V^T``.
    unitary_check : max-norm bound on ``u u^dag - I`` accepted by det_phase.
    unitary_type : max-norm bound on the unitarity and symmetry defects of
        UnitarySymmetric inputs and of every raw unitary-route step.
    block_structure : absolute defect accepted when validating sp(R^2n) blocks.
    frame_lagrangian : max-norm bound on ``q^T p - p^T q`` for frames.
    frame_rank : relative singular-value floor for full-rank stacked frames.
    rank_threshold : relative singular-value cutoff used by rank computations.
    cond_limit : condition-number gate for chart inversions.
    chart_symmetry : relative pre-symmetrization defect allowed in charts.
    chart_tol : angular radius (radians) around -1 on the unit circle inside
        which a Cayley eigenvalue counts as singular; equivalently
        ``|mu| > cot(chart_tol / 2)``.
    hyperbolicity : minimum ``|Re(eigenvalue)`` for a hyperbolic far field.
    farfield_default : default far-field consistency tolerance for fields that
        do not declare their own.
    reproject_defect : unitarity defect above which integrate_unitary re-projects.
    circle_consistency : bound on ``|exp(i theta) - det u|`` along unitary paths.
    phase_match_reject : largest per-step phase motion accepted when tracking
        eigenphases between samples.
    end_flag_angle : principal-angle threshold (radians) below which the final
        plane is flagged as intersecting the far-field reference plane.
    """

    eig_orthonormality: float = 1e-12
    eig_reconstruction: float = 1e-10
    unitary_check: float = 1e-8
    unitary_type: float = 1e-10
    block_structure: float = 1e-10
    frame_lagrangian: float = 1e-10
    frame_rank: float = 1e-10
    rank_threshold: float = 1e-8
    cond_limit: float = 1e12
    chart_symmetry: float = 1e-8
    chart_tol: float = 1e-3
    hyperbolicity: float = 1e-8
    farfield_default: float = 1e-8
    reproject_defect: float = 1e-12
    circle_consistency: float = 1e-8
    phase_match_reject: float = 0.785398163397448  # pi/4
    end_flag_angle: float = 1e-3

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
