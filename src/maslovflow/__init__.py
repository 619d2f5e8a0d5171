"""Maslov index computation for linear symplectic systems on the line.

Two equivalent integration routes are provided: a matrix Riccati flow on the
symmetric-matrix chart of the Lagrangian Grassmannian (stepped through chart
singularities by the Moebius action of local fundamental solutions), and a
singularity-free flow on unitary symmetric matrices, stepped by the Moebius
action of the same propagators or by the Lie-algebra Euler scheme, with the
rotation angle accumulated step by step.  Crossing counts over a
spectral-parameter sweep count the eigenvalues of self-adjoint problems such
as bundled seventh-order KdV solitary-wave stability model.
"""

from .errors import (
    ChartDomainError,
    ConfigError,
    HyperbolicityError,
    MaslovError,
    ModelError,
    StepSizeError,
    StructureError,
)
from .maslov import (
    RefineResult,
    SweepRow,
    SweepTable,
    TraceResult,
    end_intersection_dimension,
    refine_eigenvalue,
    run_trace,
    sweep_lambda,
)
from .matrixkit import det_phase, mat_exp, sym_arctan, sym_eig
from .models import (
    ModelSpec,
    get_model,
    kdv7_coefficients,
    kdv7_field,
    kdv7_wave,
    poschl_teller_field,
)
from .riccati import (
    ChartPath,
    CrossingRecord,
    MaslovResult,
    SymmetricChart,
    integrate_chart,
    singular_eigenvalue_count,
)
from .system import (
    CoefficientField,
    LagrangianFrame,
    SymplecticCoefficients,
    chart_from_frame,
    farfield_frame,
    total_frame_rank_loss,
    validate_coefficients,
)
from .unitary import (
    UnitaryPath,
    UnitarySymmetric,
    cayley,
    integrate_unitary,
    rotated_coefficients,
    unitary_from_frame,
)

__version__ = "0.1.0"
