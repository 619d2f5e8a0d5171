"""Maslov index computation for linear symplectic systems on the line.

Two equivalent integration routes are provided: a matrix Riccati flow on the
symmetric-matrix chart of the Lagrangian Grassmannian (stepped through chart
singularities by the Moebius action of local fundamental solutions), and a
singularity-free flow pulled back to the unitary Lie algebra whose trace
accumulates the rotation angle.  Crossing counts over a spectral-parameter
sweep count the eigenvalues of self-adjoint problems such as bundled
seventh-order KdV solitary-wave stability model.
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
    CrossingRecord,
    MaslovResult,
    RefineResult,
    SweepRow,
    SweepTable,
    TraceResult,
    crossings_from_chart,
    detect_crossings,
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
    SymmetricChart,
    integrate_chart,
    singular_eigenvalue_count,
    singular_threshold,
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
