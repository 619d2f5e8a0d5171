"""Exception types shared across the package."""


class MaslovError(Exception):
    """Base class for all package errors."""


class StructureError(MaslovError):
    """Input violates a required algebraic structure (e.g. not in sp(R^2n))."""


class HyperbolicityError(MaslovError):
    """Far-field coefficient matrix is not hyperbolic (lambda may be in the
    essential spectrum)."""


class ChartDomainError(MaslovError):
    """Plane is not representable in the requested chart (outside the top
    cell, or on the train)."""


class StepSizeError(MaslovError):
    """Grid step too large for unambiguous phase tracking / theta unwinding."""


class BackendDisagreementError(MaslovError):
    """The chart and unitary routes counted different crossings (CLI exit
    code 3)."""


class ConfigError(MaslovError):
    """Invalid run configuration (CLI exit code 2)."""


class ModelError(MaslovError):
    """Unknown model name or invalid model parameters (CLI exit code 4)."""
