"""Exception types shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class,
and each class carries the stable exit code of the command line,
``exit_code``; README's exit-code table lists them.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""

    exit_code = 1


class ConfigError(ToolkitError):
    """Run configuration is malformed (bad JSON, unknown key, bad value)."""

    exit_code = 2


class ShapeMismatch(ToolkitError):
    """Field data does not match the grid it claims to live on."""

    exit_code = 11


class EllipticityViolation(ToolkitError):
    """beta(x, t) beta(x, t)^T is not uniformly positive definite.

    Carries the offending sample point so the caller can report it.
    """

    exit_code = 3

    def __init__(self, message, x=None, t=None, eigenvalue=None):
        super().__init__(message)
        self.x = x
        self.t = t
        self.eigenvalue = eigenvalue


class LinearSolveFailure(ToolkitError):
    """A time step failed: its factor is singular, a solve missed its
    relative residual, or a dense step's state is not finite."""

    exit_code = 6


class CapExceeded(ToolkitError):
    """Dense operator assembly was requested above the configured size cap."""

    exit_code = 10


class NoConvergence(ToolkitError):
    """An outer iteration exhausted its budget: the resolvent solve, or the
    power iteration of ``spectrum``."""

    exit_code = 7


class GammaZero(ToolkitError):
    """Requested decrement profile is identically zero."""

    exit_code = 4


class GammaNegative(ToolkitError):
    """Requested decrement profile takes a negative value."""

    exit_code = 5


class NegativityViolation(ToolkitError):
    """Computed seed density has negative values beyond the clamp tolerance."""

    exit_code = 8


class ResidualTooLarge(ToolkitError):
    """End-to-end decrement residual exceeded the requested tolerance."""

    exit_code = 9


class NotADensity(ToolkitError):
    """Sampling input is not a probability density on the grid."""

    exit_code = 12


class VerificationFailed(ToolkitError):
    """Independent re-evolution contradicts a stored seed solution."""

    exit_code = 13
