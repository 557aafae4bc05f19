"""Typed failure modes.

Every failure carries a short machine-readable ``name``, the CLI's one stable
diagnostic token per failure class, and the ``exit_code`` the CLI ends with.
"""


class PipelineError(Exception):
    """A failure that a stage logs as ``error: <name>`` and the CLI exits on
    with ``exit_code``."""


class ConfigParseError(PipelineError):
    """Config file is syntactically unreadable."""

    name = "parse"
    exit_code = 2


class ConfigValidationError(PipelineError):
    """A config or artifact file parses but a field is missing, unknown, out of
    range, or inconsistent with the run."""

    name = "validation"
    exit_code = 3


class NumericalFailure(PipelineError):
    """A computation failed; a failed Newton solve sets ``residuals`` to its
    residual history up to the failure."""

    name = "numerical-failure"
    exit_code = 4
    residuals = ()


class ResonanceError(NumericalFailure):
    """Periodic Laplacian has an eigenvalue too close to -12 for this grid."""

    name = "resonance"


class SingularJacobianError(NumericalFailure):
    """Linearized operator is numerically singular."""

    name = "singular-jacobian"


class NewtonDivergenceError(NumericalFailure):
    """Newton iteration did not reach tolerance within the iteration budget."""

    name = "newton-divergence"


class IncommensuratePeriodError(NumericalFailure):
    """Grid period is not an integer multiple of the wave period."""

    name = "incommensurate-period"


class InvalidFrameError(NumericalFailure):
    """Frame field does not satisfy its orthonormality contract."""

    name = "invalid-frame"


class DegenerateMetricError(NumericalFailure):
    """Induced metric is singular or indefinite beyond tolerance."""

    name = "degenerate-metric"
