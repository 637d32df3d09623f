"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid configuration value or malformed config file."""


class DomainError(ValueError):
    """Argument outside the domain a model function is defined on."""


class NumericsError(RuntimeError):
    """Non-finite values encountered during evaluation."""


class StepFailure(RuntimeError):
    """A single implicit time step failed (Newton divergence or singular matrix)."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class IntegrationFailure(RuntimeError):
    """A time integration aborted before reaching the final time."""
