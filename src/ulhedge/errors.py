"""Exception types shared across the package.

The CLI maps ``ConfigError`` to exit code 2 and ``NumericalError`` (and
subclasses) to exit code 3.
"""


class ConfigError(ValueError):
    """Bad configuration: unparseable file, unknown key, violated constraint."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-finite values, no convergence, ...)."""


class CoefficientBoundError(NumericalError):
    """|mu/sigma| exceeded the configured market-price-of-risk bound."""


class DomainExcursionError(NumericalError):
    """A simulated path left the domain a PDE solution was computed on;
    ``index`` locates the first offending point of the query (row first)."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class SurvivalFloorError(NumericalError):
    """Weighted survival mass in the particle cloud fell below the floor."""
