"""Exception types shared across the package."""


class RobustRatesError(Exception):
    """Base class for all errors raised by robust_rates."""


class DomainError(RobustRatesError, ValueError):
    """An input lies outside the mathematical domain of an operation
    (maturity beyond the curve horizon, reversed time ordering, bad index)."""


class ParseError(RobustRatesError, ValueError):
    """A data file (curve CSV, tabulated-volatility CSV) failed to parse;
    the message carries the offending line number."""


class ConfigError(RobustRatesError, ValueError):
    """A contract configuration file is malformed or inconsistent;
    the message names the offending field."""


class UnsupportedMethodError(RobustRatesError, ValueError):
    """The requested numerical method does not apply to the given problem
    (e.g. one-factor quadrature with a multi-factor volatility structure)."""


class StabilityError(RobustRatesError, RuntimeError):
    """A lattice step's branch probabilities leave [0, 1] (the step
    variance is too large for the node spacing).  The message suggests a
    sufficient number of time steps."""


class ConvergenceError(RobustRatesError, RuntimeError):
    """An iterative solve (policy iteration) failed to converge within its
    iteration cap."""
