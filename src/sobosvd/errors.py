"""Exception types raised by this package."""


class SobosvdError(Exception):
    """Base class for all errors raised by sobosvd."""


class InvalidAxisError(SobosvdError, ValueError):
    """Axis construction rejected (too few nodes, non-finite or empty interval)."""


class SamplingError(SobosvdError, ValueError):
    """A sampled value was not finite."""


class AxisMismatchError(SobosvdError, ValueError):
    """Two grid functions do not live on the same axes."""


class ModeError(SobosvdError, IndexError):
    """Mode index missing or out of range, or too few axes to unfold."""


class DegenerateDataError(SobosvdError, ValueError):
    """Not enough usable data points for a fit."""


class ConfigError(SobosvdError, ValueError):
    """Experiment configuration failed to parse or validate."""


class UnknownCaseError(ConfigError):
    """Requested analytic case is not in the catalog."""


class SampleFileError(SobosvdError, OSError):
    """Raw sample file unreadable or inconsistent with its metadata."""
