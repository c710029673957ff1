"""Exception hierarchy shared across the package."""


class D2Error(Exception):
    pass


class DimensionError(D2Error):
    """Shape or length mismatch between arrays."""


class ConfigurationError(D2Error):
    """Invalid hyperparameter, split, or config-file value."""


class FormatError(D2Error):
    """Malformed binary or text input file."""


class FrozenUpdateError(D2Error):
    """Attempted gradient update of a frozen pseudo-logit entry."""


class NumericError(D2Error):
    """Non-finite value where a finite one is required."""
