"""Exception hierarchy shared across the package, and read_checked, the
binary readers' one check of a length against the file size."""

import os


class D2Error(Exception):
    pass


class DimensionError(D2Error):
    """Shape or length mismatch between arrays."""


class ConfigurationError(D2Error):
    """Invalid hyperparameter, split, or config-file value."""


class FormatError(D2Error):
    """Malformed binary or text input file."""


def read_checked(fh, size: int, what: str, last: bool = False) -> bytes:
    """The next size bytes of the regular file fh, named what. The size
    is checked against the bytes left before any is read, so a length
    read from a file cannot ask for a buffer larger than the file; with
    last, the bytes must also end the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size:
        raise FormatError(f"truncated {what}: {left} of {size} bytes")
    if last and left > size:
        raise FormatError(f"{left - size} trailing bytes after the {what}")
    return fh.read(size)


class FrozenUpdateError(D2Error):
    """Attempted gradient update of a frozen pseudo-logit entry."""


class NumericError(D2Error):
    """Non-finite value where a finite one is required."""


class WorkerError(D2Error):
    """A fork.Child exited before it replied: the evaluation worker that
    run_r2d2 and run_supervised_baseline start where a CPU is spare,
    diagnose's diagnostics worker, which writes the residual tables, or
    the CSV worker, which makes or parses a range of a CSV file's blocks."""
