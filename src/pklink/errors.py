"""Error taxonomy and process exit codes.

Every failure raised by this package derives from PkLinkError.  The CLI maps
each error category to a distinct nonzero exit code so scripts can tell a
bad invocation from bad data, a numeric failure, or a detection failure.
"""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_SYNC = 5


class PkLinkError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PkLinkError):
    """Bad invocation: unknown scenario, invalid flag combination, bad field."""


class DataError(PkLinkError):
    """Unusable input data: malformed file, too few points, wrong columns."""


class NumericError(PkLinkError):
    """Numeric failure: bad parameter domain, instability, ill-conditioning."""


class DomainError(NumericError):
    """Argument outside the mathematical domain of an operation."""


class ConfigurationError(NumericError):
    """Inconsistent configuration: mismatched grids, unstable step size."""


class IllConditionedError(NumericError):
    """Operation is numerically ill-posed for the given inputs."""


class ConvergenceError(NumericError):
    """Iterative solver diverged."""


class DetectionError(PkLinkError):
    """Receiver-side failure while interpreting a signal."""


class SynchronizationError(DetectionError):
    """No valid frame preamble found in the received signal."""


class TruncationError(DetectionError):
    """Received signal ends before the expected payload is complete."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code of its error category."""
    if isinstance(exc, UsageError):
        return EXIT_USAGE
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, DetectionError):
        return EXIT_SYNC
    if isinstance(exc, PkLinkError):  # NumericError and any other package error
        return EXIT_NUMERIC
    return 1
