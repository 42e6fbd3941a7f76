"""Exception hierarchy shared across the package."""


class SphereconeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SphereconeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfiniteResultError(DomainError):
    """The exact result is +infinity and cannot be represented."""


class ConfigurationError(SphereconeError, ValueError):
    """Inconsistent sizes, flags or parameter combinations."""


class ExhaustionError(SphereconeError, RuntimeError):
    """A low-discrepancy stream ran past its supported index range."""


class NumericError(SphereconeError, ArithmeticError):
    """A numerical routine failed to converge or validate."""


class WorkerError(SphereconeError, RuntimeError):
    """A worker process of the pool ended without returning its results."""
