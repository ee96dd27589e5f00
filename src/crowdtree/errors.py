"""Exception hierarchy shared by all crowdtree modules."""


class CrowdTreeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CrowdTreeError):
    """A table, tree, or configuration failed validation."""


class NonPositivePrior(ValidationError):
    pass


class PriorSumMismatch(ValidationError):
    pass


class ErrorProbOutOfRange(ValidationError):
    pass


class UselessTest(ValidationError):
    """A test never produces both outcomes, so it can never split anything."""


class DuplicateIdentifier(ValidationError):
    pass


class SingletonBlock(CrowdTreeError):
    """An operation that needs at least two classes got a single-class block."""


class InapplicableTest(CrowdTreeError):
    """The test is undefined for some class in the block, or does not split it."""


class UnknownClass(CrowdTreeError):
    pass


class UnknownTest(CrowdTreeError):
    pass


class InvalidPartition(CrowdTreeError):
    """Blocks are not disjoint or do not cover every class exactly once."""


class EvenVoteCount(CrowdTreeError):
    """Majority voting needs an odd, non-empty number of votes."""


class DomainError(CrowdTreeError):
    """Argument outside the mathematical domain of a special function."""


class UnknownStrategy(CrowdTreeError):
    pass


class InseparableClasses(CrowdTreeError):
    """Some group of classes cannot be split by any applicable test."""


class InstanceTooLarge(CrowdTreeError):
    """Exhaustive enumeration was asked for an instance above its size bound."""


class ParseError(ValidationError):
    """A file could not be parsed; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TableMismatch(ValidationError):
    """A tree document does not belong to the supplied table."""
