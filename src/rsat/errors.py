"""Exception types shared across the package."""


class RsatError(Exception):
    """Base class for all library errors."""


class InvalidConfig(RsatError):
    """Generator or sweep configuration violates its invariants."""


class MissingAssignment(RsatError):
    """An interpretation lacks a value for a variable that occurs in the formula."""


class WrongVspec(RsatError):
    """Operation requires a different truth-value-set kind."""


class WrongArity(RsatError):
    """Operation requires a different clause width k."""


class DuplicateThresholds(RsatError):
    """Two literals share an encoded right-hand side (or complementary sides)."""


class ResourceLimit(RsatError):
    """A configured search or enumeration budget was exhausted."""


class DomainError(RsatError):
    """Numeric argument outside the domain of a closed-form expression."""


class NoCrossing(RsatError):
    """A sweep slice never straddles the crossing target."""


class ParseError(RsatError):
    """A formula or certificate file is malformed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
