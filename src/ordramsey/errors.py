"""Exception types shared across the package."""


class OrdRamseyError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OrdRamseyError):
    """A value is outside its documented domain (bad vertex index, overlap, ...)."""


class ParameterError(OrdRamseyError):
    """A precondition gate on operation parameters failed."""


class ParseError(OrdRamseyError):
    """A text input failed to parse; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GenerationError(OrdRamseyError):
    """A randomized generator exhausted its retry budget; carries the try count."""

    def __init__(self, message: str, tries: int):
        self.tries = tries
        super().__init__(f"{message} (after {tries} tries)")


class BudgetExhausted(OrdRamseyError):
    """A search used up its decision budget, or hit its clause bound, before it could decide."""


class TupleCapError(OrdRamseyError):
    """A clique-tuple enumeration cap was exceeded and the result is unusable."""


class InternalContractError(OrdRamseyError):
    """An output missed a bound the algorithm is supposed to guarantee; a bug."""
