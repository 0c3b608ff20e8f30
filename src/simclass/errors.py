"""Exception taxonomy shared by all simclass modules."""


class SimclassError(Exception):
    """Base class for all errors raised by this package."""


class BadDescriptor(SimclassError):
    """Malformed ring descriptor string."""


class BadLevel(SimclassError):
    """Level/length argument outside the valid range."""


class NonUnit(SimclassError):
    """Inversion of a non-unit ring element."""


class CtxMismatch(SimclassError):
    """Operands live over different rings."""


class NotInvertible(SimclassError):
    """Matrix inversion of a matrix with non-unit determinant."""


class BadParams(SimclassError):
    """Invalid constructor parameters."""


class SearchBudgetExceeded(SimclassError):
    """A residue-span search would exceed the configured cap.

    Nothing in the package searches a residue span any more; the class
    stays exported for callers that still catch it."""


class BudgetExceeded(SimclassError):
    """An enumeration or census would exceed the configured budget."""


class NonIntegralDivision(SimclassError):
    """An exact integer division left a remainder (formula transcription bug)."""


class VerificationFailed(SimclassError):
    """An exact identity that a result must satisfy did not hold.

    Raised explicitly, never by assert, so it also fires under python -O."""
