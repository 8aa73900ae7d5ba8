"""Exception types shared across the package."""


class SgnError(Exception):
    """Base class for all package errors."""


class DomainError(SgnError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidRootsError(DomainError):
    """Root triple violates 0 < h0 < h1 < h2 or is degenerate."""


class DegeneratePencilError(SgnError, ArithmeticError):
    """det(B - lam*A) degenerates below degree four; eigenvalues undefined."""


class PositivityError(SgnError, ArithmeticError):
    """Water depth lost positivity during time stepping."""


class EllipticSolveError(SgnError, ArithmeticError):
    """The dispersive-pressure linear solve failed or returned non-finite values."""


class StepBudgetError(SgnError, ArithmeticError):
    """The time step collapsed: a run would need more than about 1e12 steps to finish."""
