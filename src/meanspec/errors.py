"""Exception taxonomy shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class GridError(ValidationError):
    """Grid configuration problem: mismatched step or unaligned breakpoint."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the desk-scale resource budget."""


class ContractError(RuntimeError):
    """A computed result failed one of the module's own certified checks."""
