"""Semantic exceptions shared across the package."""


class ContagionControlError(Exception):
    """Base error for this package."""


class ParameterError(ContagionControlError, ValueError):
    """An argument violates its contract (domain, range, or consistency)."""


class ConstructionError(ContagionControlError, RuntimeError):
    """A requested finite construction is infeasible (e.g. stub totals cannot balance)."""

