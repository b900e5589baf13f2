"""Shared exception types."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured size or node limit."""


class BudgetExceededError(ResourceLimitError):
    """A bounded search ran out of its node budget before finishing."""


class ParseError(ValueError):
    """Constructor-expression syntax error, carrying a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class VerificationError(RuntimeError):
    """A constructed witness failed its decycling check.

    Carries the residual cycle (a vertex list) when one is available.
    """

    def __init__(self, message: str, cycle: list[int] | None = None):
        super().__init__(message)
        self.cycle = cycle

