"""Shared exception types and the one int refusal."""

from __future__ import annotations


def check_int(value, what: str, low: int | None, high: int | None = None) -> int:
    """``value`` when it is an int, not a bool, in ``low..high``; else ValueError.

    No upper limit when ``high`` is None, and no range at all when ``low``
    is, for callers that refuse out-of-range values in their own words.
    Every int argument is refused here, not as a TypeError from ``range``
    or ``<<`` later.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if low is None or low <= value and (high is None or value <= high):
        return value
    if high is None:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    raise ValueError(f"{what} must be in {low}..{high}, got {value}")


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
