"""Shared exception types and the two rules that refuse int arguments.

:func:`check_int` refuses counts, sizes and limits; :func:`check_masks`
refuses vertex sets, rows and GF(2) vectors, which are int masks, and the
vertex and column indices that name one of their bits.
"""

from __future__ import annotations


def check_int(value, what: str, low: int | None, high: int | None = None) -> int:
    """``value`` when it is an int, not a bool, in ``low..high``; else ValueError.

    No upper limit when ``high`` is None, and no range at all when ``low``
    is, for :func:`check_masks`, which refuses out-of-range masks itself.
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


def check_masks(values, what: str, width: int, *, index: bool = False) -> tuple:
    """``values`` as a tuple when each is an int, not a bool, with no bit
    outside 0..width-1, or with ``index`` one of those bit positions.

    Vertex sets, adjacency and matrix rows and GF(2) vectors are such
    masks, of width the vertex count or the order; vertex and column
    indices name their bits, and are checked before anything shifts by
    them.  Value i is refused as ``what.format(i)``, formatted only then,
    naming the allowed values as ``range(2**width)`` or ``range(width)``,
    so an empty graph reads as ``range(0)``, never as ``0..-1``.
    """
    values = tuple(values)
    bound = width if index else 1 << width
    for i, value in enumerate(values):
        if value.__class__ is not int or not 0 <= value < bound:
            if check_int(value, what.format(i), None) < 0 or value >= bound:
                span = width if index else f"2**{width}"
                raise ValueError(f"{what.format(i)} must be in range({span}), got {value}")
    return values


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
