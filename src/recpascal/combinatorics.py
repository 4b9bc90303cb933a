"""Exact combinatorial kernel: checked division.

Integers are plain Python ints (arbitrary precision).  Every division
performed here is exact and checked at runtime, so a wrong intermediate can
never round silently.  The super Catalan numbers come from one route,
matrices.super_catalan_matrix; the tests pin it to the factorial ratio.
"""
from __future__ import annotations


class ExactnessError(ArithmeticError):
    """An operation that must be exact left a remainder or divided by zero."""


def exact_div(a: int, b: int) -> int:
    """Divide a by b, insisting the division leaves no remainder."""
    q, r = divmod(a, b)
    if r:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q
