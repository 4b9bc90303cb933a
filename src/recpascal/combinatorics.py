"""Exact combinatorial kernels: checked division and super Catalan numbers.

Integers are plain Python ints (arbitrary precision).  Every division
performed here is exact and checked at runtime, so a wrong intermediate can
never round silently.
"""
from __future__ import annotations

from math import factorial


class ExactnessError(ArithmeticError):
    """An operation that must be exact left a remainder."""


def exact_div(a: int, b: int) -> int:
    """Divide a by b, insisting the division leaves no remainder."""
    q, r = divmod(a, b)
    if r:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q


def super_catalan(m: int, n: int) -> int:
    """Super Catalan number (2m)! (2n)! / (m! n! (m+n)!).

    The quotient is an integer for all m, n >= 0; the division is checked
    so a regression cannot silently produce a wrong value.
    """
    if m < 0 or n < 0:
        raise ValueError(f"super_catalan needs m, n >= 0, got ({m}, {n})")
    return exact_div(
        factorial(2 * m) * factorial(2 * n),
        factorial(m) * factorial(n) * factorial(m + n),
    )

