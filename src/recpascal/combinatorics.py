"""Exact combinatorial kernel: checked division.

Integers are plain Python ints (arbitrary precision).  Every division
performed here is exact and checked at runtime, so a wrong intermediate can
never round silently; ExactnessError is every failed exactness claim.  The
super Catalan numbers come from one route, matrices.super_catalan_matrix;
the tests pin it to the factorial ratio.
"""
from __future__ import annotations


class ExactnessError(ArithmeticError):
    """A division left a remainder, an entry is wrong or a minor is zero;
    counterexample, if not None, is the (i, j, expected, actual) to report."""

    def __init__(self, message: str, counterexample: tuple | None = None):
        super().__init__(message)
        self.counterexample = counterexample


def exact_div(a: int, b: int) -> int:
    """Divide a by b, insisting the division leaves no remainder."""
    q, r = divmod(a, b)
    if r:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q
