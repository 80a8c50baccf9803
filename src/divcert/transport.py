"""Exact transport (Kantorovich / Wasserstein-1) distance.

Two independently computed closed forms are provided: the L1 distance
between quantile functions and the L1 distance between CDFs.  For step
functions both integrals are finite sums, so they agree exactly; the
tests and `divcert kantorovich` use that agreement as an internal
consistency check.  The two forms run on separate walkers of
`divcert.dist` (`quantile_steps` and `cdf_steps`), so that a fault in
one walker shows as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import SimpleDist, cdf_steps, quantile_steps


def kantorovich(a: SimpleDist, b: SimpleDist) -> Fraction:
    """Integral over (0,1] of |q_a(u) - q_b(u)|, exact: a finite sum over
    the steps on which both quantile functions are constant."""
    return sum(
        (abs(qa - qb) * width for _, width, qa, qb in quantile_steps(a, b)), Fraction(0)
    )


def kantorovich_cdf(a: SimpleDist, b: SimpleDist) -> Fraction:
    """Integral over the reals of |F_a(x) - F_b(x)|, exact: both CDFs are
    constant between consecutive merged atom values and agree outside them."""
    steps = cdf_steps(a, b)
    left, fa, fb = next(steps)
    total = Fraction(0)
    for right, next_fa, next_fb in steps:
        total += abs(fa - fb) * (right - left)
        left, fa, fb = right, next_fa, next_fb
    return total
