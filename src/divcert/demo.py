"""Law-of-large-numbers demonstration data.

The running example: averages of n unit-rate exponentials.  Each average
follows a Gamma(n, scale 1/n) law, discretized here to a simple
distribution so the exact machinery applies: the inverse CDF evaluated
at the cell midpoints (k - 1/2)/grid.  For an integer shape n the Gamma
CDF has the Erlang closed form P(n, x) = 1 - e^-x * sum_{k<n} x^k/k!,
whose density e^-x x^(n-1)/(n-1)! is the last term of that sum.  Newton
steps solve P(n, x) = u in a private 30-digit decimal context; every
step is a correctly rounded decimal operation, so each root, rounded to
17 significant digits and converted to an exact rational, is the same
on every platform and Python version, and tables are reproducible bit
for bit.  No float is involved.

The emitted table tracks the Expected Shortfall at a fixed level and the
transport distance to the point mass at 1: the distance contracts toward
zero, which is what makes the closure step necessary.  Each stage
second-order dominates the one before (`ssd_violation(d_2n, d_n)` is
None), but no stage is an exact diversification of another: the
discretized means fall short of 1 by different amounts, from 3.4e-4 at
n = 1 to 6.6e-6 at n = 64 on a grid of 1024 points.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .dist import SimpleDist, dirac
from .risk import _check_level, expected_shortfall
from .transport import kantorovich

#: Most Poisson terms lln_table sums per Newton step over all its stages,
#: grid * (2**(max_doublings + 1) - 1).  The deepest tables it admits, from
#: 2**21 on a grid of 1 to 2**11 on a grid of 1024, took 5.5 to 8.8 s on a
#: 2-core x86-64 box (CPython 3.11).
MAX_POISSON_TERMS = 2**22

#: Most grid points lln_table handles over all its stages,
#: grid * (max_doublings + 1).  A stage costs 70 to 85 us per point at
#: grids of 2**15 to 2**18 on a 2-core x86-64 box (CPython 3.11), and the
#: tables at this bound took 18 to 22 s.  The default table, 1024 points
#: by 7 stages, uses 7,168.
MAX_GRID_POINTS = 2**18

#: The solver's decimal context.  Its exponent range keeps e^-x normal for
#: every shape the bounds above admit.
_SOLVER = decimal.Context(prec=30, rounding=decimal.ROUND_HALF_EVEN,
                          Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _erlang_cdf(n: int, x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """P(n, x) and its density at x, the last Poisson term of the sum."""
    term = total = (-x).exp()
    for k in range(1, n):
        term = term * x / k
        total += term
    return 1 - total, term


def _newton_sweep(n: int, x: decimal.Decimal, at_x, targets) -> list[decimal.Decimal]:
    """Roots of P(n, .) = u for each u of `targets` in turn, starting from
    x, where `_erlang_cdf` gave `at_x`.  Each root after the first is
    started from the last point evaluated for the one before, so its
    first step reuses that evaluation.

    P(n, .) is convex below the mode n - 1 and concave above it.  Newton
    steps toward a root on the concave side from its left, or on the
    convex side from its right, never pass it, so a sweep from the mode
    outward converges monotonically at every point.  A step below 1e-14
    of x is the last one: the error it leaves is about (n - 1 - x)/2 times
    the square of that share, below 1e-23 for every shape the bounds admit.
    """
    p, density = at_x
    roots = []
    for u in targets:
        while True:
            step = (u - p) / density
            if abs(step) <= x.scaleb(-14):
                break
            x += step
            p, density = _erlang_cdf(n, x)
        roots.append(x + step)
    return roots


def gamma_mean_quantile_dist(n_terms: int, grid: int) -> SimpleDist:
    """Deterministic `grid`-point discretization of the law of the average
    of `n_terms` unit-rate exponentials (inverse CDF at cell midpoints),
    each root rounded to 17 significant digits."""
    if n_terms < 1 or grid < 1:
        raise ValueError("n_terms and grid must be positive")
    with decimal.localcontext(_SOLVER):
        mode = decimal.Decimal(n_terms - 1)
        at_mode = _erlang_cdf(n_terms, mode)
        targets = [decimal.Decimal(2 * k + 1) / (2 * grid) for k in range(grid)]
        below = sum(u < at_mode[0] for u in targets)
        roots = (_newton_sweep(n_terms, mode, at_mode, reversed(targets[:below]))[::-1]
                 + _newton_sweep(n_terms, mode, at_mode, targets[below:]))
        roots = [round(x, 16 - x.adjusted()) for x in roots]
    # the roots come out strictly increasing, so the law is canonical as
    # built, and the validator checks that it is
    mass = Fraction(1, grid)
    return SimpleDist(tuple((Fraction(x) / n_terms, mass) for x in roots))


def lln_table(max_doublings: int, alpha, grid: int) -> list[tuple[int, Fraction, Fraction]]:
    """One row (n, es, kappa) per stage n = 1, 2, 4, ..., 2**max_doublings:
    the Expected Shortfall at `alpha` and the transport distance to the
    point mass at 1."""
    if max_doublings < 0 or grid < 1:
        raise ValueError("max_doublings must be non-negative and grid positive")
    # checked first, this bound keeps 2**max_doublings below 2**(2**18)
    if grid * (max_doublings + 1) > MAX_GRID_POINTS:
        raise ValueError(f"{max_doublings + 1} stages of {grid} points exceed "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    if grid * (2 ** (max_doublings + 1) - 1) > MAX_POISSON_TERMS:
        raise ValueError(f"{max_doublings} doublings on a grid of {grid} sum more than "
                         f"MAX_POISSON_TERMS = {MAX_POISSON_TERMS} terms per Newton step")
    alpha = _check_level(alpha)
    rows = []
    for k in range(max_doublings + 1):
        d = gamma_mean_quantile_dist(2**k, grid)
        rows.append((2**k, expected_shortfall(d, alpha), kantorovich(d, dirac(1))))
    return rows
