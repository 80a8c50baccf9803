"""Law-of-large-numbers demonstration data.

The running example: averages of n unit-rate exponentials.  Each average
follows a Gamma(n, scale 1/n) law, discretized here to a simple
distribution so the exact machinery applies.  The default discretization
is deterministic: the inverse CDF evaluated at the cell midpoints
(k - 1/2)/grid in double precision and converted to exact rationals, so
tables are reproducible bit for bit.  A seeded sampling mode exists for
illustration only.

The emitted table tracks the Expected Shortfall at a fixed level and the
transport distance to the point mass at 1: the distance contracts toward
zero, which is what makes the closure step necessary.  Each stage
second-order dominates the one before (`ssd_violation(d_2n, d_n)` is
None), but no stage is an exact diversification of another: the
discretized means fall short of 1 by different amounts, from 3.4e-4 at
n = 1 to 6.6e-6 at n = 64 on a grid of 1024 points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dist import SimpleDist, dirac, from_samples
from .risk import expected_shortfall
from .transport import kantorovich

#: Deepest stage lln_table builds: the quantile call takes the shape 2**k
#: as a double, and 2**1024 is past the largest one (OverflowError).
MAX_DOUBLINGS = 1023

#: Most exponentials the seeded mode of lln_table draws over all its stages,
#: grid * (2**(max_doublings + 1) - 1).  The deepest table it admits at the
#: default grid of 1024, 12 doublings, took 4.7 s on a 2-core x86-64 box
#: (CPython 3.11); each further doubling would double that.
MAX_SAMPLED_DRAWS = 10**7

#: Most grid points lln_table handles over all its stages, in either mode,
#: grid * (max_doublings + 1).  A stage costs 38 to 50 us per point on a
#: 2-core x86-64 box (CPython 3.11) at a grid of 16,384, so this bound is
#: 10 to 13 s.  The default table, 1024 points by 7 stages, uses 7,168.
MAX_GRID_POINTS = 2**18


def gamma_mean_quantile_dist(n_terms: int, grid: int) -> SimpleDist:
    """Deterministic `grid`-point discretization of the law of the average
    of `n_terms` unit-rate exponentials (inverse CDF at cell midpoints)."""
    if n_terms < 1 or grid < 1:
        raise ValueError("n_terms and grid must be positive")
    from scipy.special import gammaincinv

    pairs = []
    weight = Fraction(1, grid)
    for k in range(grid):
        u = (2 * k + 1) / (2 * grid)
        x = float(gammaincinv(n_terms, u)) / n_terms
        pairs.append((Fraction(x), weight))
    return SimpleDist.from_pairs(pairs)


def sampled_mean_dist(n_terms: int, grid: int, seed: int) -> SimpleDist:
    """Empirical version: `grid` independent draws of the average of
    `n_terms` unit-rate exponentials."""
    if n_terms < 1 or grid < 1:
        raise ValueError("n_terms and grid must be positive")
    rng = random.Random(seed)
    samples = [
        sum(rng.expovariate(1.0) for _ in range(n_terms)) / n_terms
        for _ in range(grid)
    ]
    return from_samples(samples)


@dataclass(frozen=True)
class LlnRow:
    n: int
    es: Fraction
    kappa: Fraction


def lln_table(
    max_doublings: int, alpha, grid: int, seed: int | None = None
) -> list[LlnRow]:
    """One row per stage n = 1, 2, 4, ..., 2**max_doublings: the Expected
    Shortfall at `alpha` and the transport distance to the point mass at 1."""
    if max_doublings < 0:
        raise ValueError("max_doublings must be non-negative")
    if max_doublings > MAX_DOUBLINGS:
        raise ValueError(f"max_doublings must be at most {MAX_DOUBLINGS}")
    if seed is not None and grid * (2 ** (max_doublings + 1) - 1) > MAX_SAMPLED_DRAWS:
        raise ValueError(f"sampling {max_doublings} doublings on a grid of {grid} "
                         f"draws more than {MAX_SAMPLED_DRAWS} exponentials")
    if grid * (max_doublings + 1) > MAX_GRID_POINTS:
        raise ValueError(f"{max_doublings + 1} stages of {grid} points exceed "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    limit = dirac(1)
    rows = []
    for k in range(max_doublings + 1):
        n = 2**k
        if seed is None:
            d = gamma_mean_quantile_dist(n, grid)
        else:
            d = sampled_mean_dist(n, grid, seed + k)
        rows.append(LlnRow(n=n, es=expected_shortfall(d, alpha), kappa=kantorovich(d, limit)))
    return rows
