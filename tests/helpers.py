"""Shared random-instance generators for the test suite.

Everything is driven by an explicit ``random.Random`` so failures
reproduce; probability denominators are kept small so common refinements
stay well under the grid cap.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from divcert import JointDist, SimpleDist, UniformGrid, as_rational


def shift(d: SimpleDist, c) -> SimpleDist:
    """The law of d + c."""
    c = as_rational(c)
    return SimpleDist(tuple((v + c, p) for v, p in d.atoms))


def scale(d: SimpleDist, k) -> SimpleDist:
    """The law of k * d."""
    k = as_rational(k)
    return SimpleDist.from_pairs((v * k, p) for v, p in d.atoms)


def joint_from_pairs(pairs) -> JointDist:
    """Build a joint law from (vector, prob) pairs: converts, merges equal
    vectors, drops zero-probability atoms and sorts."""
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for vec, prob in pairs:
        p = as_rational(prob)
        if p < 0:
            raise ValueError("probabilities must be non-negative")
        if p == 0:
            continue
        v = tuple(map(as_rational, vec))
        merged[v] = merged.get(v, Fraction(0)) + p
    return JointDist.from_atoms(sorted(merged.items()))


def rand_fraction(rng: random.Random, span: int = 24, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_dist(
    rng: random.Random,
    max_atoms: int = 6,
    span: int = 24,
    max_den: int = 8,
    prob_weight_max: int = 6,
) -> SimpleDist:
    """Random distribution with small rational values and probabilities
    w_i / sum(w) for small integer weights."""
    k = rng.randint(1, max_atoms)
    values = {rand_fraction(rng, span, max_den) for _ in range(k)}
    weights = [rng.randint(1, prob_weight_max) for _ in values]
    total = sum(weights)
    return SimpleDist.from_pairs(
        (v, Fraction(w, total)) for v, w in zip(values, weights)
    )


def rand_grid(rng: random.Random, n: int, span: int = 24, max_den: int = 8) -> UniformGrid:
    return UniformGrid.from_values([rand_fraction(rng, span, max_den) for _ in range(n)])


def rand_dist_on_denominator(
    rng: random.Random,
    prob_den: int = 12,
    max_atoms: int = 6,
    span: int = 24,
    max_den: int = 8,
) -> SimpleDist:
    """Random distribution whose probabilities all sit on k/prob_den, so
    common refinements stay at or below prob_den slots."""
    k = rng.randint(1, min(max_atoms, prob_den))
    cuts = sorted(rng.sample(range(1, prob_den), k - 1)) if k > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [prob_den])]
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(rand_fraction(rng, span, max_den))
    return SimpleDist.from_pairs(
        (v, Fraction(w, prob_den)) for v, w in zip(sorted(values), parts)
    )


def mps_pair(
    rng: random.Random,
    base_atoms: int = 8,
    max_doublings: int = 3,
    span: int = 32,
    spread_den: int = 8,
) -> tuple[SimpleDist, SimpleDist]:
    """(xi, eta) with equal means and xi second-order dominating eta.

    xi sits on a uniform grid of up to `base_atoms` slots; eta is built by
    repeatedly splitting every slot into two copies at +/- a random
    spread, which adds conditionally-mean-zero noise, so each round is a
    mean-preserving spread.  Common refinements stay at or below
    base_atoms * 2**max_doublings slots.
    """
    n0 = rng.randint(1, base_atoms)
    doublings = rng.randint(0, max_doublings)
    return spread_pair(rng, n0, doublings, span, spread_den)


def spread_pair(
    rng: random.Random,
    n0: int,
    doublings: int,
    span: int = 32,
    spread_den: int = 8,
) -> tuple[SimpleDist, SimpleDist]:
    """The spread pair of `mps_pair` with its size fixed: xi on `n0`
    slots, eta split `doublings` times, so refinements have at most
    n0 * 2**doublings slots."""
    xi_vals = sorted(rand_fraction(rng, span, 4) for _ in range(n0))
    eta_vals = list(xi_vals)
    for _ in range(doublings):
        spread = []
        for v in eta_vals:
            if rng.random() < 0.7:
                s = Fraction(rng.randint(0, 2 * spread_den), spread_den)
                spread.extend([v - s, v + s])
            else:
                spread.extend([v, v])
        eta_vals = spread
    xi = UniformGrid.from_values(xi_vals).dist
    eta = UniformGrid.from_values(sorted(eta_vals)).dist
    return xi, eta


def equal_mean_pair(rng: random.Random, **kwargs) -> tuple[SimpleDist, SimpleDist]:
    """Random pair sharing a mean: a spread pair half the time (dominance
    then holds), otherwise an independent pair with one side translated
    (dominance usually fails)."""
    if rng.random() < 0.5:
        return mps_pair(rng, **kwargs)
    a = rand_dist(rng, max_den=4)
    b = rand_dist(rng, max_den=4)
    return a, shift(b, a.mean() - b.mean())


def ssd_unequal_mean_pair(rng: random.Random) -> tuple[SimpleDist, SimpleDist]:
    """xi second-order dominates eta with mean(xi) > mean(eta): a spread
    pair with xi shifted up."""
    xi, eta = mps_pair(rng, base_atoms=6, max_doublings=2)
    lift = Fraction(rng.randint(1, 16), 4)
    return shift(xi, lift), eta


def rand_joint(
    rng: random.Random, max_coords: int = 4, max_atoms: int = 8, span: int = 12
) -> JointDist:
    m = rng.randint(1, max_coords)
    k = rng.randint(1, max_atoms)
    vectors = {
        tuple(rand_fraction(rng, span, 4) for _ in range(m)) for _ in range(k)
    }
    weights = [rng.randint(1, 5) for _ in vectors]
    total = sum(weights)
    return joint_from_pairs(
        (vec, Fraction(w, total)) for vec, w in zip(vectors, weights)
    )


def _integer_rows(vectors, factor: int = 2) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The exact numbers in `vectors` (Fractions, ints or rational strings)
    as integer rows over one denominator, `factor` times the least one."""
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    den = factor * math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in rows), den


def integer_view(matrix, factor: int = 2):
    """The integer way into MartingaleCoupling: each row of `matrix` as the
    pair (cols, nums) of its nonzero cells, over one denominator `factor`
    times the least one, which the constructor must cancel.  A row whose
    length is not the number of rows is paired with every column, as
    `MartingaleCoupling.from_matrix` pairs it, so it is refused as not
    square."""
    rows, den = _integer_rows(matrix, factor)
    n = len(rows)
    cells = tuple(
        (tuple(j for j, x in enumerate(row) if x), tuple(x for x in row if x))
        if len(row) == n
        else (range(n), row)
        for row in rows
    )
    return cells, den


def joint_from_integers(atoms, factor: int = 2) -> JointDist:
    """The joint law of (vector, probability) pairs, built through its
    integer constructor."""
    rows, vden = _integer_rows([vec for vec, _ in atoms], factor)
    (masses,), pden = _integer_rows([[p for _, p in atoms]], factor)
    return JointDist(rows, vden, masses, pden)


def rand_simplex_weights(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(0, 5) for _ in range(m)]
    if sum(raw) == 0:
        raw[rng.randrange(m)] = 1
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)
