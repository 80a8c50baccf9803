"""Exact finite distributions on the rationals.

All values and probabilities are :class:`fractions.Fraction`; every
operation here is exact, so equality of canonical distributions is
equality of the distributions themselves.  No floating point enters the
core: machine reals are converted to their exact binary value on ingest
and decimal strings parse as exact decimal fractions.

Sums over many rationals run on one common integer scale: each vector of
Fractions is brought to its least common denominator (`common_scale`),
the sums, merges and comparisons run on the integer numerators, and
Fractions are made only for the final result.  A Fraction sum would
normalize by a gcd at every step and hash every value it merges.

Both sides of the diversification definition, the law of sum_i w_i X_i
and the mixture of the marginals, are folds over one integer view of a
joint law and a weight vector (`JointDist._on_scale`): the weights are
validated once, and each cell's numerator and denominator are read once.
The view reads cells by value and keys nothing on identity or hash.  A
joint that certify builds shares one Fraction object per value among its
cells, but a parsed one shares none, so a memo keyed on id() only adds a
dict insert per cell there; and hashing the cells costs more than the
whole view.  For the 11,200 cells of an n = 64 certificate (2-core
x86-64, Python 3.11), a set of them takes 6 ms to build when built and
13 ms when parsed; reading every numerator and denominator takes 1.6 ms,
and the whole view about 3 ms.

`as_rational` keeps no memo of the strings it has parsed, though a parsed
bundle repeats a few values thousands of times: in a prototype, a
per-document memo raised the audit benchmark's ops/s by about 90 % but
also its peak RSS by 10 %, the bound of that metric.

Two walkers are the only code that steps through two distributions
together: `quantile_steps` over the merged cumulative probabilities,
`cdf_steps` over the merged atom values.  Risk, transport and dominance
fold over them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, gt, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

#: Default slot cap of expand_to_uniform_grid and common_refinement, and so
#: of `divcert check majorization` and lift_delta_gamma, whose work is linear
#: in the slots: the lcm of the probability denominators is what blows up.
#: The certificate constructions hold n x n integers and default to the far
#: lower certify.CERTIFY_SLOT_CAP.
DEFAULT_GRID_CAP = 10**6

#: as_rational refuses decimal strings whose exponent exceeds this in
#: magnitude.  It equals CPython's default limit on the digits of an int
#: string, which already caps the mantissa; "1e-5000" is seven characters
#: but a 16,610-bit denominator, and the parse time grows about 49-fold
#: per decade of the exponent.
MAX_DECIMAL_EXPONENT = 4300

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class GridCapError(ValueError):
    """Raised when a uniform-grid refinement would exceed the atom cap."""


def as_rational(x) -> Fraction:
    """Convert `x` to an exact Fraction.

    Accepts Fractions, ints, strings ("p/q" or decimal, both parsed
    exactly, with a decimal exponent of at most MAX_DECIMAL_EXPONENT in
    magnitude) and finite floats (converted from their exact binary value,
    not re-parsed through decimal text).  Booleans are not numbers here.

    A string is read in one of two ways, with the same result.  The
    canonical "p/q" or integer text that ``str(Fraction)`` writes (ASCII
    digits, an optional leading "-", an optional "/" and a denominator that
    is not zero) is read with int(), without Fraction's regex.  Every other
    string is checked against the exponent bound and then parsed by
    ``Fraction(str)``, with a zero denominator reported as a ValueError.
    The accepted forms, their values and the error for each rejected
    string are those of this second way alone.
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is str and x.isascii():
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
    if isinstance(x, bool):
        raise TypeError(f"cannot convert bool {x!r} to a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            _, _, exponent = x.lower().rpartition("e")
            try:
                too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
            except ValueError:  # no exponent: Fraction reports the syntax
                too_large = False
            if too_large:
                raise ValueError(
                    f"decimal exponent of {x!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite value {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to a rational")


def common_scale(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of the rationals `xs` over their least common denominator,
    and that denominator: x_i == nums[i] / den for every i."""
    dens = list(map(_denominator, xs))
    den = math.lcm(*set(dens))
    return list(map(mul, map(_numerator, xs), map(den.__floordiv__, dens))), den


def simplex_weights(weights: Sequence, size: int | None = None) -> tuple[Fraction, ...]:
    """Validate and convert a weight vector: entries >= 0, exact sum 1."""
    ws = tuple(as_rational(w) for w in weights)
    if size is not None and len(ws) != size:
        raise ValueError(f"expected {size} weights, got {len(ws)}")
    nums, den = common_scale(ws)
    if any(x < 0 for x in nums):
        raise ValueError("weights must be non-negative")
    if sum(nums) != den:
        raise ValueError("weights must sum to exactly 1")
    return ws


def _dist_on_scale(mass: dict[int, int], vden: int, pden: int) -> SimpleDist:
    """The distribution with probability mass[k]/pden at each value k/vden."""
    return SimpleDist(
        tuple((Fraction(k, vden), Fraction(mass[k], pden)) for k in sorted(mass))
    )


@dataclass(frozen=True)
class SimpleDist:
    """Canonical finite distribution on the rationals.

    `atoms` holds (value, probability) pairs with strictly increasing
    values, all probabilities positive and summing to exactly 1.  The
    canonical form makes structural equality coincide with equality in
    distribution.  Instances are immutable; build them with
    :meth:`from_pairs` unless the input is already canonical.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a distribution needs at least one atom")
        prev = None
        for value, prob in self.atoms:
            if not isinstance(value, Fraction) or not isinstance(prob, Fraction):
                raise ValueError("atoms must hold Fraction pairs; use from_pairs()")
            if prob <= 0:
                raise ValueError("probabilities must be positive")
            if prev is not None and value <= prev:
                raise ValueError("values must be strictly increasing")
            prev = value
        nums, den = common_scale([p for _, p in self.atoms])
        if sum(nums) != den:
            raise ValueError(f"probabilities sum to {Fraction(sum(nums), den)}, not 1")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple]) -> "SimpleDist":
        """Build from (value, prob) pairs: converts, merges equal values,
        drops zero-probability atoms and sorts."""
        merged: dict[Fraction, Fraction] = {}
        for value, prob in pairs:
            v = as_rational(value)
            p = as_rational(prob)
            if p < 0:
                raise ValueError("probabilities must be non-negative")
            if p == 0:
                continue
            merged[v] = merged.get(v, Fraction(0)) + p
        return SimpleDist(tuple(sorted(merged.items())))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def mean(self) -> Fraction:
        return sum((v * p for v, p in self.atoms), Fraction(0))

    def cdf(self, x) -> Fraction:
        """P(value < x) - the left-continuous distribution function."""
        x = as_rational(x)
        return sum((p for v, p in self.atoms if v < x), Fraction(0))

    def quantile(self, u) -> Fraction:
        """Lower quantile inf{x : P(value < x or value = x) >= u}, u in (0, 1]."""
        u = as_rational(u)
        if not 0 < u <= 1:
            raise ValueError(f"quantile level must lie in (0, 1], got {u}")
        cum = Fraction(0)
        for value, prob in self.atoms:
            cum += prob
            if cum >= u:
                return value
        raise AssertionError("unreachable: probabilities sum to 1")

    def shift(self, c) -> "SimpleDist":
        c = as_rational(c)
        return SimpleDist(tuple((v + c, p) for v, p in self.atoms))

    def scale(self, k) -> "SimpleDist":
        k = as_rational(k)
        if k == 0:
            return dirac(0)
        return SimpleDist.from_pairs((v * k, p) for v, p in self.atoms)


def quantile_steps(a: SimpleDist, b: SimpleDist) -> Iterator[tuple[Fraction, ...]]:
    """Yield (level, width, qa, qb) for each maximal interval
    (level - width, level] of (0, 1] on which the lower quantile functions
    of `a` and `b` are constant, equal to qa and qb, in increasing order;
    the last level is 1."""
    qa, ca = a.atoms[0]
    qb, cb = b.atoms[0]
    ia = ib = 0
    prev = Fraction(0)
    while True:
        level = ca if ca <= cb else cb
        yield level, level - prev, qa, qb
        if level == 1:
            return
        prev = level
        if ca == level:
            ia += 1
            qa, p = a.atoms[ia]
            ca += p
        if cb == level:
            ib += 1
            qb, p = b.atoms[ib]
            cb += p


def cdf_steps(a: SimpleDist, b: SimpleDist) -> Iterator[tuple[Fraction, ...]]:
    """Yield (v, P(a <= v), P(b <= v)) at every atom value v of `a` or `b`,
    in increasing order; both CDFs are constant up to the next v."""
    atoms_a, atoms_b = a.atoms, b.atoms
    ia = ib = 0
    fa = fb = Fraction(0)
    for v in sorted(set(a.values).union(b.values)):
        if ia < len(atoms_a) and atoms_a[ia][0] == v:
            fa += atoms_a[ia][1]
            ia += 1
        if ib < len(atoms_b) and atoms_b[ib][0] == v:
            fb += atoms_b[ib][1]
            ib += 1
        yield v, fa, fb


def dirac(value) -> SimpleDist:
    """Point mass at `value`."""
    return SimpleDist(((as_rational(value), Fraction(1)),))


def from_samples(xs: Sequence) -> SimpleDist:
    """Empirical distribution of the samples, each with weight 1/N."""
    xs = list(xs)
    if not xs:
        raise ValueError("cannot build a distribution from no samples")
    w = Fraction(1, len(xs))
    return SimpleDist.from_pairs((x, w) for x in xs)


@dataclass(frozen=True)
class UniformGrid:
    """n equally likely values (probability 1/n each), sorted non-decreasing.

    Repeats are allowed; the grid is the slot-level view of a distribution
    whose probabilities all have denominator dividing n.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = self.values
        if not values:
            raise ValueError("a grid needs at least one value")
        if all(map(isinstance, values, repeat(Fraction))):
            nums, _ = common_scale(values)
            if any(map(gt, nums, nums[1:])):
                raise ValueError("grid values must be sorted non-decreasing")
            return
        # some value is no Fraction: check the order first, by the values'
        # own comparisons (a TypeError where they do not compare), then the type
        for prev, cur in zip(values, values[1:]):
            if cur < prev:
                raise ValueError("grid values must be sorted non-decreasing")
        raise ValueError("grid values must be Fractions")

    @staticmethod
    def from_values(values: Iterable) -> "UniformGrid":
        return UniformGrid(tuple(sorted(as_rational(v) for v in values)))

    @property
    def n(self) -> int:
        return len(self.values)

    def to_dist(self) -> SimpleDist:
        w = Fraction(1, self.n)
        return SimpleDist.from_pairs((v, w) for v in self.values)

    def mean(self) -> Fraction:
        return Fraction(sum(self.values), self.n)


def regrid(d: SimpleDist, n: int) -> UniformGrid:
    """Represent `d` on a uniform grid of exactly n slots.

    Each atom must carry probability k/n for integer k; otherwise the
    distribution is not representable at this resolution and ValueError
    is raised.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    values: list[Fraction] = []
    for value, prob in d.atoms:
        count = prob * n
        if count.denominator != 1:
            raise ValueError(f"distribution does not fit on a grid of {n} slots")
        values.extend([value] * int(count))
    return UniformGrid(tuple(values))


def _grid_size(probs: Sequence[Fraction], cap: int) -> int:
    """Slots of the smallest uniform grid carrying every probability in
    `probs` exactly (the lcm of their denominators), refused above `cap`."""
    n = math.lcm(*(p.denominator for p in probs))
    if n > cap:
        raise GridCapError(
            f"uniform refinement needs {n} atoms, above the cap of {cap}; "
            "quantize the probabilities to a coarser denominator first"
        )
    return n


def expand_to_uniform_grid(d: SimpleDist, cap: int = DEFAULT_GRID_CAP) -> UniformGrid:
    """Smallest uniform-grid representation of `d` (n = lcm of probability
    denominators).  Refuses grids above `cap` atoms; quantize the
    probabilities first if that happens."""
    return regrid(d, _grid_size(d.probs, cap))


def common_refinement(
    a: SimpleDist, b: SimpleDist, cap: int = DEFAULT_GRID_CAP
) -> tuple[UniformGrid, UniformGrid]:
    """Uniform grids of a shared size representing `a` and `b` exactly."""
    n = _grid_size(a.probs + b.probs, cap)
    return regrid(a, n), regrid(b, n)


def mixture(ds: Sequence[SimpleDist], weights: Sequence) -> SimpleDist:
    """Probabilistic mixture: P(x) = sum_i w_i P_i(x).

    Zero-weight components drop out entirely.
    """
    ws = simplex_weights(weights, len(ds))
    live = [(d, w) for d, w in zip(ds, ws) if w]
    wnums, wden = common_scale([w for _, w in live])
    atoms = [atom for d, _ in live for atom in d.atoms]
    vden = math.lcm(*{v.denominator for v, _ in atoms})
    pden = math.lcm(*{p.denominator for _, p in atoms})
    mass: dict[int, int] = {}
    for (d, _), wn in zip(live, wnums):
        for v, p in d.atoms:
            k = v.numerator * (vden // v.denominator)
            mass[k] = mass.get(k, 0) + wn * p.numerator * (pden // p.denominator)
    return _dist_on_scale(mass, vden, wden * pden)


@dataclass(frozen=True)
class JointDist:
    """Finite joint distribution of m real coordinates.

    Atoms are (vector, probability) pairs with distinct vectors sorted
    lexicographically, probabilities positive and summing to 1.
    """

    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a joint distribution needs at least one atom")
        m = len(self.atoms[0][0])
        if m < 1:
            raise ValueError("joint distributions need at least one coordinate")
        total = Fraction(0)
        prev = None
        for vec, prob in self.atoms:
            if len(vec) != m:
                raise ValueError("all atom vectors must share the same length")
            if prob <= 0:
                raise ValueError("probabilities must be positive")
            if prev is not None and vec <= prev:
                raise ValueError("atom vectors must be distinct and sorted")
            prev = vec
            total += prob
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple]) -> "JointDist":
        # sort-and-merge rather than a dict: vectors can be long, and
        # comparing them short-circuits where hashing cannot
        converted = []
        for vec, prob in pairs:
            p = as_rational(prob)
            if p < 0:
                raise ValueError("probabilities must be non-negative")
            if p == 0:
                continue
            converted.append((tuple(map(as_rational, vec)), p))
        converted.sort(key=lambda pair: pair[0])
        merged: list[tuple[tuple[Fraction, ...], Fraction]] = []
        for vec, p in converted:
            if merged and merged[-1][0] == vec:
                merged[-1] = (vec, merged[-1][1] + p)
            else:
                merged.append((vec, p))
        return JointDist(tuple(merged))

    @property
    def m(self) -> int:
        return len(self.atoms[0][0])

    def marginal(self, i: int) -> SimpleDist:
        """Distribution of coordinate i (0-based)."""
        if not 0 <= i < self.m:
            raise IndexError(f"coordinate {i} out of range for m={self.m}")
        return SimpleDist.from_pairs((vec[i], p) for vec, p in self.atoms)

    def marginals(self) -> tuple[SimpleDist, ...]:
        return tuple(self.marginal(i) for i in range(self.m))

    def mixture_of_marginals(self, weights: Sequence) -> SimpleDist:
        """The law of X_K for an index K ~ weights drawn apart from X.

        Equal to ``mixture(self.marginals(), weights)``, computed in one
        pass over the atoms without building the m marginals:
        P(x) = sum over atoms (vec, p) of p * sum_{i: vec_i = x} w_i.
        """
        return self._on_scale(weights).mixture()

    def _on_scale(self, weights: Sequence) -> "_ScaledJoint":
        """Validate `weights` and bring them, the probabilities and every
        coordinate with positive weight to integer scales.  Each cell's
        numerator and denominator are read once, by value: the cells of a
        parsed joint are distinct objects even where their values repeat."""
        ws = simplex_weights(weights, self.m)
        live = [i for i, w in enumerate(ws) if w]
        wnums, wden = common_scale([ws[i] for i in live])
        pnums, pden = common_scale([p for _, p in self.atoms])
        if len(live) == len(ws):
            vecs = [vec for vec, _ in self.atoms]
        else:
            vecs = [list(map(vec.__getitem__, live)) for vec, _ in self.atoms]
        cells, vden = common_scale(list(chain.from_iterable(vecs)))
        width = len(live)
        rows = [cells[start:start + width] for start in range(0, len(cells), width)]
        return _ScaledJoint(rows, vden, wnums, wden, pnums, pden)


class _ScaledJoint(NamedTuple):
    """A joint law restricted to the coordinates of positive weight, on
    integer scales: cell j of atom a is rows[a][j] / vden, its coordinate's
    weight is wnums[j] / wden and the atom's probability pnums[a] / pden.
    Both sides of the diversification definition are folds over it."""

    rows: list[list[int]]
    vden: int
    wnums: list[int]
    wden: int
    pnums: list[int]
    pden: int

    def convex_combination(self) -> SimpleDist:
        """Law of sum_i w_i X_i: one integer dot product per atom."""
        wnums = self.wnums
        mass: dict[int, int] = {}
        for row, pn in zip(self.rows, self.pnums):
            s = sum(map(mul, wnums, row))
            mass[s] = mass.get(s, 0) + pn
        return _dist_on_scale(mass, self.wden * self.vden, self.pden)

    def mixture(self) -> SimpleDist:
        """Law of X_K for K ~ weights: cell i of an atom of probability p
        adds w_i * p at its value.  Atoms of equal probability share one sum
        of weights per value, multiplied by p once."""
        wnums = self.wnums
        by_prob: defaultdict[int, defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
        for row, pn in zip(self.rows, self.pnums):
            weight_at = by_prob[pn]
            for k, wn in zip(row, wnums):
                weight_at[k] += wn
        mass: defaultdict[int, int] = defaultdict(int)
        for pn, weight_at in by_prob.items():
            for k, wsum in weight_at.items():
                mass[k] += pn * wsum
        return _dist_on_scale(mass, self.vden, self.wden * self.pden)


def convex_combination(j: JointDist, weights: Sequence) -> SimpleDist:
    """Distribution of the scalar sum_i w_i X_i under the joint law `j`."""
    return j._on_scale(weights).convex_combination()


def quantize_values(d: SimpleDist, q: int) -> SimpleDist:
    """Round every value to the nearest multiple of 1/q, ties toward -inf.

    Moves each atom by at most 1/(2q), so the transport distance to the
    original is at most 1/(2q).
    """
    if q < 1:
        raise ValueError("quantization denominator must be a positive integer")
    pairs = []
    half = Fraction(1, 2)
    for value, prob in d.atoms:
        k = math.ceil(value * q - half)
        pairs.append((Fraction(k, q), prob))
    return SimpleDist.from_pairs(pairs)
