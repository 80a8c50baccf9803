"""Exact finite distributions on the rationals.

All values and probabilities are exact rationals: instances of
:class:`fractions.Fraction`, or in a joint law integers over one common
denominator.  Every operation here is exact, so equality of canonical
distributions is equality of the distributions themselves.  No floating point enters the
core: machine reals are converted to their exact binary value on ingest
and decimal strings parse as exact decimal fractions.

Sums over many rationals run on one common integer scale: each vector of
Fractions is brought to its least common denominator (`common_scale`),
the sums, merges and comparisons run on the integer numerators, and
Fractions are made only for the final result.  A Fraction sum would
normalize by a gcd at every step and hash every value it merges.

A joint law holds its atoms as one such integer view (`JointDist`): the
vectors as numerators over one denominator, the masses over another,
both the least.  certify builds it from integers and the parser from
Fractions, scaled once; one validator checks the integers either way.
Both sides of the diversification definition, the law of sum_i w_i X_i
and the mixture of the marginals, are folds over that view and a weight
vector (`JointDist._on_scale`): the weights are validated and scaled
once (`_simplex_scale`), and no cell is read as a Fraction.  The folds
run over runs of equal adjacent cells (`_runs`): each atom's vector is
cut into its runs once per joint law, and the cut is kept
(`JointDist.run_starts`), since it does not depend on the weights; the
bundle writer reads the same cut and writes each run as one repeated
string.  A run's weight is a difference of the weights' prefix sums,
and both folds then cost per run, not per cell.  A zero weight needs no
case of its own: it adds nothing to a run's weight, and a value that
only runs of weight 0 reach gets mass 0 in the mixture, which drops it.
A certificate's joint law is almost constant along its terms: on the
n = 64 pairs of the certify benchmark, a vector of about 180 cells holds
about 8.3 runs.  A vector with no two neighbours equal is the worst
case, every cell a run of its own, where the cut is pure overhead.

A uniform grid is a law on n equally likely slots (`UniformGrid`): its
state is the law and n, and every probability must be a multiple of
1/n.  The n slot values are derived from them.  Integer consumers (the
transfer chain, the majorization scan, the lift, the certificate's joint
law and the div-1 verifier) read them through `_slot_scale`, which
scales each distinct value once and repeats its numerator over the
atom's slots; the Fraction `values` are built only on first use.

`as_rational` keeps no memo of the strings it has parsed, though a parsed
bundle repeats a few values thousands of times: in a prototype, a
per-document memo raised the audit benchmark's ops/s by about 90 % but
also its peak RSS by 10 %, the bound of that metric.

Two walkers are the only code that steps through two distributions
together: `quantile_steps` over the merged cumulative probabilities,
`cdf_steps` over the merged atom values.  Risk, transport and dominance
fold over them; a law has no distribution-function or quantile method
of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter, mul, ne, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

#: Default slot cap of common_refinement, and so of `divcert check
#: majorization` and lift_delta_gamma, whose work is linear in the slots:
#: the lcm of the probability denominators is what blows up.
#: The certificate constructions write n x n text and use the far lower
#: certify.CERTIFY_SLOT_CAP.
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
    """Raised when a uniform-grid refinement would exceed the atom cap, or
    a certificate's transfer product its denominator bound."""


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
    if type(x) is str and x.isascii():
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
    if isinstance(x, Fraction):
        return x
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


def _scale_rows(vectors: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Numerators of every rational in `vectors` over their least common
    denominator, split into rows of the vectors' own lengths, and that
    denominator."""
    nums, den = common_scale(list(chain.from_iterable(vectors)))
    flat = iter(nums)
    return tuple(tuple(islice(flat, len(vec))) for vec in vectors), den


def _least_scale(rows: Sequence[Sequence[int]], den: int) -> tuple[Sequence[Sequence[int]], int]:
    """rows/den over the least denominator: any factor that `den` shares
    with every numerator cancels."""
    g = den
    for row in rows:
        g = math.gcd(g, *row)
        if g == 1:  # most often after the first row
            return rows, den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _simplex_scale(weights: Sequence, size: int) -> tuple[list[int], int]:
    """Validate a weight vector of `size` entries (each >= 0, exact sum 1)
    and return its numerators over their least common denominator, and
    that denominator."""
    ws = list(map(as_rational, weights))
    if len(ws) != size:
        raise ValueError(f"expected {size} weights, got {len(ws)}")
    nums, den = common_scale(ws)
    if any(x < 0 for x in nums):
        raise ValueError("weights must be non-negative")
    if sum(nums) != den:
        raise ValueError("weights must sum to exactly 1")
    return nums, den


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
            q = merged.get(v)
            merged[v] = p if q is None else q + p
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
    """A law on n equally likely slots: `dist` seen at resolution 1/n.

    Every probability of `dist` must be a multiple of 1/n, so an atom of
    probability k/n fills k slots.  The state is the pair (dist, n), so
    equal grids are equal objects.  The slot view is derived: `values`,
    the n slot values sorted non-decreasing as Fractions, is built on
    first use, and `_slot_scale` gives integer consumers the slot values
    as numerators without it.
    """

    dist: SimpleDist
    n: int

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("grid size must be positive")
        if any(n % p.denominator for p in self.dist.probs):
            raise ValueError(f"distribution does not fit on a grid of {n} slots")

    @staticmethod
    def from_values(values: Iterable) -> "UniformGrid":
        """The grid of one slot per value."""
        values = list(values)
        if not values:
            raise ValueError("a grid needs at least one value")
        return UniformGrid(from_samples(values), len(values))

    def _counts(self) -> list[int]:
        """The slots of each atom of `dist`."""
        n = self.n
        return [n // p.denominator * p.numerator for p in self.dist.probs]

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(chain.from_iterable(map(repeat, self.dist.values, self._counts())))


def _slot_scale(*grids: UniformGrid) -> tuple[list[list[int]], int]:
    """The slot values of `grids` as integer numerators over their least
    common denominator, one row per grid, and that denominator.  Each
    distinct value is scaled once and its numerator repeated over its
    slots, so no slot becomes a Fraction."""
    rows, den = _scale_rows([g.dist.values for g in grids])
    return [
        list(chain.from_iterable(map(repeat, row, g._counts()))) for row, g in zip(rows, grids)
    ], den


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


def common_refinement(
    a: SimpleDist, b: SimpleDist, cap: int = DEFAULT_GRID_CAP
) -> tuple[UniformGrid, UniformGrid]:
    """Uniform grids of a shared size representing `a` and `b` exactly."""
    n = _grid_size(a.probs + b.probs, cap)
    return UniformGrid(a, n), UniformGrid(b, n)


def mixture(ds: Sequence[SimpleDist], weights: Sequence) -> SimpleDist:
    """Probabilistic mixture: P(x) = sum_i w_i P_i(x).

    Zero-weight components drop out entirely.
    """
    wnums, wden = _simplex_scale(weights, len(ds))
    atoms = [(atom, wn) for d, wn in zip(ds, wnums) if wn for atom in d.atoms]
    vnums, vden = common_scale([v for (v, _), _ in atoms])
    pnums, pden = common_scale([p for (_, p), _ in atoms])
    mass: dict[int, int] = {}
    for k, pn, (_, wn) in zip(vnums, pnums, atoms):
        mass[k] = mass.get(k, 0) + wn * pn
    return _dist_on_scale(mass, vden, wden * pden)


@dataclass(frozen=True)
class JointDist:
    """Finite joint distribution of m real coordinates.

    Atoms are (vector, probability) pairs with distinct vectors sorted
    lexicographically, probabilities positive and summing to 1.  They are
    held as one integer view: coordinate j of atom a is rows[a][j] / vden
    and the atom's probability masses[a] / pden, over the least such
    denominators, so equal laws are equal objects however they were built.
    The constructor takes that view; `from_atoms` takes canonical Fraction
    atoms and scales them once.  `atoms` is the Fraction view.
    """

    rows: tuple[tuple[int, ...], ...]
    vden: int
    masses: tuple[int, ...]
    pden: int

    def __post_init__(self):
        rows, masses = self.rows, self.masses
        if not rows:
            raise ValueError("a joint distribution needs at least one atom")
        m = len(rows[0])
        if m < 1:
            raise ValueError("joint distributions need at least one coordinate")
        if len(masses) != len(rows) or self.vden < 1 or self.pden < 1:
            raise ValueError("a joint needs one mass per atom and positive denominators")
        prev = None
        for row, mass in zip(rows, masses):
            if len(row) != m:
                raise ValueError("all atom vectors must share the same length")
            if mass <= 0:
                raise ValueError("probabilities must be positive")
            if prev is not None and row <= prev:
                raise ValueError("atom vectors must be distinct and sorted")
            prev = row
        total = sum(masses)
        if total != self.pden:
            raise ValueError(f"probabilities sum to {Fraction(total, self.pden)}, not 1")
        rows, vden = _least_scale(rows, self.vden)
        (masses,), pden = _least_scale((masses,), self.pden)
        for name, value in ("rows", rows), ("vden", vden), ("masses", masses), ("pden", pden):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_atoms(atoms: Sequence[tuple[Sequence[Fraction], Fraction]]) -> "JointDist":
        """The joint law of canonical (vector, probability) Fraction pairs."""
        rows, vden = _scale_rows([vec for vec, _ in atoms])
        masses, pden = common_scale([p for _, p in atoms])
        return JointDist(rows, vden, tuple(masses), pden)

    @cached_property
    def atoms(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        vden, pden = self.vden, self.pden
        return tuple(
            (tuple(Fraction(x, vden) for x in row), Fraction(mass, pden))
            for row, mass in zip(self.rows, self.masses)
        )

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def marginal(self, i: int) -> SimpleDist:
        """Distribution of coordinate i (0-based)."""
        if not 0 <= i < self.m:
            raise IndexError(f"coordinate {i} out of range for m={self.m}")
        return SimpleDist.from_pairs((vec[i], p) for vec, p in self.atoms)

    def marginals(self) -> tuple[SimpleDist, ...]:
        return tuple(self.marginal(i) for i in range(self.m))

    @cached_property
    def run_starts(self) -> tuple[list[int], ...]:
        """Where each run of equal adjacent cells starts, per atom vector:
        each vector is cut once, for every weight vector and the writer."""
        return tuple(map(_run_starts, self.rows))

    def _on_scale(self, weights: Sequence) -> "_ScaledJoint":
        """Validate `weights` and fold each atom's vector over its runs of
        equal adjacent cells (`_runs` on `run_starts`), on the one integer
        scale of the check; no cell is rescaled."""
        wnums, wden = _simplex_scale(weights, self.m)
        cum = list(accumulate(wnums, initial=0))
        runs = list(map(_runs, self.rows, repeat(cum), self.run_starts))
        return _ScaledJoint(runs, self.vden, wden, self.masses, self.pden)


def _run_starts(cells: Sequence[int]) -> list[int]:
    """The index where each run of equal adjacent entries of `cells`
    starts, found in one C-level pass."""
    return [0, *compress(range(1, len(cells)), map(ne, cells, cells[1:]))]


def _runs(
    cells: Sequence[int], cum: Sequence[int], starts: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The runs of equal adjacent entries of `cells`, which start at
    `starts` (`_run_starts(cells)`): the value of each run and its weight
    cum[end] - cum[start], where cum holds the prefix sums of the cells'
    weights (cum[0] == 0, one more entry than `cells`).  Per run only."""
    bounds = list(map(cum.__getitem__, starts))
    bounds.append(cum[len(cells)])
    return list(map(cells.__getitem__, starts)), list(map(sub, bounds[1:], bounds))


class _ScaledJoint(NamedTuple):
    """A joint law on integer scales, its atoms cut into runs: atom a is
    runs[a] = (values, weights), one entry per run of equal adjacent cells,
    the run's value values[r] / vden and its summed weight weights[r] / wden
    (0 for a run of zero-weight cells); the atom's probability is
    pnums[a] / pden.  Both sides of the diversification definition are
    folds over the runs, so they cost per run, not per cell."""

    runs: list[tuple[list[int], list[int]]]
    vden: int
    wden: int
    pnums: Sequence[int]
    pden: int

    def convex_combination(self) -> SimpleDist:
        """Law of sum_i w_i X_i: one integer dot product per atom, over its
        runs' values and weights."""
        mass: dict[int, int] = {}
        for (values, weights), pn in zip(self.runs, self.pnums):
            s = sum(map(mul, values, weights))
            mass[s] = mass.get(s, 0) + pn
        return _dist_on_scale(mass, self.wden * self.vden, self.pden)

    def mixture(self) -> SimpleDist:
        """Law of X_K for K ~ weights: each run of an atom of probability p
        adds its weight times p at its value.  A value that only runs of
        weight 0 reach gets mass 0 and is dropped."""
        mass: dict[int, int] = {}
        for (values, weights), pn in zip(self.runs, self.pnums):
            for k, w in zip(values, weights):
                mass[k] = mass.get(k, 0) + pn * w
        live = {k: x for k, x in mass.items() if x}
        return _dist_on_scale(live, self.vden, self.wden * self.pden)


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
