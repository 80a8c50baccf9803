"""Decision procedures for stochastic dominance, the witness types and
certificate checking.

Every order relation is decided the same way, exactly: one scan returns
its first witness, or None when the relation holds, and each `check_*`
is that scan's `is None`.  `fsd_violation` compares CDFs at the merged
atom values; `risk.ssd_violation` scans the quantile-gap integral at its
breakpoints and stops at the first positive gap;
`majorization_violation` keeps one running integer sum of prefix
excesses.  The witness types `TTransform`, `PermutationCertificate` and
`MartingaleCoupling` are defined here with every rule that makes them
valid; `certify` builds them, and this module imports nothing from
`certify`, so no check runs construction code.  The verifiers check
witnesses against their defining identities, again exactly: a
certificate that passes here is a proof.  The validators and verifiers
follow one idiom: each vector of Fractions (certificate weights, the
slot values a certificate combines) is brought to one common
denominator, sums and comparisons run on the integer numerators, and
Fractions are made only for a result or an error message.  A
certificate keeps its weights' integer view from its validator, as
prefix sums, for the div-1 verifier's slot-wise combination
(`PermutationCertificate._combine_on_scale`), and a joint law and a
coupling hold that integer view as their state (see `divcert.dist`), so
their checks, the convex combination of a joint law and the mixture of
its marginals read integers only.

Both verifiers fold over runs of equal adjacent cells, so they cost per
run, not per cell: `verify_div1_certificate` sums each slot over the
runs of equal sources in its column (perm_k[i])_k, and
`verify_div2_instance` folds both laws over the runs each joint vector
is cut into once, a cut the joint keeps (`JointDist.run_starts`).  Each
term of a Birkhoff peel moves the slots of few blocks of D, so a column
holds few runs: on the n = 64 pairs of the certify benchmark, about 8.7
of about 180 cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub
from typing import Iterator, Sequence

from .dist import (
    JointDist,
    SimpleDist,
    UniformGrid,
    _dist_on_scale,
    _least_scale,
    _run_starts,
    _runs,
    _slot_scale,
    cdf_steps,
    common_scale,
)
from .risk import ssd_violation


def fsd_violation(xi: SimpleDist, eta: SimpleDist) -> Fraction | None:
    """Smallest merged atom value v with P(xi <= v) > P(eta <= v), i.e. a
    point just above which F_xi exceeds F_eta; None when xi first-order
    dominates eta."""
    return next((v for v, f_xi, f_eta in cdf_steps(xi, eta) if f_xi > f_eta), None)


def check_fsd(xi: SimpleDist, eta: SimpleDist) -> bool:
    """True iff F_xi(x) <= F_eta(x) for all x.

    Both CDFs are step functions, so it suffices to compare just above
    every merged atom value.
    """
    return fsd_violation(xi, eta) is None


def check_ssd(xi: SimpleDist, eta: SimpleDist) -> bool:
    """True iff the integrated CDF of xi never exceeds that of eta,
    equivalently ES_alpha(xi) <= ES_alpha(eta) for every alpha in (0,1].

    Decided by scanning the quantile-gap integral at its breakpoints;
    both sides are piecewise linear, so the scan is exact and complete.
    """
    return ssd_violation(xi, eta) is None


def majorization_violation(a: UniformGrid, b: UniformGrid) -> int | None:
    """Smallest prefix length j (1-based) at which the ascending prefix sum
    of `b` exceeds that of `a`, or n when only the totals differ; None
    when `a` majorizes `b`.  One running sum of b - a over the integer
    numerators of both grids' slots on one common denominator."""
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    (anums, bnums), _ = _slot_scale(a, b)
    for j, excess in enumerate(accumulate(map(sub, bnums, anums)), start=1):
        if excess > 0:
            return j
    return a.n if excess else None


def check_majorization(a: UniformGrid, b: UniformGrid) -> bool:
    """True iff the grids have equal totals and every ascending prefix sum
    of `a` is at least that of `b`."""
    return majorization_violation(a, b) is None


@dataclass(frozen=True)
class TTransform:
    """Doubly stochastic transfer (1-s)*I + s*Q_ij mixing coordinates i<j."""

    i: int
    j: int
    s: Fraction

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError("need 0 <= i < j")
        if not 0 < self.s <= 1:
            raise ValueError("mixing share must lie in (0, 1]")


@dataclass(frozen=True)
class PermutationCertificate:
    """Convex combination of permutations witnessing a = sum_k w_k * (b o perm_k).

    `terms` holds (perm, weight) pairs; perm maps slot index to source
    index in the dominated grid (0-based).  Weights are positive and sum
    to exactly 1, and the term count never exceeds (n-1)^2 + 1.  The
    validator keeps the weights' integer view, the prefix sums of their
    numerators over one common denominator, for `_combine_on_scale`.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid size must be positive")
        if not self.terms:
            raise ValueError("a certificate needs at least one term")
        if len(self.terms) > (self.n - 1) ** 2 + 1:
            raise ValueError(
                f"{len(self.terms)} terms exceed the bound {(self.n - 1) ** 2 + 1}"
            )
        # the reference set costs O(n): build it only for a perm of length
        # n, so a short certificate claiming a huge n allocates nothing
        full = None
        nums, den = common_scale(self.weights)
        for (perm, _), num in zip(self.terms, nums):
            if len(perm) == self.n:
                full = full or frozenset(range(self.n))
            if len(perm) != self.n or frozenset(perm) != full:
                raise ValueError(f"{perm} is not a permutation of 0..{self.n - 1}")
            if num <= 0:
                raise ValueError("term weights must be positive")
        cum = list(accumulate(nums, initial=0))
        if cum[-1] != den:
            raise ValueError(f"term weights sum to {Fraction(cum[-1], den)}, not 1")
        object.__setattr__(self, "_weight_scale", (cum, den))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.terms)

    def _combine_on_scale(self, vnums: Sequence[int], vden: int) -> tuple[list[int], int]:
        """The slot-wise weighted combination sum_k w_k * v[perm_k[i]] of
        the n values v[i] = vnums[i] / vden, as numerators over one
        denominator.  Slot i folds over the runs of equal adjacent sources
        in its column (perm_k[i])_k, each run weighted by a difference of
        the weights' prefix sums."""
        cum, wden = self._weight_scale
        acc = []
        for column in zip(*(perm for perm, _ in self.terms)):
            sources, weights = _runs(column, cum, _run_starts(column))
            acc.append(sum(map(mul, map(vnums.__getitem__, sources), weights)))
        return acc, wden * vden


@dataclass(frozen=True)
class MartingaleCoupling:
    """Joint law on grid slots with uniform marginals and the martingale
    property: conditionally on each row slot, the column values average
    back to the row value exactly.

    Only the nonzero cells are held, as one integer view: row i is the
    pair (cols, nums) of its ascending columns and their numerators, so
    cell (i, cols[k]) is nums[k] / den, over the least such denominator,
    and every other cell is zero.  The constructor takes that view, and
    so does the parser (`serialize.coupling_from_obj`), which scales each
    distinct cell once.  `matrix` is the dense Fraction view."""

    n: int
    cells: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    den: int
    row_values: tuple[Fraction, ...]
    col_values: tuple[Fraction, ...]

    def __post_init__(self):
        n, cells, den = self.n, self.cells, self.den
        if n < 1:
            raise ValueError("grid size must be positive")
        if len(cells) != n or len(self.row_values) != n or len(self.col_values) != n:
            raise ValueError("matrix and value grids must all have size n")
        if den < 1:
            raise ValueError("the cell denominator must be positive")
        # column value v = vnum/vden: a row sums to 1/n iff n * sum(nums)
        # == den, and it averages back to its row value r iff
        # n * sum(num * vnum) == r * den * vden
        vnums, vden = common_scale(self.col_values)
        col_sums = [0] * n
        for i, ((cols, nums), r) in enumerate(zip(cells, self.row_values)):
            if len(cols) != len(nums):
                raise ValueError("matrix must be square")
            if min(nums, default=1) <= 0:
                if min(nums) < 0:
                    raise ValueError("entries must be non-negative")
                raise ValueError(f"row {i} lists a zero cell")
            last = -1
            moment = 0
            for j, x in zip(cols, nums):
                if not last < j < n:
                    if 0 <= j < n:
                        raise ValueError(f"the columns of row {i} must ascend strictly")
                    raise ValueError(f"row {i} has a column outside 0..{n - 1}")
                last = j
                col_sums[j] += x
                moment += x * vnums[j]
            row_sum = sum(nums)
            if row_sum * n != den:
                raise ValueError(f"row {i} sums to {Fraction(row_sum, den)}, not 1/{n}")
            if n * moment * r.denominator != r.numerator * den * vden:
                raise ValueError(f"martingale property fails on row {i}")
        if any(c * n != den for c in col_sums):
            raise ValueError(f"column sums must all be 1/{n}")
        scaled, least = _least_scale([nums for _, nums in cells], den)
        if least != den:
            cells = tuple((cols, row) for (cols, _), row in zip(cells, scaled))
            object.__setattr__(self, "cells", cells)
            object.__setattr__(self, "den", least)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        zero = Fraction(0)  # most cells of a large coupling
        return tuple(map(tuple, self._dense_rows(zero, lambda x: Fraction(x, den))))

    def _dense_rows(self, zero, cell) -> Iterator[list]:
        """Each row as its n cells: cell(num) where the row lists a
        numerator, `zero` elsewhere."""
        zeros = [zero] * self.n
        for cols, nums in self.cells:
            row = zeros[:]
            for j, x in zip(cols, nums):
                row[j] = cell(x)
            yield row


def verify_div1_certificate(
    xi: SimpleDist, eta: SimpleDist, cert: PermutationCertificate
) -> bool:
    """Check a permutation certificate for diversification dominance.

    The certificate claims xi is a convex combination, with the stored
    weights, of rearranged copies of eta on a uniform grid of cert.n
    slots.  All checks are exact: the weights must lie on the simplex
    (enforced by the certificate type), every permuted copy must have
    distribution exactly eta (each term permutes eta's grid, so this
    reduces to the permutations being valid, which the type enforces,
    and eta fitting the grid), and the weighted slot-wise combination
    must have distribution exactly xi, compared on the combination's
    integer scale.

    Raises ValueError when eta does not fit a grid of cert.n slots;
    returns False on reconstruction mismatch.
    """
    try:
        grid = UniformGrid(eta, cert.n)
    except ValueError as exc:
        raise ValueError(
            f"certificate grid size {cert.n} is incompatible with eta"
        ) from exc
    (vnums,), vden = _slot_scale(grid)
    acc, scale = cert._combine_on_scale(vnums, vden)
    return _dist_on_scale(Counter(acc), scale, cert.n) == xi


def verify_mps_coupling(
    xi: SimpleDist, eta: SimpleDist, coupling: MartingaleCoupling
) -> bool:
    """Check that a martingale coupling couples xi and eta: its row values
    must be xi's slot values and its column values eta's, on a uniform
    grid of coupling.n slots.  The coupling's own validator has checked
    its marginals and martingale rows against those values, so together
    they prove that eta is a mean-preserving spread of xi.

    Raises ValueError when xi or eta does not fit a grid of coupling.n
    slots; returns False when a value grid differs.
    """
    grids = []
    for name, law in ("xi", xi), ("eta", eta):
        try:
            grids.append(UniformGrid(law, coupling.n))
        except ValueError as exc:
            raise ValueError(
                f"coupling grid size {coupling.n} is incompatible with {name}"
            ) from exc
    return grids[0].values == coupling.row_values and grids[1].values == coupling.col_values


def verify_div2_instance(
    xi: SimpleDist, eta: SimpleDist, joint: JointDist, weights: Sequence
) -> bool:
    """Check a weighted-position witness: the convex combination of the
    joint coordinates must equal xi and the mixture of its marginals must
    equal eta, both exactly.  Both laws are folds over the integer view
    the joint holds (`JointDist._on_scale`), over the runs of equal
    adjacent cells that each atom's vector is cut into once; a zero
    weight is a run of weight 0 that adds nothing.  The mixture runs only
    when the convex combination matches, and no marginal is built."""
    scaled = joint._on_scale(weights)
    return scaled.convex_combination() == xi and scaled.mixture() == eta
