"""Decision procedures for stochastic dominance and certificate checking.

First-order dominance compares CDFs at the merged atom values;
second-order dominance is decided in the quantile domain (a breakpoint
scan over the gap integral, reusing the Expected Shortfall machinery).
Both are exact.  The verifiers check diversification witnesses against
their defining identities, again exactly: a certificate that passes here
is a proof.  They sum over one common integer scale: the slot-wise
combination of a certificate, the convex combination of a joint law and
the mixture of its marginals each bring their Fractions to a least
common denominator, add integer numerators and make Fractions only for
the distribution they compare.  The last two are folds over one integer
view of the joint, built once per check; it reads cells by value, as
parsed bundles share no cell objects (see `divcert.dist`).  The verifiers
import nothing from the construction code in `certify` at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING, Sequence

from .dist import (
    JointDist,
    SimpleDist,
    UniformGrid,
    cdf_steps,
    common_scale,
    regrid,
)
from .risk import ssd_violation

if TYPE_CHECKING:  # pragma: no cover
    from .certify import PermutationCertificate


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


@dataclass(frozen=True)
class MajorizationCheck:
    """Outcome of a majorization test; truthy iff the relation holds.

    On failure `witness` is the smallest prefix length (1-based) whose
    ascending prefix sum violates the dominance, or n when only the total
    sums differ.
    """

    holds: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_majorization(a: UniformGrid, b: UniformGrid) -> MajorizationCheck:
    """True iff the grids have equal totals and every ascending prefix sum
    of `a` is at least that of `b`: one running sum of b - a over the
    integer numerators of both grids on one common denominator."""
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    n = a.n
    nums, _ = common_scale(a.values + b.values)
    for j, excess in enumerate(accumulate(map(sub, nums[n:], nums[:n])), start=1):
        if excess > 0:
            return MajorizationCheck(False, j)
    if excess:
        return MajorizationCheck(False, n)
    return MajorizationCheck(True)


def verify_div1_certificate(
    xi: SimpleDist, eta: SimpleDist, cert: "PermutationCertificate"
) -> bool:
    """Check a permutation certificate for diversification dominance.

    The certificate claims xi is a convex combination, with the stored
    weights, of rearranged copies of eta on a uniform grid of cert.n
    slots.  All checks are exact: the weights must lie on the simplex
    (enforced by the certificate type), every permuted copy must have
    distribution exactly eta (each term permutes eta's grid, so this
    reduces to the permutations being valid, which the type enforces,
    and eta fitting the grid), and the weighted slot-wise combination
    must have distribution exactly xi.

    Raises ValueError when eta does not fit a grid of cert.n slots;
    returns False on reconstruction mismatch.
    """
    try:
        grid = regrid(eta, cert.n)
    except ValueError as exc:
        raise ValueError(
            f"certificate grid size {cert.n} is incompatible with eta"
        ) from exc
    combined = cert.combine(grid.values)
    w = Fraction(1, cert.n)
    return SimpleDist.from_pairs((v, w) for v in combined) == xi


def verify_div2_instance(
    xi: SimpleDist, eta: SimpleDist, joint: JointDist, weights: Sequence
) -> bool:
    """Check a weighted-position witness: the convex combination of the
    joint coordinates must equal xi and the mixture of its marginals must
    equal eta, both exactly.  Both laws are folds over one integer view of
    the joint (`JointDist._on_scale`), the mixture run only when the convex
    combination matches; no marginal is built."""
    scaled = joint._on_scale(weights)
    return scaled.convex_combination() == xi and scaled.mixture() == eta
