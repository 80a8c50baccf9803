"""Expected Shortfall and the dominance gap functional, computed exactly.

Everything here works on the step quantile function of a
:class:`~divcert.dist.SimpleDist`: tail integrals are sums of full steps
plus one exact partial step, so no interpolation error exists anywhere.
Second-order dominance is decided here, by `ssd_violation`: like the
other order scans in `divcert.dominance`, it returns its first witness
or None, and it reads the gap integral only up to that witness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .dist import SimpleDist, as_rational, quantile_steps


def _check_level(alpha) -> Fraction:
    alpha = as_rational(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"level must lie in (0, 1], got {alpha}")
    return alpha


def expected_shortfall(d: SimpleDist, alpha) -> Fraction:
    """Average loss over the worst alpha-fraction of outcomes:
    -(1/alpha) * integral of the quantile function over (0, alpha]."""
    return es_curve(d).es_at(alpha)


@dataclass(frozen=True)
class ESCurve:
    """The map alpha -> integral of the quantile function over (0, alpha].

    Piecewise linear and continuous, with kinks only at the stored
    breakpoints (the cumulative probabilities of the distribution); its
    value at 1 is the mean.  Evaluation between breakpoints is the exact
    partial-step formula, so no approximation is involved.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("an ES curve needs at least one breakpoint")
        prev = Fraction(0)
        for alpha, _ in self.breakpoints:
            if not 0 < alpha <= 1 or alpha <= prev:
                raise ValueError("breakpoint levels must increase within (0, 1]")
            prev = alpha
        if self.breakpoints[-1][0] != 1:
            raise ValueError("the last breakpoint must sit at level 1")
        object.__setattr__(self, "_levels", tuple(a for a, _ in self.breakpoints))

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return self._levels

    def tail_integral_at(self, alpha) -> Fraction:
        alpha = _check_level(alpha)
        k = bisect_left(self._levels, alpha)
        a, t = self.breakpoints[k]
        prev_a, prev_t = self.breakpoints[k - 1] if k else (Fraction(0), Fraction(0))
        slope = (t - prev_t) / (a - prev_a)
        return prev_t + slope * (alpha - prev_a)

    def es_at(self, alpha) -> Fraction:
        alpha = _check_level(alpha)
        return -self.tail_integral_at(alpha) / alpha


def es_curve(d: SimpleDist) -> ESCurve:
    points = []
    cum = Fraction(0)
    total = Fraction(0)
    for value, prob in d.atoms:
        cum += prob
        total += value * prob
        points.append((cum, total))
    return ESCurve(tuple(points))


def _gap_at_breakpoints(
    xi: SimpleDist, eta: SimpleDist
) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield (alpha, G(alpha)) at every merged breakpoint in turn, where
    G(alpha) is the integral of (q_eta - q_xi) over (0, alpha].  G is
    piecewise linear with kinks only at these points and G(0) = 0.  The
    gaps are made lazily, so a scan that stops early reads no further
    step.
    """
    gap = Fraction(0)
    for level, width, qx, qe in quantile_steps(xi, eta):
        gap += (qe - qx) * width
        yield level, gap


def ssd_violation(xi: SimpleDist, eta: SimpleDist) -> Fraction | None:
    """Smallest breakpoint alpha at which the quantile-gap integral
    G(alpha) is positive, or None when xi second-order dominates eta.
    The scan stops at that first positive gap."""
    return next((alpha for alpha, gap in _gap_at_breakpoints(xi, eta) if gap > 0), None)


def ssd_gap(xi: SimpleDist, eta: SimpleDist) -> Fraction:
    """sup over alpha in (0,1] of alpha*(ES_alpha(xi) - ES_alpha(eta)),
    clamped below at 0 (the alpha -> 0 limit contributes exactly 0).

    The function inside the sup is piecewise linear, so the sup is
    attained at a breakpoint; zero iff xi second-order dominates eta.
    """
    return _ssd_gap_and_violation(xi, eta)[0]


def _ssd_gap_and_violation(xi: SimpleDist, eta: SimpleDist) -> tuple[Fraction, Fraction | None]:
    """(ssd_gap(xi, eta), ssd_violation(xi, eta)) from one walk of the
    breakpoints: the gap is the largest G(alpha), clamped at 0, and the
    witness the first alpha whose G(alpha) is positive, the first to
    raise the running maximum above 0."""
    worst = Fraction(0)
    witness = None
    for alpha, gap in _gap_at_breakpoints(xi, eta):
        if gap > worst:
            worst = gap
            if witness is None:
                witness = alpha
    return worst, witness
