"""The two step-function walkers of `divcert.dist` and the folds over them.

Risk, transport and dominance each used to merge two step functions with
a loop of their own; those loops are kept in `oracles` (naive_*) and the
folds over `quantile_steps` and `cdf_steps` must equal them, witnesses
included, on random pairs, equal pairs and pairs with a point mass.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from divcert import (
    SimpleDist,
    dirac,
    es_curve,
    expected_shortfall,
    fsd_violation,
    kantorovich,
    kantorovich_cdf,
    ssd_gap,
    ssd_violation,
    transport,
)
from divcert.dist import cdf_steps, quantile_steps
from divcert.risk import _gap_at_breakpoints

values = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4)))


@st.composite
def dists(draw, max_atoms=6):
    k = draw(st.integers(1, max_atoms))
    vs = draw(st.lists(values, min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    total = sum(weights)
    return SimpleDist.from_pairs((v, F(w, total)) for v, w in zip(vs, weights))


@st.composite
def pairs(draw):
    """Independent pairs, equal pairs, and pairs with one or two point masses."""
    kind = draw(st.sampled_from(["random", "equal", "dirac_left", "dirac_right", "diracs"]))
    if kind == "equal":
        d = draw(dists())
        return d, d
    a = dirac(draw(values)) if kind in ("dirac_left", "diracs") else draw(dists())
    b = dirac(draw(values)) if kind in ("dirac_right", "diracs") else draw(dists())
    return a, b


#: levels k/m in (0, 1]
levels = st.integers(1, 12).flatmap(lambda m: st.builds(F, st.integers(1, m), st.just(m)))


class TestFoldsEqualTheMergeLoops:
    @given(pairs(), levels)
    @settings(max_examples=400, deadline=None)
    def test_every_fold_equals_its_loop(self, pair, alpha):
        a, b = pair
        for xi, eta in ((a, b), (b, a)):
            naive_gaps = oracles.naive_gap_at_breakpoints(xi, eta)
            assert list(_gap_at_breakpoints(xi, eta)) == naive_gaps
            assert ssd_violation(xi, eta) == next(
                (level for level, gap in naive_gaps if gap > 0), None
            )
            assert ssd_gap(xi, eta) == max(F(0), *(gap for _, gap in naive_gaps))
            assert fsd_violation(xi, eta) == oracles.naive_fsd_violation(xi, eta)
            assert kantorovich(xi, eta) == oracles.naive_kantorovich(xi, eta)
            assert kantorovich_cdf(xi, eta) == oracles.naive_kantorovich_cdf(xi, eta)
        for d in (a, b):
            curve = es_curve(d)
            cum = F(0)
            for _, p in d.atoms:  # every kink of the tail integral, and alpha
                cum += p
                assert curve.tail_integral_at(cum) == oracles.naive_tail_integral(d, cum)
            assert curve.tail_integral_at(alpha) == oracles.naive_tail_integral(d, alpha)
            assert expected_shortfall(d, alpha) == -oracles.naive_tail_integral(d, alpha) / alpha


class TestWalkers:
    @given(pairs())
    @settings(max_examples=200, deadline=None)
    def test_quantile_steps_partition_the_unit_interval(self, pair):
        a, b = pair
        steps = list(quantile_steps(a, b))
        assert steps[-1][0] == 1
        assert sum(width for _, width, _, _ in steps) == 1
        prev = F(0)
        for level, width, qa, qb in steps:
            assert width > 0 and level - width == prev
            # constant on (prev, level]: the quantile at both ends of the step
            for u in (level, prev + width / 2):
                assert (oracles.quantile(a, u), oracles.quantile(b, u)) == (qa, qb)
            prev = level
        cums = {sum(d.probs[: i + 1]) for d in (a, b) for i in range(len(d))}
        assert [level for level, _, _, _ in steps] == sorted(cums)

    @given(pairs())
    @settings(max_examples=200, deadline=None)
    def test_cdf_steps_visit_every_merged_value(self, pair):
        a, b = pair
        steps = list(cdf_steps(a, b))
        assert [v for v, _, _ in steps] == sorted(set(a.values) | set(b.values))
        for v, fa, fb in steps:
            assert fa == oracles.cdf(a, v) + dict(a.atoms).get(v, 0)
            assert fb == oracles.cdf(b, v) + dict(b.atoms).get(v, 0)
        assert steps[-1][1:] == (1, 1)

    def test_the_two_transport_forms_use_separate_walkers(self, monkeypatch):
        a = SimpleDist.from_pairs([(0, F(1, 3)), (2, F(2, 3))])
        b = SimpleDist.from_pairs([(-1, F(1, 2)), (3, F(1, 2))])

        def broken(*_):
            raise RuntimeError("walker used")

        with monkeypatch.context() as m:
            m.setattr(transport, "cdf_steps", broken)
            assert kantorovich(a, b) == F(4, 3)
            with pytest.raises(RuntimeError):
                kantorovich_cdf(a, b)
        with monkeypatch.context() as m:
            m.setattr(transport, "quantile_steps", broken)
            assert kantorovich_cdf(a, b) == F(4, 3)
            with pytest.raises(RuntimeError):
                kantorovich(a, b)
