"""Expected Shortfall and the dominance gap."""

import random
from fractions import Fraction as F

import pytest

import divcert.risk
import helpers
import oracles
from divcert import (
    ESCurve,
    SimpleDist,
    check_ssd,
    dirac,
    es_curve,
    expected_shortfall,
    kantorovich,
    ssd_gap,
    ssd_violation,
)
from divcert.demo import gamma_mean_quantile_dist
from divcert.dist import quantile_steps

COIN = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])


class TestExpectedShortfall:
    def test_level_one_is_negated_mean(self):
        rng = random.Random(3)
        for _ in range(50):
            d = helpers.rand_dist(rng)
            assert expected_shortfall(d, 1) == -d.mean()

    def test_half_level_coin(self):
        assert expected_shortfall(COIN, F(1, 2)) == 1

    def test_degenerate(self):
        assert expected_shortfall(dirac(F(5, 3)), F(1, 7)) == -F(5, 3)

    def test_partial_step(self):
        # alpha inside the first step: average of the worst 1/4 is just -1
        assert expected_shortfall(COIN, F(1, 4)) == 1
        # alpha straddling both steps
        assert expected_shortfall(COIN, F(3, 4)) == F(1, 3)

    def test_domain(self):
        for bad in (0, F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError):
                expected_shortfall(COIN, bad)
            with pytest.raises(ValueError):
                es_curve(COIN).tail_integral_at(bad)

    def test_matches_tail_enumeration_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            d = helpers.rand_dist(rng)
            alpha = F(rng.randint(1, 12), 12)
            assert expected_shortfall(d, alpha) == oracles.es_by_sorted_tail(d, alpha)

    def test_non_increasing_in_level(self):
        rng = random.Random(5)
        for _ in range(100):
            d = helpers.rand_dist(rng)
            levels = sorted(F(rng.randint(1, 24), 24) for _ in range(6))
            values = [expected_shortfall(d, a) for a in levels]
            assert all(x >= y for x, y in zip(values, values[1:]))

    def test_cash_translation(self):
        rng = random.Random(6)
        for _ in range(100):
            d = helpers.rand_dist(rng)
            c = helpers.rand_fraction(rng)
            alpha = F(rng.randint(1, 16), 16)
            shifted = helpers.shift(d, c)
            assert expected_shortfall(shifted, alpha) == expected_shortfall(d, alpha) - c

    def test_positive_homogeneity(self):
        rng = random.Random(7)
        for _ in range(100):
            d = helpers.rand_dist(rng)
            lam = F(rng.randint(1, 12), rng.randint(1, 4))
            alpha = F(rng.randint(1, 16), 16)
            scaled = helpers.scale(d, lam)
            assert expected_shortfall(scaled, alpha) == lam * expected_shortfall(d, alpha)

    def test_kantorovich_continuity(self):
        rng = random.Random(8)
        for _ in range(200):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            alpha = F(rng.randint(1, 16), 16)
            diff = abs(expected_shortfall(a, alpha) - expected_shortfall(b, alpha))
            assert diff <= kantorovich(a, b) / alpha


class TestESCurve:
    def test_breakpoints_and_terminal_value(self):
        rng = random.Random(9)
        for _ in range(50):
            d = helpers.rand_dist(rng)
            curve = es_curve(d)
            assert curve.breakpoints[-1] == (F(1), d.mean())
            for alpha in curve.alphas:
                assert curve.tail_integral_at(alpha) == oracles.naive_tail_integral(d, alpha)
                assert curve.es_at(alpha) == expected_shortfall(d, alpha)

    @pytest.mark.parametrize("breakpoints, message", [
        ((), "an ES curve needs at least one breakpoint"),
        (((F(1, 2), F(0)), (F(1, 2), F(1)), (F(1), F(1))),
         "breakpoint levels must increase within (0, 1]"),
        (((F(0), F(0)), (F(1), F(1))), "breakpoint levels must increase within (0, 1]"),
        (((F(1, 2), F(0)), (F(3, 2), F(1))), "breakpoint levels must increase within (0, 1]"),
        (((F(1, 2), F(0)),), "the last breakpoint must sit at level 1"),
    ], ids=["empty", "repeated_level", "level_zero", "level_above_one", "last_below_one"])
    def test_refuses_each_breakpoint_rule(self, breakpoints, message):
        with pytest.raises(ValueError) as refused:
            ESCurve(breakpoints)
        assert str(refused.value) == message

    def test_interpolation_is_exact(self):
        rng = random.Random(10)
        for _ in range(50):
            d = helpers.rand_dist(rng)
            curve = es_curve(d)
            alpha = F(rng.randint(1, 48), 48)
            assert curve.tail_integral_at(alpha) == oracles.naive_tail_integral(d, alpha)


class TestSsdGap:
    def test_equal_inputs(self):
        rng = random.Random(11)
        for _ in range(20):
            d = helpers.rand_dist(rng)
            assert ssd_gap(d, d) == 0

    def test_dominating_side_has_zero_gap(self):
        assert ssd_gap(dirac(0), COIN) == 0

    def test_dominated_side_gap(self):
        assert ssd_gap(COIN, dirac(0)) == F(1, 2)
        assert ssd_violation(COIN, dirac(0)) == F(1, 2)

    def test_gap_zero_iff_dominance(self):
        rng = random.Random(12)
        for _ in range(300):
            a, b = helpers.equal_mean_pair(rng)
            assert (ssd_gap(a, b) == 0) == check_ssd(a, b)

    def test_gap_is_sup_over_levels(self):
        # alpha * (ES_alpha(xi) - ES_alpha(eta)) never exceeds the gap, and
        # attains it at some breakpoint
        rng = random.Random(13)
        for _ in range(100):
            xi = helpers.rand_dist(rng)
            eta = helpers.rand_dist(rng)
            gap = ssd_gap(xi, eta)
            levels = set(es_curve(xi).alphas) | set(es_curve(eta).alphas)
            seen = [
                alpha * (expected_shortfall(xi, alpha) - expected_shortfall(eta, alpha))
                for alpha in levels
            ]
            assert all(v <= gap for v in seen)
            assert gap == 0 or gap in seen

    def test_one_walk_gives_the_gap_and_the_first_witness(self):
        # G reads -1/4, -1/4, 3/4, 9/4 at levels 1/4 .. 1: the first
        # witness comes late and the gap later still; then a pair that
        # holds, and random pairs
        xi = SimpleDist.from_pairs([(-3, F(1, 2)), (-2, F(1, 2))])
        eta = SimpleDist.from_pairs([(v, F(1, 4)) for v in (-4, -3, 2, 4)])
        assert divcert.risk._ssd_gap_and_violation(xi, eta) == (F(9, 4), F(3, 4))
        pairs = [(xi, eta), (dirac(0), COIN)]
        rng = random.Random(14)
        pairs += [(helpers.rand_dist(rng), helpers.rand_dist(rng)) for _ in range(100)]
        for xi, eta in pairs:
            both = divcert.risk._ssd_gap_and_violation(xi, eta)
            assert both == (ssd_gap(xi, eta), ssd_violation(xi, eta))


class TestSsdViolation:
    def test_stops_at_the_first_positive_gap(self, monkeypatch):
        read = []

        def counted(xi, eta):
            for step in quantile_steps(xi, eta):
                read.append(step)
                yield step

        monkeypatch.setattr(divcert.risk, "quantile_steps", counted)
        assert ssd_violation(COIN, dirac(0)) == F(1, 2)
        assert len(read) == 1
        assert len(list(quantile_steps(COIN, dirac(0)))) == 2


class TestLlnStages:
    def test_each_stage_second_order_dominates_the_one_before(self):
        # averaging twice as many terms is less risky, though the discretized
        # means differ, so no stage is a diversification of another
        stages = [gamma_mean_quantile_dist(2**k, 64) for k in range(4)]
        for coarse, fine in zip(stages, stages[1:]):
            assert ssd_violation(fine, coarse) is None
            assert ssd_violation(coarse, fine) is not None
            assert fine.mean() != coarse.mean()

    @pytest.mark.parametrize("n_terms, grid", [(0, 4), (1, 0), (-1, -1)])
    def test_refuses_a_count_below_one(self, n_terms, grid):
        with pytest.raises(ValueError, match="n_terms and grid must be positive"):
            gamma_mean_quantile_dist(n_terms, grid)

    def test_quantiles_solve_the_erlang_cdf(self):
        # every midpoint u = (2k+1)/128 lies strictly between the CDF of the
        # sum of n exponentials just below and just above its quantile
        eps = F(1, 10**14)
        for n in (1, 2, 4):
            atoms = gamma_mean_quantile_dist(n, 64).atoms
            assert len(atoms) == 64
            for k, (value, prob) in enumerate(atoms):
                assert prob == F(1, 64)
                u = F(2 * k + 1, 128)
                root = value * n
                assert oracles.erlang_cdf_bounds(n, root * (1 - eps))[1] < u
                assert u < oracles.erlang_cdf_bounds(n, root * (1 + eps))[0]
