"""Transport distance: the two closed forms and the metric axioms."""

import random
from fractions import Fraction as F

import helpers
import oracles
from divcert import SimpleDist, UniformGrid, dirac, kantorovich, kantorovich_cdf

COIN = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])


class TestClosedForms:
    def test_identity_of_indiscernibles(self):
        rng = random.Random(1)
        for _ in range(50):
            d = helpers.rand_dist(rng)
            assert kantorovich(d, d) == 0
            assert kantorovich_cdf(d, d) == 0

    def test_unit_translation(self):
        assert kantorovich(dirac(0), dirac(1)) == 1
        assert kantorovich_cdf(dirac(0), dirac(1)) == 1

    def test_coin_vs_zero(self):
        assert kantorovich(COIN, dirac(0)) == 1
        assert kantorovich_cdf(COIN, dirac(0)) == 1

    def test_representations_agree(self):
        rng = random.Random(2)
        for _ in range(500):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            q = kantorovich(a, b)
            assert q == kantorovich_cdf(a, b)
            assert q == oracles.kantorovich_by_grid(a, b)

    def test_zero_implies_equal(self):
        rng = random.Random(3)
        for _ in range(200):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            assert (kantorovich(a, b) == 0) == (a == b)


class TestMetricAxioms:
    def test_symmetry(self):
        rng = random.Random(4)
        for _ in range(200):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            assert kantorovich(a, b) == kantorovich(b, a)

    def test_triangle(self):
        rng = random.Random(5)
        for _ in range(200):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            c = helpers.rand_dist(rng)
            assert kantorovich(a, c) <= kantorovich(a, b) + kantorovich(b, c)

    def test_translation_invariance(self):
        rng = random.Random(6)
        for _ in range(100):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            c = helpers.rand_fraction(rng)
            assert kantorovich(helpers.shift(a, c), helpers.shift(b, c)) == kantorovich(a, b)

    def test_mean_difference_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            assert abs(a.mean() - b.mean()) <= kantorovich(a, b)

    def test_comonotone_addition_bound(self):
        # adding a non-negative slot-wise slack moves the law by at most
        # its mean: the slot coupling witnesses it
        rng = random.Random(8)
        for _ in range(200):
            g = helpers.rand_grid(rng, rng.randint(1, 12))
            slack = [F(rng.randint(0, 12), 4) for _ in range(g.n)]
            shifted = UniformGrid.from_values(
                [v + s for v, s in zip(g.values, slack)]
            )
            bound = F(sum(slack), g.n)
            assert kantorovich(g.dist, shifted.dist) <= bound
