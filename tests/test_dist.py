"""Core distribution type and operations."""

import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from divcert import (
    GridCapError,
    JointDist,
    SimpleDist,
    UniformGrid,
    as_rational,
    common_refinement,
    convex_combination,
    dirac,
    from_samples,
    kantorovich,
    mixture,
    quantize_values,
)


@st.composite
def dists(draw, max_atoms=6):
    k = draw(st.integers(1, max_atoms))
    values = draw(
        st.lists(
            st.builds(F, st.integers(-24, 24), st.integers(1, 8)),
            min_size=k, max_size=k, unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    total = sum(weights)
    return SimpleDist.from_pairs((v, F(w, total)) for v, w in zip(values, weights))


def parsed(fn, x):
    """(type, value) of fn(x), or (exception type, message) when it raises."""
    try:
        r = fn(x)
    except Exception as exc:  # TypeError too: the type is compared
        return type(exc), str(exc)
    return type(r), r


#: near-numbers: digits, signs, slashes, decimal points, exponents,
#: underscores, spaces and digits that are not ASCII; and the canonical
#: text str(Fraction) writes
rational_texts = st.one_of(
    st.text(st.sampled_from("0123456789-/+.eE_ \u00b2\u0661"), max_size=10),
    st.fractions().map(str),
)

LONG = "1" * 4301  # one digit past CPython's default int string limit


class TestRational:
    @given(rational_texts)
    @settings(max_examples=500)
    def test_strings_parse_as_fraction_parses_them(self, text):
        assert parsed(as_rational, text) == parsed(oracles.naive_as_rational, text)

    @pytest.mark.parametrize("text", [
        "-0", "007", "6/4", "0/5", "3/00", "-0/0", "1/-2", "+3", " 3", "3_0",
        "-", "/3", "3/", "", "--3", "+-3", "-+3", "3 /4", " -3/4 ", "1/2/3",
        "-6/-4", "\u00b2", "\u0661\u0662",
    ])
    def test_edge_strings_parse_as_fraction_parses_them(self, text):
        assert parsed(as_rational, text) == parsed(oracles.naive_as_rational, text)

    def test_too_many_digits_fail_as_fraction_fails(self):
        for text in (LONG, "-" + LONG, LONG + "/3", "3/" + LONG, LONG + "/0"):
            assert parsed(as_rational, text) == parsed(oracles.naive_as_rational, text)
            assert parsed(as_rational, text)[0] is ValueError

    def test_string_forms(self):
        assert as_rational("3/4") == F(3, 4)
        assert as_rational("0.1") == F(1, 10)  # decimal strings are exact decimals
        assert as_rational("-2") == F(-2)

    def test_float_is_binary_exact(self):
        assert as_rational(0.5) == F(1, 2)
        assert as_rational(0.1) == F(3602879701896397, 36028797018963968)
        assert as_rational(0.1) != F(1, 10)

    def test_rejects_non_finite_and_junk(self):
        with pytest.raises(ValueError):
            as_rational(float("nan"))
        with pytest.raises(ValueError):
            as_rational(float("inf"))
        with pytest.raises(ValueError):
            as_rational("spam")
        with pytest.raises(TypeError):
            as_rational(None)
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(ValueError):
            as_rational("1/0")

    def test_bounds_the_decimal_exponent(self):
        assert as_rational("1e4300") == 10**4300
        assert as_rational("-2.5E-4300") == F(-25, 10**4301)
        for text in ("1e5000", "1e-5000", "1E+4301", "1e10000000"):
            with pytest.raises(ValueError, match="exponent"):
                as_rational(text)


class TestSimpleDist:
    def test_canonicalization_merges_sorts_drops(self):
        d = SimpleDist.from_pairs([(1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4)), (5, 0)])
        assert d.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_structural_equality(self):
        a = SimpleDist.from_pairs([("1/2", "1/2"), (1, "1/2")])
        b = SimpleDist.from_pairs([(1, F(2, 4)), (F(1, 2), F(1, 2))])
        assert a == b and hash(a) == hash(b)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SimpleDist.from_pairs([(0, F(1, 2))])  # sums to 1/2
        with pytest.raises(ValueError):
            SimpleDist.from_pairs([(0, F(-1, 2)), (1, F(3, 2))])
        with pytest.raises(ValueError):
            SimpleDist.from_pairs([])
        with pytest.raises(ValueError):
            SimpleDist(((F(1), F(1, 2)), (F(0), F(1, 2))))  # not sorted

    def test_refuses_two_atoms_of_equal_value(self):
        with pytest.raises(ValueError, match="values must be strictly increasing"):
            SimpleDist(((F(0), F(1, 2)), (F(0), F(1, 2))))

    def test_mean(self):
        assert SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))]).mean() == 0
        assert dirac(F(7, 3)).mean() == F(7, 3)
        assert SimpleDist.from_pairs([(1, F(1, 3)), (4, F(2, 3))]).mean() == 3

    # the walker tests compare against these two references
    def test_cdf_is_strict(self):
        d = dirac(0)
        assert oracles.cdf(d, 0) == 0  # P(value < 0), the atom itself excluded
        assert oracles.cdf(d, 1) == 1
        two = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
        assert oracles.cdf(two, 0) == F(1, 2)

    def test_quantile(self):
        assert oracles.quantile(dirac(5), F(1, 7)) == 5
        assert oracles.quantile(dirac(5), 1) == 5
        grid = UniformGrid.from_values([1, 2, 3]).dist
        assert oracles.quantile(grid, F(1, 3)) == 1
        assert oracles.quantile(grid, F(1, 3) + F(1, 100)) == 2
        assert oracles.quantile(grid, 1) == 3


class TestGrids:
    def test_expand(self):
        # one law on its own smallest grid
        d = SimpleDist.from_pairs([(0, F(1, 2)), (3, F(1, 4)), (5, F(1, 4))])
        g = common_refinement(d, d)[0]
        assert g.n == 4 and g.values == (F(0), F(0), F(3), F(5))
        assert common_refinement(dirac(1), dirac(1))[0].values == (F(1),)
        coin = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
        assert common_refinement(coin, coin)[0].values == (F(-1), F(1))

    def test_expand_cap(self):
        p = 1000003  # prime above the default cap
        d = SimpleDist.from_pairs([(0, F(1, p)), (1, F(p - 1, p))])
        with pytest.raises(GridCapError):
            common_refinement(d, d)
        g = common_refinement(d, d, cap=p)[0]
        assert g.n == p

    def test_round_trip_preserves_multiset(self):
        g = UniformGrid.from_values([F(7, 2), F(1), 2, F(1)])
        law = SimpleDist.from_pairs([(1, F(1, 2)), (2, F(1, 4)), (F(7, 2), F(1, 4))])
        assert g == UniformGrid(law, 4)
        assert g.values == (F(1), F(1), F(2), F(7, 2))
        assert UniformGrid.from_values(g.values) == g

    def test_common_refinement(self):
        a, b = common_refinement(
            dirac(0), SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
        )
        assert a.values == (F(0), F(0)) and b.values == (F(-1), F(1))
        d = helpers.rand_dist(random.Random(1))
        ga, gb = common_refinement(d, d)
        assert ga == gb
        ga, gb = common_refinement(
            SimpleDist.from_pairs([(0, F(1, 3)), (1, F(2, 3))]),
            SimpleDist.from_pairs([(5, F(1, 2)), (6, F(1, 2))]),
        )
        assert ga.values == (F(0), F(0), F(1), F(1), F(1), F(1))
        assert gb.values == (F(5), F(5), F(5), F(6), F(6), F(6))

    def test_refuses_grid_size_zero(self):
        with pytest.raises(ValueError, match="^grid size must be positive$"):
            UniformGrid(dirac(0), 0)

    def test_refuses_a_law_off_the_lattice(self):
        thirds = SimpleDist.from_pairs([(0, F(1, 3)), (1, F(2, 3))])
        assert UniformGrid(thirds, 6).values == (F(0), F(0), F(1), F(1), F(1), F(1))
        with pytest.raises(ValueError, match="^distribution does not fit on a grid of 4 slots$"):
            UniformGrid(thirds, 4)

    def test_refuses_empty_from_values(self):
        with pytest.raises(ValueError, match="^a grid needs at least one value$"):
            UniformGrid.from_values([])


class TestMixture:
    def test_basic(self):
        assert mixture([dirac(0), dirac(1)], [F(1, 2), F(1, 2)]) == SimpleDist.from_pairs(
            [(0, F(1, 2)), (1, F(1, 2))]
        )

    def test_identity_weight_drops_other(self):
        d = SimpleDist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
        e = dirac(9)
        assert mixture([d, e], [1, 0]) == d

    def test_overlapping_atoms_merge(self):
        d = SimpleDist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
        got = mixture([d, dirac(1)], [F(1, 2), F(1, 2)])
        assert got == SimpleDist.from_pairs([(0, F(1, 4)), (1, F(3, 4))])

    def test_errors(self):
        with pytest.raises(ValueError):
            mixture([dirac(0)], [F(1, 2), F(1, 2)])
        with pytest.raises(ValueError):
            mixture([dirac(0), dirac(1)], [F(3, 4), F(1, 2)])
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            mixture([dirac(0), dirac(1)], [F(-1, 2), F(3, 2)])


class TestJoint:
    def test_convex_combination(self):
        j = helpers.joint_from_pairs([((2, 5, 9), 1)])
        w = [F(1, 2), F(1, 4), F(1, 4)]
        assert convex_combination(j, w) == dirac(F(9, 2))
        j = helpers.joint_from_pairs([((1, 3), F(1, 2)), ((3, 1), F(1, 2))])
        assert convex_combination(j, [F(1, 2), F(1, 2)]) == dirac(2)
        j = helpers.joint_from_pairs([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        assert convex_combination(j, [F(1, 2), F(1, 2)]) == SimpleDist.from_pairs(
            [(0, F(1, 2)), (1, F(1, 2))]
        )

    def test_marginals(self):
        j = helpers.joint_from_pairs([((1, 3), F(1, 2)), ((3, 1), F(1, 2))])
        expected = SimpleDist.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
        assert j.marginal(0) == expected
        assert j.marginal(1) == expected
        assert helpers.joint_from_pairs([((4, 2), 1)]).marginal(1) == dirac(2)
        with pytest.raises(IndexError):
            j.marginal(2)

    def test_dimension_mismatch(self):
        j = helpers.joint_from_pairs([((1, 3), F(1, 2)), ((3, 1), F(1, 2))])
        with pytest.raises(ValueError):
            convex_combination(j, [1])

    def test_refuses_no_atoms(self):
        with pytest.raises(ValueError, match="a joint distribution needs at least one atom"):
            JointDist(rows=(), vden=1, masses=(), pden=1)

    def test_refuses_atoms_of_no_coordinate(self):
        with pytest.raises(ValueError, match="joint distributions need at least one coordinate"):
            JointDist(rows=((),), vden=1, masses=(1,), pden=1)

    @pytest.mark.parametrize("masses, vden, pden", [
        ((1, 1), 1, 2),  # two masses for one atom; they sum to pden
        ((1,), 0, 1),
        ((1,), 1, 0),
    ], ids=["mass_count", "vden", "pden"])
    def test_refuses_each_scale_rule_alone(self, masses, vden, pden):
        message = "a joint needs one mass per atom and positive denominators"
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDist(rows=((0,),), vden=vden, masses=masses, pden=pden)


class TestIngest:
    def test_from_samples(self):
        assert from_samples([0.5]) == dirac(F(1, 2))
        assert from_samples([1, 1, 2]) == SimpleDist.from_pairs(
            [(1, F(2, 3)), (2, F(1, 3))]
        )
        d = from_samples([0.1])
        assert d.atoms == ((F(3602879701896397, 36028797018963968), F(1)),)

    def test_from_samples_errors(self):
        with pytest.raises(ValueError):
            from_samples([])
        with pytest.raises(ValueError):
            from_samples([1.0, float("inf")])


class TestQuantize:
    def test_lattice_fixpoint(self):
        d = SimpleDist.from_pairs([(F(-1, 2), F(1, 2)), (F(3, 2), F(1, 2))])
        assert quantize_values(d, 2) == d

    def test_rounding(self):
        assert quantize_values(dirac(F(1, 3)), 2) == dirac(F(1, 2))
        d = SimpleDist.from_pairs([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
        q = quantize_values(d, 1)
        assert q == SimpleDist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
        assert kantorovich(d, q) == F(1, 4)

    def test_ties_go_down(self):
        assert quantize_values(dirac(F(1, 2)), 1) == dirac(0)
        assert quantize_values(dirac(F(-1, 2)), 1) == dirac(-1)

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            quantize_values(dirac(0), 0)


class TestProperties:
    @given(dists())
    def test_canonical_invariants(self, d):
        assert sum(d.probs) == 1
        assert all(a < b for a, b in zip(d.values, d.values[1:]))

    @given(dists())
    def test_expand_preserves_mean_and_distance(self, d):
        g = common_refinement(d, d)[0]
        assert sum(g.values) / g.n == d.mean()
        slots = UniformGrid.from_values(g.values)
        assert slots == g
        assert kantorovich(slots.dist, d) == 0

    @given(st.lists(dists(max_atoms=4), min_size=1, max_size=4), st.data())
    def test_mixture_mean_identity(self, ds, data):
        weights = data.draw(st.lists(st.integers(0, 5), min_size=len(ds), max_size=len(ds)))
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        ws = [F(w, total) for w in weights]
        assert mixture(ds, ws).mean() == sum(
            w * d.mean() for w, d in zip(ws, ds)
        )

    def test_convex_combination_mean_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            j = helpers.rand_joint(rng)
            w = helpers.rand_simplex_weights(rng, j.m)
            lhs = convex_combination(j, w).mean()
            rhs = sum(wi * j.marginal(i).mean() for i, wi in enumerate(w))
            assert lhs == rhs

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_from_samples_mean_is_exact_average(self, xs):
        d = from_samples(xs)
        assert d.mean() == sum(F(x) for x in xs) / len(xs)

    @given(dists(), st.integers(1, 50))
    @settings(deadline=None)
    def test_quantize_distance_bound(self, d, q):
        moved = quantize_values(d, q)
        assert kantorovich(d, moved) <= F(1, 2 * q)
