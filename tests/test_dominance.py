"""Dominance decision procedures and certificate verification."""

import ast
import random
import re
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate

import pytest

import helpers
import oracles
from divcert import (
    JointDist,
    MartingaleCoupling,
    certify_div1,
    PermutationCertificate,
    SimpleDist,
    TTransform,
    UniformGrid,
    check_fsd,
    check_majorization,
    check_ssd,
    common_refinement,
    dirac,
    fsd_violation,
    majorization_violation,
    ssd_violation,
    verify_div1_certificate,
    verify_div2_instance,
)

COIN = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])


class TestFsd:
    def test_higher_constant_dominates(self):
        assert check_fsd(dirac(1), dirac(0))
        assert not check_fsd(dirac(0), dirac(1))

    def test_coin_vs_zero(self):
        assert not check_fsd(COIN, dirac(0))
        assert fsd_violation(COIN, dirac(0)) == -1

    def test_reflexive(self):
        rng = random.Random(1)
        for _ in range(30):
            d = helpers.rand_dist(rng)
            assert check_fsd(d, d)

    def test_shift_up_dominates(self):
        rng = random.Random(2)
        for _ in range(50):
            d = helpers.rand_dist(rng)
            c = F(rng.randint(0, 8), 4)
            assert check_fsd(helpers.shift(d, c), d)
            if c > 0:
                assert not check_fsd(d, helpers.shift(d, c))

    def test_implies_ssd(self):
        rng = random.Random(3)
        seen = 0
        for _ in range(400):
            a = helpers.rand_dist(rng, max_atoms=4)
            b = helpers.rand_dist(rng, max_atoms=4)
            if check_fsd(a, b):
                seen += 1
                assert check_ssd(a, b)
        assert seen > 5


class TestSsd:
    def test_known_pairs(self):
        assert check_ssd(dirac(0), COIN)
        assert not check_ssd(COIN, dirac(0))
        wide = SimpleDist.from_pairs([(0, F(1, 2)), (2, F(1, 2))])
        assert check_ssd(wide, helpers.shift(COIN, 0))

    def test_reflexive(self):
        rng = random.Random(4)
        for _ in range(30):
            d = helpers.rand_dist(rng)
            assert check_ssd(d, d)

    def test_transitive_on_spread_chains(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = helpers.mps_pair(rng, base_atoms=4, max_doublings=2)
            b2, c = helpers.mps_pair(rng, base_atoms=1, max_doublings=1)
            # chain a >= b and b >= (b + spread of b): respread b itself
            gb, _ = common_refinement(b, b)
            spread = []
            for v in gb.values:
                s = F(rng.randint(0, 8), 4)
                spread.extend([v - s, v + s])
            c = UniformGrid.from_values(sorted(spread)).dist
            assert check_ssd(a, b) and check_ssd(b, c)
            assert check_ssd(a, c)

    def test_antisymmetry_with_equal_means(self):
        rng = random.Random(6)
        for _ in range(300):
            a, b = helpers.equal_mean_pair(rng)
            if check_ssd(a, b) and check_ssd(b, a):
                assert a == b

    def test_agrees_with_cdf_integral_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            a = helpers.rand_dist(rng)
            b = helpers.rand_dist(rng)
            assert check_ssd(a, b) == oracles.ssd_by_cdf_integral(a, b)

    def test_agrees_with_utility_family_oracle(self):
        rng = random.Random(8)
        for _ in range(300):
            a, b = helpers.equal_mean_pair(rng)
            assert check_ssd(a, b) == oracles.ssd_by_utility(a, b)


class TestMajorization:
    def test_basic(self):
        a = UniformGrid.from_values([2, 2])
        b = UniformGrid.from_values([1, 3])
        assert check_majorization(a, b) is True
        assert majorization_violation(a, b) is None
        assert check_majorization(b, a) is False
        assert majorization_violation(b, a) == 1
        assert check_majorization(a, a)

    def test_unequal_totals_witness_is_last_index(self):
        a = UniformGrid.from_values([2, 3])
        b = UniformGrid.from_values([1, 3])
        assert not check_majorization(a, b)
        assert majorization_violation(a, b) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            check_majorization(
                UniformGrid.from_values([1]), UniformGrid.from_values([1, 1])
            )

    def test_a_million_slots_take_little_memory(self):
        """A 1,000-atom law against a 999-atom law refines to 999,000
        slots.  Every slot of b lies below every slot of a, so the scan
        reads all of them and fails only on the totals.  The slots are
        integer numerators shared by each atom's slots, not a Fraction
        per slot: 17 MB at the peak, against 130 MB for Fractions."""
        rng = random.Random(14)
        a = SimpleDist.from_pairs((F(k, 7), F(1, 1000)) for k in rng.sample(range(1, 10**6), 1000))
        b = SimpleDist.from_pairs((F(-k, 7), F(1, 999)) for k in rng.sample(range(1, 10**6), 999))
        tracemalloc.start()
        try:
            ga, gb = common_refinement(a, b)
            witness = majorization_violation(ga, gb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ga.n == 999_000 and witness == ga.n
        assert peak < 48_000_000, f"peak of {peak / 1e6:.1f} MB"

    def test_equivalent_to_ssd_on_refinements(self):
        rng = random.Random(9)
        for _ in range(300):
            a, b = helpers.equal_mean_pair(rng)
            ga, gb = common_refinement(a, b)
            assert bool(check_majorization(ga, gb)) == check_ssd(a, b)

    def test_witness_agrees_with_the_ssd_witness(self):
        """With equal means, the first violating prefix j of the common
        grids of size n sits in the quantile step of the first positive
        gap: the SSD witness is the least cumulative probability of a or
        b that is at least j/n."""
        rng = random.Random(7)
        refused = 0
        for _ in range(3000):
            a, b = helpers.equal_mean_pair(rng)
            ga, gb = common_refinement(a, b)
            j = majorization_violation(ga, gb)
            alpha = ssd_violation(a, b)
            assert (j is None) == (alpha is None)
            if j is None:
                continue
            refused += 1
            levels = set(accumulate(a.probs)) | set(accumulate(b.probs))
            assert alpha == min(level for level in levels if level >= F(j, ga.n))
        assert refused > 0


class TestVerifiers:
    def test_identity_certificate(self):
        rng = random.Random(10)
        d = helpers.rand_dist(rng, max_den=4)
        n = common_refinement(d, d)[0].n
        cert = PermutationCertificate(n=n, terms=((tuple(range(n)), F(1)),))
        assert verify_div1_certificate(d, d, cert)

    def test_two_term_certificate(self):
        eta = SimpleDist.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
        cert = PermutationCertificate(
            n=2, terms=(((0, 1), F(1, 2)), ((1, 0), F(1, 2)))
        )
        assert verify_div1_certificate(dirac(2), eta, cert)
        assert not verify_div1_certificate(dirac(3), eta, cert)

    def test_incompatible_grid_raises(self):
        eta = SimpleDist.from_pairs([(0, F(1, 3)), (1, F(2, 3))])
        cert = PermutationCertificate(n=2, terms=(((0, 1), F(1)),))
        with pytest.raises(ValueError):
            verify_div1_certificate(dirac(0), eta, cert)

    def test_div2_instances(self):
        j = helpers.joint_from_pairs([((1, 3), F(1, 2)), ((3, 1), F(1, 2))])
        eta = SimpleDist.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
        assert verify_div2_instance(dirac(2), eta, j, [F(1, 2), F(1, 2)])
        # degenerate weights: the combination is just the first coordinate
        assert verify_div2_instance(eta, eta, j, [1, 0])
        assert not verify_div2_instance(dirac(2), eta, j, [1, 0])

    def test_div2_all_equal_coordinates(self):
        rng = random.Random(11)
        d = helpers.rand_dist(rng, max_atoms=4)
        j = helpers.joint_from_pairs(((v, v, v), p) for v, p in d.atoms)
        w = helpers.rand_simplex_weights(rng, 3)
        assert verify_div2_instance(d, d, j, w)

    def test_div2_dimension_mismatch(self):
        j = helpers.joint_from_pairs([((1, 3), F(1, 2)), ((3, 1), F(1, 2))])
        with pytest.raises(ValueError):
            verify_div2_instance(dirac(2), dirac(2), j, [1])

    def test_any_verified_certificate_implies_dominance(self):
        # build certificates directly from random weights and permutations;
        # whatever they reconstruct must be second-order dominated by it
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 8)
            eta = helpers.rand_grid(rng, n).dist
            b = common_refinement(eta, eta)[0]
            m = rng.randint(1, 4)
            perms = []
            for _ in range(m):
                p = list(range(b.n))
                rng.shuffle(p)
                perms.append(tuple(p))
            weights = helpers.rand_simplex_weights(rng, m)
            merged: dict[tuple, F] = {}
            for p, w in zip(perms, weights):
                if w > 0:
                    merged[p] = merged.get(p, F(0)) + w
            cert = PermutationCertificate(n=b.n, terms=tuple(sorted(merged.items())))
            combined = oracles.naive_combine(cert.terms, b.values)
            xi = SimpleDist.from_pairs((v, F(1, b.n)) for v in combined)
            assert verify_div1_certificate(xi, eta, cert)
            assert check_ssd(xi, eta)
            assert xi.mean() == eta.mean()


class TestRefusalRules:
    """Each witness validator refuses these integer-constructor inputs by
    one rule alone; every other rule passes on them."""

    def test_transform_refuses_i_equal_to_j(self):
        with pytest.raises(ValueError, match=re.escape("need 0 <= i < j")):
            TTransform(1, 1, F(1, 2))

    def test_certificate_refuses_an_empty_grid(self):
        with pytest.raises(ValueError, match="grid size must be positive"):
            PermutationCertificate(n=0, terms=(((), F(1)),))

    def test_coupling_refuses_a_zero_denominator(self):
        with pytest.raises(ValueError, match="the cell denominator must be positive"):
            MartingaleCoupling(n=1, cells=(((0,), (1,)),), den=0,
                               row_values=(F(0),), col_values=(F(0),))

    # 2 x 2 couplings over den = 4 whose rows and columns each hold 2 and
    # whose values are all 0: each row lists one flaw of the sparse form
    @pytest.mark.parametrize("row0, row1, message", [
        # column -1 would alias column 1, and every sum would hold
        (((-1, 0), (1, 1)), ((0, 1), (1, 1)), "row 0 has a column outside 0..1"),
        (((0, 0), (1, 1)), ((1, 1), (1, 1)), "the columns of row 0 must ascend strictly"),
        (((0, 1), (2, 0)), ((0, 1), (0, 2)), "row 0 lists a zero cell"),
        (((0, 1), (2,)), ((1,), (2,)), "matrix must be square"),
    ], ids=["column_out_of_range", "columns_not_ascending", "zero_cell", "unequal_lengths"])
    def test_coupling_refuses_a_flawed_sparse_row(self, row0, row1, message):
        zeros = (F(0), F(0))
        with pytest.raises(ValueError) as refused:
            MartingaleCoupling(2, (row0, row1), 4, zeros, zeros)
        assert str(refused.value) == message


class TestVerifierDesign:
    def test_dominance_defines_the_witnesses_and_imports_no_certify(self):
        import divcert.certify
        import divcert.dominance

        with open(divcert.dominance.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        certify_imports = [
            node for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("certify"))
            or (isinstance(node, ast.Import)
                and any(a.name.endswith("certify") for a in node.names))
        ]
        assert certify_imports == []
        for name in ("TTransform", "PermutationCertificate", "MartingaleCoupling"):
            assert getattr(divcert.dominance, name).__module__ == "divcert.dominance"
        assert divcert.certify.PermutationCertificate is divcert.dominance.PermutationCertificate

    def test_div2_builds_no_marginal(self, monkeypatch):
        rng = random.Random(13)
        xi, eta = helpers.spread_pair(rng, 3, 2)
        cert, joint = certify_div1(xi, eta)

        def refuse(self, i):
            raise AssertionError("verify_div2_instance built a marginal")

        monkeypatch.setattr(JointDist, "marginal", refuse)
        assert verify_div2_instance(xi, eta, joint, cert.weights)
        assert not verify_div2_instance(xi, xi, joint, cert.weights)
