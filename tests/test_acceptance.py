"""Acceptance suite.

One test per criterion; each prints a PASS line once every assertion in
it has held (run with -s to see them).  All equality assertions are
exact rational comparisons: there are no tolerances anywhere, only the
two stated runtime budgets.
"""

import csv
import itertools
import random
import time
from fractions import Fraction as F

import pytest

import helpers
import oracles
from divcert import (
    CertificationError,
    UniformGrid,
    certify_div1,
    check_fsd,
    check_majorization,
    check_ssd,
    common_refinement,
    convex_combination,
    decompose_ssd,
    dirac,
    es_curve,
    kantorovich,
    kantorovich_cdf,
    lift_delta_gamma,
    mixture,
    mps_coupling,
    ssd_gap,
    verify_div1_certificate,
)
from divcert.cli import main


def _pass(n, message):
    print(f"ACCEPTANCE PASS criterion {n}: {message}")


@pytest.fixture(scope="module")
def spread_pairs_500():
    rng = random.Random(20260808)
    return [helpers.mps_pair(rng) for _ in range(500)]


def test_criterion_1_certificate_round_trip(spread_pairs_500):
    elapsed = 0.0
    max_n = 0
    max_terms = 0
    for xi, eta in spread_pairs_500:
        start = time.perf_counter()
        cert, joint = certify_div1(xi, eta)
        elapsed += time.perf_counter() - start
        a, b = common_refinement(xi, eta)
        assert a.n <= 64
        max_n = max(max_n, a.n)
        # exact slot-wise reconstruction, tolerance zero
        assert oracles.reconstruct_slots(cert.terms, b.values) == a.values
        assert len(cert.terms) <= (cert.n - 1) ** 2 + 1
        max_terms = max(max_terms, len(cert.terms))
    assert elapsed < 10.0, f"500 constructions took {elapsed:.2f}s, budget is 10s"
    _pass(1, f"500 exact round-trips, n up to {max_n}, at most {max_terms} terms, "
             f"{elapsed:.2f}s")


def test_criterion_2_bruteforce_oracle_equivalence():
    checked = 0
    feasible = 0
    for n in (1, 2, 3, 4):
        grids = [
            UniformGrid.from_values([F(v) for v in vals])
            for vals in itertools.combinations_with_replacement(range(-3, 4), n)
        ]
        dists = [g.dist for g in grids]
        for (ga, da) in zip(grids, dists):
            for (gb, db) in zip(grids, dists):
                try:
                    certify_div1(da, db)
                    constructed = True
                except CertificationError:
                    constructed = False
                assert constructed == oracles.div1_feasible_bruteforce(ga, gb), (
                    f"disagreement on {ga.values} vs {gb.values}"
                )
                checked += 1
                feasible += constructed
    _pass(2, f"{checked} grid pairs, {feasible} feasible, 100% oracle agreement")


def test_criterion_3_es_chain_inequality():
    rng = random.Random(3)
    checked_levels = 0
    for _ in range(200):
        j = helpers.rand_joint(rng, max_coords=4, max_atoms=32)
        w = helpers.rand_simplex_weights(rng, j.m)
        combined = convex_combination(j, w)
        marginals = j.marginals()
        mixed = mixture(marginals, w)
        curves = [es_curve(d) for d in (combined, *marginals, mixed)]
        levels = sorted(set().union(*(c.alphas for c in curves)))
        for alpha in levels:
            left = curves[0].es_at(alpha)
            middle = sum(
                wi * c.es_at(alpha) for wi, c in zip(w, curves[1:-1])
            )
            right = curves[-1].es_at(alpha)
            assert left <= middle <= right
            checked_levels += 1
    _pass(3, f"200 joint laws, chain inequality exact at {checked_levels} levels")


def test_criterion_4_transport_representation_identity():
    rng = random.Random(4)
    for _ in range(1000):
        a = helpers.rand_dist(rng)
        b = helpers.rand_dist(rng)
        q = kantorovich(a, b)
        assert q == kantorovich_cdf(a, b)
        assert q == kantorovich(b, a)
        assert (q == 0) == (a == b)
    for _ in range(200):
        a = helpers.rand_dist(rng)
        b = helpers.rand_dist(rng)
        c = helpers.rand_dist(rng)
        assert kantorovich(a, c) <= kantorovich(a, b) + kantorovich(b, c)
    _pass(4, "1000 pairs agree across both integral forms; metric axioms exact "
             "on 200 triples")


def test_criterion_5_lift_identities():
    rng = random.Random(5)
    dens = [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    for _ in range(500):
        xi = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice(dens))
        eta = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice(dens))
        res = lift_delta_gamma(xi, eta)
        assert sum(res.delta) / len(res.delta) == ssd_gap(xi, eta)
        assert res.lifted_xi.mean() == res.lifted_eta.mean()
        assert check_ssd(res.lifted_xi, res.lifted_eta)
        cert, _ = certify_div1(res.lifted_xi, res.lifted_eta)
        assert verify_div1_certificate(res.lifted_xi, res.lifted_eta, cert)
    _pass(5, "500 arbitrary pairs: slack mean equals the dominance gap, lifted "
             "pairs certify")


def test_criterion_6_decomposition():
    rng = random.Random(6)
    for _ in range(200):
        xi, eta = helpers.ssd_unequal_mean_pair(rng)
        assert xi.mean() > eta.mean()
        res = decompose_ssd(xi, eta)
        assert check_fsd(xi, res.zeta)
        assert res.zeta.mean() == eta.mean()
        assert check_ssd(res.zeta, eta)
        cert, _ = certify_div1(res.zeta, eta)
        assert verify_div1_certificate(res.zeta, eta, cert)
    _pass(6, "200 unequal-mean pairs decompose and re-certify exactly")


def test_criterion_7_mps_coupling(spread_pairs_500):
    for xi, eta in spread_pairs_500:
        c = mps_coupling(xi, eta)
        n = c.n
        share = F(1, n)
        for i, row in enumerate(c.matrix):
            assert sum(row) == share
            assert n * sum(p * v for p, v in zip(row, c.col_values)) == c.row_values[i]
        for j in range(n):
            assert sum(row[j] for row in c.matrix) == share
        assert UniformGrid.from_values(c.row_values).dist == xi
        assert UniformGrid.from_values(c.col_values).dist == eta
    _pass(7, "500 couplings: uniform marginals and row-martingale condition exact")


def test_criterion_8_lln_demo(tmp_path):
    out = tmp_path / "lln.csv"
    start = time.perf_counter()
    assert main([
        "demo-lln", "--max-doublings", "6", "--grid", "1024",
        "--alpha", "1/20", "--out", str(out),
    ]) == 0
    elapsed = time.perf_counter() - start
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    kappas = [F(r["kappa"]) for r in rows]
    assert all(x > y for x, y in zip(kappas, kappas[1:])), "distance must contract"
    es_values = [F(r["es"]) for r in rows]
    assert all(x >= y for x, y in zip(es_values, es_values[1:]))
    floor = -1 - F(2, 1024)
    assert all(v >= floor for v in es_values)
    assert elapsed < 30.0, f"demo took {elapsed:.2f}s, budget is 30s"
    _pass(8, f"contraction strict across 7 stages, shortfall within bounds, "
             f"{elapsed:.2f}s")


def test_criterion_9_three_way_ssd_agreement():
    rng = random.Random(9)
    holds = 0
    for _ in range(1000):
        a, b = helpers.equal_mean_pair(rng)
        by_quantile = check_ssd(a, b)
        by_utility = oracles.ssd_by_utility(a, b)
        ga, gb = common_refinement(a, b)
        by_majorization = bool(check_majorization(ga, gb))
        assert by_quantile == by_utility == by_majorization
        holds += by_quantile
    assert 0 < holds < 1000, "generator must exercise both outcomes"
    _pass(9, f"1000 equal-mean pairs, three-way agreement ({holds} dominating)")
