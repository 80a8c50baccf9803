"""Constructive certificates: transfers, peeling, couplings, lifts."""

import ast
import dataclasses
import hashlib
import random
import time
from fractions import Fraction as F
from itertools import accumulate, chain
from operator import ne, sub
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divcert.dist
import divcert.dominance
import helpers
import oracles
from divcert import (
    CertificationError,
    GridCapError,
    MartingaleCoupling,
    MeansDifferError,
    PermutationCertificate,
    SimpleDist,
    SsdViolatedError,
    TTransform,
    UniformGrid,
    certify_bundle,
    certify_div1,
    check_fsd,
    check_ssd,
    common_refinement,
    decompose_ssd,
    dirac,
    kantorovich,
    lift_delta_gamma,
    mixture,
    mps_coupling,
    ssd_gap,
    t_transform_chain,
    verify_div1_certificate,
    verify_div2_instance,
)
from divcert import certify
from divcert.certify import _peel_scaled
from divcert.matching import LexMinMatching
from divcert.serialize import bundle_text, coupling_from_obj

HALF = F(1, 2)
COIN13 = SimpleDist.from_pairs([(1, HALF), (3, HALF)])


def grid(*values):
    return UniformGrid.from_values([F(v) for v in values])


def peel(rows, L):
    """The Birkhoff peel of the dense integer matrix rows/L, handed to the
    peel as one block that covers every slot."""
    return _peel_scaled([(list(range(len(rows))), rows)], L)


def count_solves(monkeypatch) -> list[int]:
    """Record the row count of every matching kernel solve from now on."""
    calls = []
    solve = LexMinMatching.solve

    def counted(kernel):
        calls.append(len(kernel.col_of))
        return solve(kernel)

    monkeypatch.setattr(LexMinMatching, "solve", counted)
    return calls


@st.composite
def block_stochastic_rows(draw, max_n=8):
    """Integer rows summing to L in every row and column, built block by
    block as sums of weighted permutation matrices.  Blocks take their
    rows and columns from drawn orders, so they interleave; blocks may be
    1 x 1 or the whole matrix.  Returns (rows, L)."""
    n = draw(st.integers(1, max_n))
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(n)))
    L = draw(st.integers(1, 12))
    rows = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        block_rows = row_order[start : start + size]
        block_cols = col_order[start : start + size]
        cuts = sorted(draw(st.sets(st.integers(1, L), max_size=3)) - {L})
        for weight in map(sub, cuts + [L], [0] + cuts):
            sigma = draw(st.permutations(range(size)))
            for r, c in zip(block_rows, sigma):
                rows[r][block_cols[c]] += weight
        start += size
    return rows, L


class TestTransforms:
    def test_apply_mixes_two_slots(self):
        tr = TTransform(0, 2, F(1, 4))
        vec = [F(0), F(5), F(8)]
        oracles.apply_transform(tr, vec)
        assert vec == [F(2), F(5), F(6)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            TTransform(2, 1, HALF)
        with pytest.raises(ValueError):
            TTransform(0, 1, F(0))
        with pytest.raises(ValueError):
            TTransform(0, 1, F(3, 2))

    def test_chain_reaches_target(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 12)
            b = helpers.rand_grid(rng, n)
            # averaging adjacent slots produces a grid majorized by b
            vals = list(b.values)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i != j:
                    avg = (vals[i] + vals[j]) / 2
                    vals[i] = vals[j] = avg
            a = UniformGrid.from_values(sorted(vals))
            chain = t_transform_chain(a, b)
            assert len(chain) <= n - 1 or (n == 1 and not chain)
            worked = list(b.values)
            for tr in chain:
                oracles.apply_transform(tr, worked)
            assert worked == list(a.values)

    def test_grids_of_different_sizes_are_refused(self):
        with pytest.raises(ValueError, match="grid sizes differ: 2 vs 3"):
            t_transform_chain(grid(1, 1), grid(0, 1, 2))

    def test_chain_is_linear_at_scale(self):
        a, b = common_refinement(*helpers.spread_pair(random.Random(3), 8, 10))
        assert a.n == 8192
        start = time.perf_counter()
        chain = t_transform_chain(a, b)
        assert time.perf_counter() - start < 2.0
        assert len(chain) <= a.n - 1
        worked = list(b.values)
        for tr in chain:
            oracles.apply_transform(tr, worked)
        assert worked == list(a.values)

    def test_rejects_non_majorized(self):
        with pytest.raises(CertificationError, match="a is not majorized by b"):
            t_transform_chain(grid(1, 3), grid(2, 2))


def times_grid(matrix, values):
    """The matrix applied to a value vector, one Fraction sum per row."""
    return tuple(sum((c * v for c, v in zip(row, values)), F(0)) for row in matrix)


class TestBuildDoublyStochastic:
    """D = rows/L, the integer transfer product behind both the certificate
    and the coupling, seen through the coupling C = D/n."""

    def test_single_transfer(self):
        c = mps_coupling(grid(2, 2).dist, grid(1, 3).dist)
        assert [[2 * x for x in row] for row in c.matrix] == [[HALF, HALF], [HALF, HALF]]

    def test_identity(self):
        g = grid(1, 4, 6)
        c = mps_coupling(g.dist, g.dist)
        third = F(1, 3)
        assert c.matrix == ((third, 0, 0), (0, third, 0), (0, 0, third))

    def test_three_slot_example(self):
        a, b = grid(1, 2, 3), grid(0, 2, 4)
        c = mps_coupling(a.dist, b.dist)
        assert (c.row_values, c.col_values) == (a.values, b.values)
        assert times_grid([[3 * x for x in row] for row in c.matrix], b.values) == a.values

    def test_random_majorized_pairs(self):
        rng = random.Random(2)
        for _ in range(100):
            xi, eta = helpers.mps_pair(rng, base_atoms=5, max_doublings=2)
            a, b = common_refinement(xi, eta)
            c = mps_coupling(xi, eta)
            assert (c.row_values, c.col_values) == (a.values, b.values)
            D = [[a.n * x for x in row] for row in c.matrix]
            assert times_grid(D, b.values) == a.values


class TestBirkhoff:
    def test_permutation_matrix_is_itself(self):
        rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert peel(rows, 1) == [((1, 2, 0), F(1))]

    def test_two_by_two_split(self):
        assert peel([[1, 1], [1, 1]], 2) == [((0, 1), HALF), ((1, 0), HALF)]

    def test_flat_three_by_three_peels_cycles(self):
        third = F(1, 3)
        terms = peel([[1] * 3 for _ in range(3)], 3)
        assert terms == [
            ((0, 1, 2), third),
            ((1, 2, 0), third),
            ((2, 0, 1), third),
        ]
        assert oracles.reassemble(terms, 3) == [[third] * 3 for _ in range(3)]

    def test_reassembles_exactly(self):
        # the peel's terms add back up to n times the coupling shipped
        # with them, cell by cell: both are the one D
        rng = random.Random(3)
        for _ in range(60):
            xi, eta = helpers.mps_pair(rng, base_atoms=5, max_doublings=2)
            cert, _, coupling = certify_bundle(xi, eta)
            n = cert.n
            assert oracles.reassemble(cert.terms, n) == [
                [n * x for x in row] for row in coupling.matrix
            ]
            assert len(cert.terms) <= (n - 1) ** 2 + 1

    def test_deterministic(self):
        rng = random.Random(4)
        xi, eta = helpers.mps_pair(rng, base_atoms=6, max_doublings=2)
        assert certify_div1(xi, eta)[0] == certify_div1(xi, eta)[0]

    def test_terms_are_byte_identical_to_the_recorded_digest(self):
        # Pins every peel round's lex-min matching and weight: the digest
        # was recorded from the cold-start kernel, which re-solved each
        # round from scratch, so it proves that faster kernels and
        # refactors leave the certificates byte-identical.
        rng = random.Random(31337)
        pairs = [helpers.mps_pair(rng) for _ in range(60)]
        pairs += [helpers.spread_pair(rng, 8, 3) for _ in range(4)]
        assert [common_refinement(xi, eta)[0].n for xi, eta in pairs[-4:]] == [64] * 4
        digest = hashlib.sha256()
        for xi, eta in pairs:
            cert = certify_div1(xi, eta)[0]
            digest.update(f"n {cert.n}\n".encode())
            for perm, weight in cert.terms:
                digest.update(f"{' '.join(map(str, perm))} {weight}\n".encode())
        assert digest.hexdigest() == (
            "ef9c530805c79f857cd82dfc9f2f92f3a47a7514fbac3678860950f84f28cbe2"
        )

    def test_the_n128_pair_writes_the_recorded_bundle(self):
        # The second draw of spread_pair(Random(1), 8, 4) refines to 128
        # slots, with blocks of 1, 1, 4, 6, 11, 12 and 93 slots: the 93-slot
        # block holds the widest bitsets of any test input, past 64 bits.
        # The digest was recorded before the peel kept one kernel per block.
        rng = random.Random(1)
        helpers.spread_pair(rng, 8, 4, 32, 8)
        xi, eta = helpers.spread_pair(rng, 8, 4, 32, 8)
        cert, joint, coupling = certify_bundle(xi, eta)
        assert (cert.n, len(cert.terms)) == (128, 4420)
        text = bundle_text(cert, joint, coupling).encode()
        assert len(text) == 18_216_437
        assert hashlib.sha256(text).hexdigest() == (
            "8596a9f2a06afbcb995a1dc289a2c54d45b1024e682ec64749372e5456738e1b"
        )

    def test_corrupt_input_is_detected(self):
        # rows that are not doubly stochastic reach the peel's own guard
        rows = [[2, 0], [0, 1]]
        with pytest.raises(ValueError):
            peel(rows, 2)

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [0, 0]], [[1, 0], [1, 0]], [[0, 0, 0], [0, 1, 1], [0, 1, 1]]]
    )
    def test_non_square_block_is_detected(self, rows):
        # a block with more columns than rows, or more rows than columns,
        # has no perfect matching: the same ValueError, not an IndexError
        with pytest.raises(ValueError, match="no perfect matching"):
            peel(rows, 2)

    def test_interleaved_support_is_peeled_as_one_block(self, monkeypatch):
        # rows 0 and 2 use columns 1 and 3; rows 1 and 3 use columns 0 and 2.
        # No chain makes this block, whose support falls in two parts: the
        # peel takes it whole, as it takes every block of D.
        rows = [[0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0]]
        calls = count_solves(monkeypatch)
        third = F(1, 3)
        expected = [((1, 0, 3, 2), third), ((3, 0, 1, 2), third), ((3, 2, 1, 0), third)]
        assert oracles.naive_peel([row[:] for row in rows], 3) == expected
        calls.clear()
        assert peel(rows, 3) == expected
        # the block's kernel solves once per round of its peel, on all 4 rows
        assert calls == [4, 4, 4]

    @given(block_stochastic_rows())
    @example(([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1))  # three 1 x 1 blocks
    @example(([[2, 1, 1], [1, 2, 1], [1, 1, 2]], 4))  # one full block
    @example(([[0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0]], 3))  # interleaved
    # two blocks reach zero in the same rounds: the tied breakpoints 1 and 2
    # give one term each, two terms in all
    @example(([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 2))
    # one block of D holding three support blocks, 1 x 1, 2 x 2 and 1 x 1,
    # that end together at L
    @example(([[0, 3, 0, 0], [0, 0, 1, 2], [3, 0, 0, 0], [0, 0, 2, 1]], 3))
    @settings(max_examples=200, deadline=None)
    def test_block_peel_equals_the_whole_support_peel(self, case):
        rows, L = case
        expected = oracles.naive_peel([row[:] for row in rows], L)
        assert peel(rows, L) == expected


@st.composite
def transfer_chains(draw, max_n=8):
    """(n, transfers): up to 2n transfers (i, j, s) on n slots, s = 1, a
    pure swap, among the shares.  They need not come from a pair of
    grids; the tests hand them to the product in place of the chain."""
    n = draw(st.integers(1, max_n))
    transfers = []
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        s = draw(st.sampled_from([F(1, 4), F(1, 3), HALF, F(2, 3), F(3, 4), F(1)]))
        transfers.append(TTransform(i, j, s))
    return n, tuple(transfers)


def expand(blocks, n):
    """The dense n x n rows of the matrix held as `blocks`."""
    rows = [[0] * n for _ in range(n)]
    for slots, block in blocks:
        for i, row in zip(slots, block):
            for j, x in zip(slots, row):
                rows[i][j] = x
    return rows


def separated_spread_pair(rng, atoms=8, doublings=3):
    """xi uniform on 0, 100, 200, ...; eta splits every slot `doublings`
    times at +/- an odd number of eighths below 1.  The spreads of two
    atoms never overlap, and an odd count of odd eighths never sums to
    0, so no slot of eta keeps its atom's value."""
    xs = [F(100 * k) for k in range(atoms)]
    es = list(xs)
    for _ in range(doublings):
        shares = [F(rng.randrange(1, 8, 2), 8) for _ in es]
        es = [v + sign * s for v, s in zip(es, shares) for sign in (-1, 1)]
    return UniformGrid.from_values(xs).dist, UniformGrid.from_values(es).dist


@st.composite
def majorized_grids(draw, max_n=10):
    """(a, b): b a sorted grid of 1..max_n slots with values k/d, |k| <= 4
    and d <= 3, so values tie and repeat; a is b after up to four random
    transfers (none: xi = eta), sorted, so b majorizes a."""
    n = draw(st.integers(1, max_n))
    small = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    b = sorted(draw(st.lists(small, min_size=n, max_size=n)))
    a = list(b)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        s = draw(st.sampled_from((F(1, 4), HALF, F(3, 4), F(1))))
        a[i], a[j] = a[i] + s * (a[j] - a[i]), a[j] + s * (a[i] - a[j])
    return UniformGrid.from_values(a), UniformGrid.from_values(b)


def support_components(rows):
    """(rows, columns) of each connected component of the positive cells
    of a square matrix, by a flood fill from each row not yet reached."""
    n = len(rows)
    reached = set()
    components = []
    for start in range(n):
        if start in reached:
            continue
        comp_rows, comp_cols, todo = {start}, set(), [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if rows[i][j] and j not in comp_cols:
                    comp_cols.add(j)
                    fresh = {k for k in range(n) if rows[k][j]} - comp_rows
                    comp_rows |= fresh
                    todo.extend(fresh)
        reached |= comp_rows
        components.append((sorted(comp_rows), sorted(comp_cols)))
    return components


class TestBlockProduct:
    """The transfer product, held as its blocks, against the dense product
    that updated full rows (oracles.naive_scaled_transfer_rows)."""

    @given(majorized_grids())
    @example((grid(5), grid(5)))  # n = 1
    @example((grid(1, 1, 4, 4), grid(1, 1, 4, 4)))  # xi = eta, with ties
    @settings(max_examples=300, deadline=None)
    def test_every_block_is_one_support_component(self, pair):
        # The chain's shares lie strictly between 0 and 1, so a transfer
        # gives both rows the union of their supports and the support of
        # every block of D is connected: the peel needs no finer split.
        a, b = pair
        assert all(0 < tr.s < 1 for tr in t_transform_chain(a, b))
        blocks, _ = certify._scaled_transfer_rows(a, b)
        components = support_components(expand(blocks, a.n))
        assert components == [(slots, slots) for slots, _ in blocks]

    @given(transfer_chains())
    @example((1, ()))  # n = 1
    @example((4, (TTransform(0, 2, HALF), TTransform(1, 3, F(1, 3)))))  # interleaved blocks
    # two swaps: one block {0, 2, 3} of D, holding three support blocks
    @example((4, (TTransform(0, 2, F(1)), TTransform(2, 3, F(1)))))
    @settings(max_examples=200, deadline=None)
    def test_block_product_equals_the_dense_product(self, case):
        n, transfers = case
        grid_n = UniformGrid(dirac(0), n)  # the substituted chain ignores the grids
        with mock.patch.object(certify, "t_transform_chain", lambda a, b: transfers):
            blocks, L = certify._scaled_transfer_rows(grid_n, grid_n)
            rows, dense_L = oracles.naive_scaled_transfer_rows(grid_n, grid_n)
        assert sorted(i for slots, _ in blocks for i in slots) == list(range(n))
        for slots, block in blocks:
            assert [len(row) for row in block] == [len(slots)] * len(slots)
        assert (expand(blocks, n), L) == (rows, dense_L)
        assert _peel_scaled(blocks, L) == oracles.naive_peel(rows, L)

    def test_spread_pairs(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = common_refinement(*helpers.mps_pair(rng))
            blocks, L = certify._scaled_transfer_rows(a, b)
            assert (expand(blocks, a.n), L) == oracles.naive_scaled_transfer_rows(a, b)

    def test_work_stays_inside_the_blocks(self, monkeypatch):
        # The product multiplies eight 8 x 8 blocks, never a 64-wide row,
        # and the peel solves a block's kernel once per round of the
        # block's own peel: once per block breakpoint.
        a, b = common_refinement(*separated_spread_pair(random.Random(1)))
        assert a.n == 64
        blocks, L = certify._scaled_transfer_rows(a, b)
        assert [slots for slots, _ in blocks] == [list(range(k, k + 8)) for k in range(0, 64, 8)]
        assert all(len(block) == 8 and {len(row) for row in block} == {8} for _, block in blocks)
        dense = expand(blocks, 64)
        solo = [
            oracles.naive_peel([[dense[i][j] for j in cols] for i in rows], L)
            for rows, cols in support_components(dense)
        ]
        breakpoints = [list(accumulate(w * L for _, w in terms)) for terms in solo]
        calls = count_solves(monkeypatch)
        terms = _peel_scaled(blocks, L)
        assert len(calls) == sum(map(len, breakpoints)) < len(blocks) * len(terms)
        assert len(terms) == len(set(chain.from_iterable(breakpoints)))
        assert terms == oracles.naive_peel(dense, L)


def run_count(cells) -> int:
    """The number of runs of equal adjacent entries of `cells`."""
    return 1 + sum(map(ne, cells, cells[1:]))


class TestSelfCheck:
    def test_checks_fold_once_per_run(self, monkeypatch):
        # Both verifiers cut each slot's column of sources, or each joint
        # atom's vector, into runs of equal adjacent cells once; combine and
        # the convex combination then multiply once per run, not once per
        # cell, and the mixture reads the same runs.  The joint keeps its
        # cut, and the bundle writer reads it: across the div-2 check and
        # the write, each joint vector is cut once, and the writer cuts none.
        xi, eta = separated_spread_pair(random.Random(1))
        cert, joint, coupling = certify_bundle(xi, eta)
        n, m = cert.n, len(cert.terms)
        column_runs = sum(map(run_count, zip(*(perm for perm, _ in cert.terms))))
        joint_runs = sum(map(run_count, joint.rows))
        assert (n, m, column_runs, joint_runs) == (64, 222, 692, 643)
        assert joint_runs <= column_runs < n * m // 20

        runs = divcert.dist._runs
        made, products = [], []

        def counted_runs(*args):
            out = runs(*args)
            made.append(len(out[0]))
            return out

        def counted_mul(x, y):
            products.append(1)
            return x * y

        monkeypatch.setattr(divcert.dominance, "_runs", counted_runs)
        monkeypatch.setattr(divcert.dominance, "mul", counted_mul)
        assert verify_div1_certificate(xi, eta, cert)
        assert (len(made), sum(made), len(products)) == (n, column_runs, column_runs)

        run_starts = divcert.dist._run_starts
        cuts = []

        def counted_starts(cells):
            cuts.append(len(cells))
            return run_starts(cells)

        made.clear()
        monkeypatch.setattr(divcert.dist, "_runs", counted_runs)
        monkeypatch.setattr(divcert.dist, "_run_starts", counted_starts)
        assert verify_div2_instance(xi, eta, joint, cert.weights)
        assert (len(made), sum(made)) == (len(joint.rows), joint_runs)
        assert cuts == [m] * len(joint.rows)
        cuts.clear()
        bundle_text(cert, joint, coupling)
        assert cuts == []

        scaled = joint._on_scale(cert.weights)
        products.clear()
        monkeypatch.setattr(divcert.dist, "mul", counted_mul)
        monkeypatch.setattr(divcert.dist, "_dist_on_scale", lambda mass, vden, pden: mass)
        scaled.convex_combination()
        assert len(products) == joint_runs


class TestCertifyDiv1:
    def test_identity_certificate(self):
        d = dirac(7)
        cert, joint = certify_div1(d, d)
        assert cert.terms == (((0,), F(1)),)
        assert joint.m == 1

    def test_two_point_example(self):
        cert, joint = certify_div1(dirac(2), COIN13)
        assert cert.terms == (((0, 1), HALF), ((1, 0), HALF))
        assert verify_div1_certificate(dirac(2), COIN13, cert)
        assert verify_div2_instance(dirac(2), COIN13, joint, cert.weights)

    def test_three_point_example_against_bruteforce(self):
        xi = UniformGrid.from_values([1, 2, 3]).dist
        eta = UniformGrid.from_values([0, 2, 4]).dist
        cert, joint = certify_div1(xi, eta)
        assert verify_div1_certificate(xi, eta, cert)
        a, b = common_refinement(xi, eta)
        assert oracles.div1_feasible_bruteforce(a, b)
        recon = oracles.reconstruct_slots(cert.terms, b.values)
        assert recon == a.values

    def test_means_differ(self):
        with pytest.raises(MeansDifferError):
            certify_div1(dirac(0), dirac(1))

    def test_ssd_violated_reports_level(self):
        coin = SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        with pytest.raises(SsdViolatedError) as exc:
            certify_div1(coin, dirac(0))
        assert exc.value.alpha == HALF

    def test_random_spread_pairs_verify(self):
        rng = random.Random(5)
        for _ in range(100):
            xi, eta = helpers.mps_pair(rng, base_atoms=5, max_doublings=2)
            cert, joint = certify_div1(xi, eta)
            assert verify_div1_certificate(xi, eta, cert)
            assert verify_div2_instance(xi, eta, joint, cert.weights)
            assert mixture(joint.marginals(), cert.weights) == eta

    def test_certificate_type_validates(self):
        with pytest.raises(ValueError):
            PermutationCertificate(n=2, terms=(((0, 0), F(1)),))
        with pytest.raises(ValueError):
            PermutationCertificate(n=2, terms=(((0, 1), HALF),))
        with pytest.raises(ValueError):
            PermutationCertificate(
                n=1, terms=(((0,), HALF), ((0,), HALF))
            )  # exceeds the term bound for n=1


class TestCertifyBundle:
    def test_parts_equal_the_separate_constructions(self):
        rng = random.Random(8)
        pairs = [helpers.mps_pair(rng, base_atoms=5, max_doublings=2) for _ in range(20)]
        pairs += [(dirac(2), COIN13), (dirac(5), dirac(5))]
        for xi, eta in pairs:
            cert, joint, coupling = certify_bundle(xi, eta)
            assert (cert, joint) == certify_div1(xi, eta)
            assert coupling == mps_coupling(xi, eta)

    def test_the_chain_decides_and_a_refusal_runs_the_checks_in_order(self, monkeypatch):
        # A certified pair reads no Fraction mean and no SSD scan.  A refused
        # pair runs them after the refinement or the chain fails: the two
        # means first, then the scan, then the size limit's own error.
        calls = []
        mean = SimpleDist.mean
        violation = certify.ssd_violation

        def counted_mean(d):
            calls.append("mean")
            return mean(d)

        def counted_violation(xi, eta):
            calls.append("ssd")
            return violation(xi, eta)

        monkeypatch.setattr(SimpleDist, "mean", counted_mean)
        monkeypatch.setattr(certify, "ssd_violation", counted_violation)
        certify_bundle(*separated_spread_pair(random.Random(1)))
        assert calls == []
        coin = SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        fine = SimpleDist.from_pairs([(0, F(1, 1031)), (1, F(1030, 1031))])
        for pair, error, order in (
            ((dirac(0), dirac(1)), MeansDifferError, ["mean", "mean"]),
            ((coin, dirac(0)), SsdViolatedError, ["mean", "mean", "ssd"]),
            ((fine, fine), GridCapError, ["mean", "mean", "ssd"]),
        ):
            calls.clear()
            with pytest.raises(error):
                certify_bundle(*pair)
            assert calls == order

    def test_a_failed_chain_on_a_pair_that_holds_is_an_assertion(self, monkeypatch):
        # equal means and second-order dominance are majorization on the
        # common grid, so the chain cannot fail on such a pair
        def failed(a, b):
            raise CertificationError("a is not majorized by b")

        monkeypatch.setattr(certify, "t_transform_chain", failed)
        for build in (certify_bundle, certify_div1, mps_coupling):
            with pytest.raises(AssertionError, match="transfer chain failed"):
                build(dirac(2), COIN13)


class TestMpsCoupling:
    def test_degenerate(self):
        c = mps_coupling(dirac(5), dirac(5))
        assert c.matrix == ((F(1),),)

    def test_two_point_example(self):
        c = mps_coupling(dirac(2), COIN13)
        quarter = F(1, 4)
        assert c.matrix == ((quarter, quarter), (quarter, quarter))
        assert c.row_values == (F(2), F(2))
        assert c.col_values == (F(1), F(3))

    def test_coin_example(self):
        coin = SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        c = mps_coupling(dirac(0), coin)
        assert c.matrix == ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_random_pairs_satisfy_invariants(self):
        # the MartingaleCoupling type itself re-verifies marginals and the
        # row-conditional means, so construction is the assertion
        rng = random.Random(6)
        for _ in range(60):
            xi, eta = helpers.mps_pair(rng, base_atoms=5, max_doublings=2)
            c = mps_coupling(xi, eta)
            assert c.n == common_refinement(xi, eta)[0].n

    def test_precondition_errors(self):
        with pytest.raises(MeansDifferError):
            mps_coupling(dirac(0), dirac(1))


Q = F(1, 4)

#: one broken coupling per invariant: (n, matrix, row values, column values,
#: the message the validator must give)
BROKEN_COUPLINGS = {
    # row and column sums are 1/2 and both rows average to 0
    "negative_cell": (
        2, ((F(-1, 2), F(1)), (F(1), F(-1, 2))), (F(0), F(0)), (F(0), F(0)),
        "non-negative",
    ),
    "row_sum": (2, ((Q, F(1, 8)), (Q, Q)), (F(0), F(0)), (F(0), F(0)), "row 0 sums to 3/8"),
    # rows sum to 1/2 and average back to 0, but the columns carry 1 and 0
    "column_sum": (2, ((HALF, 0), (HALF, 0)), (F(0), F(0)), (F(0), F(1)), "column sums"),
    # every sum is 1/2; row 1 averages to 1, not 2
    "martingale_row": (2, ((HALF, 0), (0, HALF)), (F(0), F(2)), (F(0), F(1)), "martingale property fails on row 1"),
    "not_square": (2, ((HALF, 0, 0), (0, HALF)), (F(0), F(1)), (F(0), F(1)), "square"),
    "grid_sizes": (2, ((HALF, 0), (0, HALF)), (F(0),), (F(0), F(1)), "size n"),
}


class TestCouplingRejects:
    @pytest.mark.parametrize("case", sorted(BROKEN_COUPLINGS))
    def test_direct(self, case):
        """Both ways in refuse with the same message: Fraction cells, and
        integer cells over a denominator the validator must reduce."""
        n, matrix, rows, cols, message = BROKEN_COUPLINGS[case]
        cells, den = helpers.integer_view(matrix)
        with pytest.raises(ValueError, match=message) as fractions_way:
            MartingaleCoupling.from_matrix(n, matrix, rows, cols)
        with pytest.raises(ValueError) as integers_way:
            MartingaleCoupling(n, cells, den, rows, cols)
        assert str(integers_way.value) == str(fractions_way.value)

    @pytest.mark.parametrize("case", sorted(BROKEN_COUPLINGS))
    def test_from_obj(self, case):
        n, matrix, rows, cols, message = BROKEN_COUPLINGS[case]
        obj = {
            "n": n,
            "row_values": [str(v) for v in rows],
            "col_values": [str(v) for v in cols],
            "matrix": [[str(x) for x in row] for row in matrix],
        }
        with pytest.raises(ValueError, match=message):
            coupling_from_obj(obj)

    def test_the_unbroken_cases_pass(self):
        # the fixes of the cases above validate, so each case breaks one thing
        MartingaleCoupling.from_matrix(2, ((HALF, 0), (0, HALF)), (F(0), F(1)), (F(0), F(1)))
        MartingaleCoupling.from_matrix(2, ((Q, Q), (Q, Q)), (F(0), F(0)), (F(0), F(0)))


class TestLift:
    def test_already_dominating(self):
        xi, eta = dirac(0), SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        res = lift_delta_gamma(xi, eta)
        assert set(res.delta) == {F(0)} and res.gamma_top == 0
        assert res.lifted_xi == xi and res.lifted_eta == eta

    def test_partial_slack(self):
        res = lift_delta_gamma(grid(2, 2).dist, grid(1, 4).dist)
        assert res.delta == (F(0), F(1))
        assert res.gamma_top == 0
        assert res.lifted_xi == grid(2, 3).dist
        assert check_ssd(res.lifted_xi, res.lifted_eta)

    def test_top_slot_slack(self):
        res = lift_delta_gamma(grid(0, 0).dist, grid(-2, 1).dist)
        assert res.delta == (F(0), F(0))
        assert res.gamma_top == 1
        assert res.lifted_eta == grid(-2, 2).dist
        assert res.lifted_xi.mean() == res.lifted_eta.mean() == 0

    @pytest.mark.parametrize("field, value, message", [
        ("delta", (F(0), F(-1)), "slack values must be non-negative"),
        ("gamma_top", F(-1), "top-slot slack must be non-negative"),
    ], ids=["slack", "gamma_top"])
    def test_negative_slack_is_refused(self, field, value, message):
        res = lift_delta_gamma(grid(2, 2).dist, grid(1, 4).dist)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(res, **{field: value})

    def test_gap_is_the_dominance_gap(self):
        rng = random.Random(7)
        dens = [1, 2, 3, 4, 6, 8, 12, 24]
        for _ in range(300):
            xi = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice(dens))
            eta = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice(dens))
            res = lift_delta_gamma(xi, eta)
            assert res.gap == ssd_gap(xi, eta) == sum(res.delta) / len(res.delta)

    def test_identities_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(200):
            xi = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice([1, 2, 3, 4, 6, 8, 12, 24]))
            eta = helpers.rand_dist_on_denominator(rng, prob_den=rng.choice([1, 2, 3, 4, 6, 8, 12, 24]))
            res = lift_delta_gamma(xi, eta)
            n = len(res.delta)
            assert sum(res.delta) / n == ssd_gap(xi, eta)
            assert res.lifted_xi.mean() == res.lifted_eta.mean()
            assert check_ssd(res.lifted_xi, res.lifted_eta)
            # slot-wise lifted values stay sorted
            lifted = [x + d for x, d in zip(res.xi_grid, res.delta)]
            assert lifted == sorted(lifted)
            cert, _ = certify_div1(res.lifted_xi, res.lifted_eta)
            assert verify_div1_certificate(res.lifted_xi, res.lifted_eta, cert)


class TestDecompose:
    def test_equal_means_returns_xi(self):
        rng = random.Random(8)
        xi, eta = helpers.mps_pair(rng, base_atoms=4, max_doublings=2)
        res = decompose_ssd(xi, eta)
        assert res.c is None and res.zeta == xi

    def test_truncation_example(self):
        xi = SimpleDist.from_pairs([(0, HALF), (2, HALF)])
        eta = SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        res = decompose_ssd(xi, eta)
        assert res.c == 0 and res.zeta == dirac(0)

    def test_degenerate_example(self):
        res = decompose_ssd(dirac(1), dirac(0))
        assert res.c == 0 and res.zeta == dirac(0)

    def test_requires_dominance(self):
        coin = SimpleDist.from_pairs([(-1, HALF), (1, HALF)])
        with pytest.raises(SsdViolatedError):
            decompose_ssd(coin, dirac(0))

    def test_postconditions_on_random_pairs(self):
        rng = random.Random(9)
        for _ in range(150):
            xi, eta = helpers.ssd_unequal_mean_pair(rng)
            res = decompose_ssd(xi, eta)
            assert check_fsd(xi, res.zeta)
            assert res.zeta.mean() == eta.mean()
            assert check_ssd(res.zeta, eta)
            cert, _ = certify_div1(res.zeta, eta)
            assert verify_div1_certificate(res.zeta, eta, cert)


class TestApproximationChain:
    def test_quantize_then_lift_stays_close(self):
        # quantizing both sides then lifting moves xi by at most the
        # dominance gap plus the quantization error
        rng = random.Random(10)
        for _ in range(50):
            xi, eta = helpers.mps_pair(rng, base_atoms=4, max_doublings=2)
            q = rng.choice([2, 4, 8])
            from divcert import quantize_values

            xq = quantize_values(xi, q)
            eq = quantize_values(eta, q)
            res = lift_delta_gamma(xq, eq)
            gap = ssd_gap(xq, eq)
            assert kantorovich(res.lifted_xi, xq) <= gap
            assert kantorovich(res.lifted_xi, xi) <= gap + F(1, 2 * q)


def test_certify_imports_only_witness_classes_from_dominance():
    # the checks and verifiers of divcert.dominance stay independent of the
    # construction: certify builds their witness types and calls none of them
    tree = ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("dominance", "divcert.dominance"):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "dominance" not in {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    assert imported
    assert [name for name in imported if not isinstance(getattr(divcert.dominance, name), type)] == []
