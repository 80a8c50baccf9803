"""Matching kernel against a brute-force oracle."""

import itertools
import random

from divcert import matching


def brute_lex_min(adjacency):
    n = len(adjacency)
    best = None
    for perm in itertools.permutations(range(n)):
        if all(perm[i] in adjacency[i] for i in range(n)):
            cand = list(perm)
            if best is None or cand < best:
                best = cand
    return best


def random_adjacency(rng, n, solvable=True):
    adj = [set() for _ in range(n)]
    if solvable:
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            adj[i].add(j)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                adj[i].add(j)
    return [sorted(cols) for cols in adj]


class TestAgainstBruteForce:
    def test_random_graphs(self):
        rng = random.Random(123)
        for _ in range(1500):
            n = rng.randint(1, 6)
            adj = random_adjacency(rng, n, solvable=rng.random() < 0.7)
            expected = brute_lex_min(adj)
            got = matching.LexMinMatching(adj).solve()
            assert got == (None if expected is None else tuple(expected))

    def test_permutation_support(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 12)
            perm = list(range(n))
            rng.shuffle(perm)
            adj = [[perm[i]] for i in range(n)]
            assert matching.LexMinMatching(adj).solve() == tuple(perm)

    def test_no_matching(self):
        assert matching.LexMinMatching([[0], [0]]).solve() is None
        assert matching.LexMinMatching([[], [0]]).solve() is None

    def test_complete_graph_is_identity(self):
        adj = [list(range(5)) for _ in range(5)]
        assert matching.LexMinMatching(adj).solve() == (0, 1, 2, 3, 4)


class TestRoundRepair:
    """One kernel solved, stripped of edges and solved again, as in the
    rounds of a peel: each solve equals a cold search of the graph as it
    stands."""

    @staticmethod
    def solve_after_drops(adj, keep):
        """Solve `adj`, drop every edge (i, j) with not keep(i, j), solve
        again; returns both results as lists (or None)."""
        kernel = matching.LexMinMatching(adj)
        first = kernel.solve()
        for i, cols in enumerate(adj):
            for j in cols:
                if not keep(i, j):
                    kernel.drop(i, j)
        second = kernel.solve()
        return list(first), None if second is None else list(second)

    def test_dropping_matched_edges(self):
        # G' is G minus some edges of G's lex-min matching M, as in a peel
        # round: the repaired matching is the lex-min matching of G'.
        rng = random.Random(321)
        checked = 0
        diverged_at_row_0 = 0
        while checked < 400:
            n = rng.randint(1, 6)
            adj = random_adjacency(rng, n)
            hint = brute_lex_min(adj)
            dropped = set(rng.sample(range(n), rng.randint(1, n)))
            if checked % 4 == 0:
                dropped.add(0)
            smaller = [
                [j for j in cols if not (i in dropped and j == hint[i])]
                for i, cols in enumerate(adj)
            ]
            expected = brute_lex_min(smaller)
            first, got = self.solve_after_drops(adj, lambda i, j: j in smaller[i])
            assert first == hint and got == expected
            if expected is None:
                continue
            checked += 1
            diverged_at_row_0 += expected[0] != hint[0]
        assert diverged_at_row_0 > 50

    def test_prefix_diverges_at_row_0(self):
        # K3 has lex-min [0, 1, 2]; without the edge (0, 0) rows 0 and 1 move.
        k3 = [[0, 1, 2]] * 3
        first, got = self.solve_after_drops(k3, lambda i, j: (i, j) != (0, 0))
        assert (first, got) == ([0, 1, 2], [1, 0, 2])

    def test_dropping_arbitrary_edges(self):
        # Unmatched edges may go too, and G' may have no perfect matching
        # at all: the repair then returns None.
        rng = random.Random(55)
        for _ in range(400):
            n = rng.randint(1, 6)
            adj = random_adjacency(rng, n)
            hint = brute_lex_min(adj)
            smaller = [[j for j in cols if rng.random() < 0.7] for cols in adj]
            first, got = self.solve_after_drops(adj, lambda i, j: j in smaller[i])
            assert first == hint and got == brute_lex_min(smaller)


def test_active_backend_names_the_one_kernel():
    assert matching.active_backend() == "python"
