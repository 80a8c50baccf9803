"""Constructive certificates for dominance relations.

Everything here produces machine-checkable witnesses with exact rational
data:

* a chain of two-coordinate transfer matrices turning one uniform grid
  into a majorized one, multiplied out to a doubly stochastic matrix D
  with a = D b, held as integer blocks over one common denominator L;
* a Birkhoff peeling of D into a convex combination of at most
  (n-1)^2 + 1 permutation matrices (the permutation-weight certificate
  for diversification dominance);
* the martingale coupling C = D/n realizing the mean-preserving spread;
* the lift that adds a non-negative slack to each side of an arbitrary
  pair until the dominated-with-equal-means case applies;
* the truncation splitting second-order dominance into a first-order
  step followed by an equal-means step.

The certificate and the coupling are two views of one D, and D exists
only in that integer form: a single private step runs the transfer
product, which holds D block by block.  The transfer chain is also the
check that the pair holds: on the common grid, equal means and
second-order dominance are majorization.  So a certified pair reads no
Fraction mean and no SSD scan, and those checks explain a refusal only
after the refinement or the chain has failed; a chain that stops
carries no witness of its own.  A transfer mixes two slots, so D is
zero outside the components of the transfer chain, and each component
is one dense k x k block of numerators over the common denominator L.
The coupling lists each row's nonzero cells from its block, over n * L,
and the peel reads the blocks (`certify_bundle` returns both from one
product); nothing here holds D as an n x n matrix.  The joint law is built from the numerators of eta's grid.  No
witness cell becomes a Fraction here: the witness types hold integer
views, and they and the rules that make them valid are defined in
`divcert.dominance` and `divcert.dist`; this module only builds them,
and imports from `divcert.dominance` nothing but those classes: the
checks and verifiers there stay independent of the construction.

All constructions are deterministic: the transfer chain always picks the
smallest deficient index and the smallest surplus index after it, and
the peeling always extracts the lexicographically smallest perfect
matching of the positive-entry graph.  D is zero outside its blocks, so
a perfect matching picks one independently in each block, and the
lex-min matching is the union of the blocks' own lex-min matchings.  A
round lowers a block's matched cells by at most that block's own
minimum, so each block of D runs exactly the peel it would run alone,
and the certificate's peel is the merge of those block peels at the
cumulative weights where a block's matching starts (`_peel_scaled`).
The chain runs on integer numerators in one forward pass: no transfer
gives a slot a surplus, so the pointer to the smallest surplus slot
never moves back.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import add, sub
from typing import Iterator

from .dist import (
    GridCapError,
    JointDist,
    SimpleDist,
    UniformGrid,
    _dist_on_scale,
    _slot_scale,
    common_refinement,
)
from .dominance import MartingaleCoupling, PermutationCertificate, TTransform
from .matching import LexMinMatching
from .risk import ssd_violation

#: Slot cap of certify_div1, mps_coupling and certify_bundle.  The
#: transfer product is dense only inside its blocks, which one component
#: of n slots makes n x n, and the coupling holds only its nonzero cells,
#: but the coupling that `divcert certify --out` and `divcert mps` write
#: is n x n text, 13 MB at n = 1024: on xi = eta with n distinct values
#: (n blocks of one slot) `divcert certify --out` took 0.16-0.26 s and a
#: peak RSS of 44 MB at n = 1024 (2-core x86-64, CPython 3.11), and its
#: time about doubled per doubling of n from n = 256.  A larger pair fails
#: with GridCapError before anything n x n is built.
CERTIFY_SLOT_CAP = 1024

#: Bound on the bits of any row denominator of the transfer product.  The
#: slot cap alone does not bound the work, which follows the size of the
#: common denominator L and the nonzero cells of D: one n = 1024 pair
#: spent 254 s in the product (L of 65,251 bits) and its peel did not
#: finish.  The pair the test suite builds from the LLN demo's first two
#: stages on 1024 points (L of 66,611 bits) crosses this bound at its
#: 64th of 1,023 transfers and fails with GridCapError at once; the
#: largest L the test suite certifies has 588 bits.
CERTIFY_DENOMINATOR_BITS = 4096


class CertificationError(ValueError):
    """A certificate cannot be built for these inputs."""


class MeansDifferError(CertificationError):
    def __init__(self, mean_xi: Fraction, mean_eta: Fraction):
        super().__init__(f"means differ: {mean_xi} vs {mean_eta}")
        self.mean_xi = mean_xi
        self.mean_eta = mean_eta


class SsdViolatedError(CertificationError):
    def __init__(self, alpha: Fraction):
        super().__init__(f"second-order dominance violated at level {alpha}")
        self.alpha = alpha


@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting an arbitrary pair to a dominated one.

    `delta` lives on the slots of xi's refined grid; `gamma_top` is added
    to the top slot of eta's.  The lifted pair has equal means and the
    lifted xi second-order dominates the lifted eta, with the mean of
    delta equal to `gap`, the dominance gap of the original pair.
    """

    xi_grid: tuple[Fraction, ...]
    eta_grid: tuple[Fraction, ...]
    delta: tuple[Fraction, ...]
    gamma_top: Fraction
    lifted_xi: SimpleDist
    lifted_eta: SimpleDist
    gap: Fraction

    def __post_init__(self):
        if any(d < 0 for d in self.delta):
            raise ValueError("slack values must be non-negative")
        if self.gamma_top < 0:
            raise ValueError("top-slot slack must be non-negative")


@dataclass(frozen=True)
class DecompositionResult:
    """Truncation step splitting second-order dominance.

    `c` is the truncation level (None when the means already match and
    zeta = xi); zeta = min(xi, c) satisfies: xi first-order dominates
    zeta, mean(zeta) = mean(eta), and zeta second-order dominates eta.
    """

    c: Fraction | None
    zeta: SimpleDist


def t_transform_chain(a: UniformGrid, b: UniformGrid) -> tuple[TTransform, ...]:
    """Transfers turning grid b into grid a, at most n-1 of them.

    Requires a to be majorized by b (equal totals, ascending prefix sums
    of a at least those of b).  Each step picks the smallest index i
    where the working vector is still below a (prefix dominance forces
    the deficit), the smallest j > i holding a surplus, and moves
    t = min(deficit, surplus) between them; every step settles at least
    one index for good.

    It runs on the integer numerators of a and b over one common
    denominator, in one forward pass: a step lowers c[j] to no less than
    a[j] and raises c[i] to no more than a[i], so no index ever gains a
    surplus and the surplus pointer j never moves back.

    The pass is also the majorization check.  Under majorization no slot
    holds a surplus at its own turn and every deficit finds a surplus
    slot after it; a chain that completes gives a = D b with D doubly
    stochastic, which implies majorization.  So the pass raises
    CertificationError exactly when a is not majorized by b, unequal
    totals included (the last slot is then left with a surplus or a
    deficit).  It only decides; `divcert.dominance.majorization_violation`
    finds where the prefix sums first fail.

    Every share s = t / (c[j] - c[i]) lies strictly between 0 and 1: t > 0
    and c[j] > a[j] >= a[i] > c[i].  If s = 1, then either a[i] = c[j] >
    a[j] >= a[i], or a[j] = c[i] < a[i] <= a[j]; both are contradictions.
    So a transfer gives both rows of the product the union of their
    supports, supports only grow, and the support of each block of D is
    connected.
    """
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    n = a.n
    (target, c), _ = _slot_scale(a, b)
    transforms = []
    j = 0
    for i in range(n):
        while c[i] < target[i]:
            j = max(j, i + 1)
            while j < n and c[j] <= target[j]:
                j += 1
            if j == n:
                break
            t = min(target[i] - c[i], c[j] - target[j])
            transforms.append(TTransform(i, j, Fraction(t, c[j] - c[i])))
            c[i] += t
            c[j] -= t
        if c[i] != target[i]:
            raise CertificationError("a is not majorized by b")
    return tuple(transforms)


#: The transfer product D as its blocks: one (slots, rows) pair per
#: component of the transfer chain, with the slots ascending and
#: rows[r][c] the numerator of D[slots[r]][slots[c]] over the common
#: denominator L; D is zero outside its blocks.
Blocks = list[tuple[list[int], list[list[int]]]]


def _components(size: int, pairs) -> list[list[int]]:
    """Connected components of the graph on 0..size-1 with the edges
    `pairs`, found by union-find: ascending member lists, ordered by
    their smallest members."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in pairs:
        x, y = find(x), find(y)
        if x != y:
            parent[y] = x
    members: dict[int, list[int]] = {}
    for x in range(size):
        members.setdefault(find(x), []).append(x)
    return list(members.values())


def _scaled_transfer_rows(a: UniformGrid, b: UniformGrid) -> tuple[Blocks, int]:
    """Integer numerators of L*D for the transfer-chain product D, held
    block by block.

    A transfer (i, j) mixes rows i and j only, so D is zero outside the
    components of the graph whose edges are the transfer pairs.  Each
    component is multiplied out as a dense k x k integer block, so a
    transfer costs O(k), not O(n).  Rows carry individual denominators
    while the chain is applied and are brought to the one common
    denominator L at the end.  Integer arithmetic keeps the peeling hot
    path free of per-operation gcd normalization.  A row denominator
    above CERTIFY_DENOMINATOR_BITS bits raises GridCapError before the
    transfer that would make it is applied.
    """
    n = a.n
    chain = t_transform_chain(a, b)
    blocks: Blocks = []
    where = [(0, 0)] * n  # slot -> (its block, its index inside the block)
    for slots in _components(n, ((tr.i, tr.j) for tr in chain)):
        rows = [[0] * len(slots) for _ in slots]
        for r, i in enumerate(slots):
            rows[r][r] = 1
            where[i] = (len(blocks), r)
        blocks.append((slots, rows))
    denoms = [1] * n
    for step, tr in enumerate(chain, start=1):
        p = tr.s.numerator
        q = tr.s.denominator
        li, lj = denoms[tr.i], denoms[tr.j]
        lcm_ij = li // math.gcd(li, lj) * lj
        den = q * lcm_ij
        if den.bit_length() > CERTIFY_DENOMINATOR_BITS:
            raise GridCapError(
                f"transfer {step} of {len(chain)} needs a row denominator above "
                f"CERTIFY_DENOMINATOR_BITS = {CERTIFY_DENOMINATOR_BITS} bits"
            )
        ci = lcm_ij // li
        cj = lcm_ij // lj
        qp = q - p
        (block, ri), (_, rj) = where[tr.i], where[tr.j]
        rows = blocks[block][1]
        xs = [x * ci for x in rows[ri]]
        ys = [y * cj for y in rows[rj]]
        rows[ri] = [qp * x + p * y for x, y in zip(xs, ys)]
        rows[rj] = [p * x + qp * y for x, y in zip(xs, ys)]
        denoms[tr.i] = denoms[tr.j] = den
    L = math.lcm(*denoms)
    for slots, rows in blocks:
        for r, i in enumerate(slots):
            m = L // denoms[i]
            if m != 1:
                rows[r] = [x * m for x in rows[r]]
    return blocks, L


def _peel_block(cells: list[list[int]], L: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Birkhoff peeling of one block alone, consuming `cells`: each round
    takes the block's lex-min perfect matching and subtracts its least
    matched cell.  One kernel holds the block's support for the whole
    peel: a cell that reaches zero leaves it, and the next round repairs
    the matching from there.  Yields (t, matching) per round, t the
    weight peeled before the round, while t < L.  Every round zeroes a
    cell, so the support runs out, and the kernel reports it, if L is
    never reached.
    """
    slots = range(len(cells))
    kernel = LexMinMatching([compress(slots, row) for row in cells])
    t = 0
    while t < L:
        match = kernel.solve()
        if match is None:
            raise ValueError("positive entries admit no perfect matching; "
                             "the matrix is not doubly stochastic")
        yield t, match
        weight = min(map(list.__getitem__, cells, match))
        for i, (row, j) in enumerate(zip(cells, match)):
            left = row[j] - weight
            row[j] = left
            if not left:
                kernel.drop(i, j)
        t += weight


def _peel_scaled(blocks: Blocks, L: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Birkhoff peeling of D, given by its blocks over L (left untouched).

    The certificate's terms are those of the round-by-round peel of the
    whole matrix: each round takes the lexicographically smallest perfect
    matching of the positive-entry bipartite graph and subtracts the
    minimum matched entry, zeroing at least one cell.  They are computed
    here as the merge of block peels, byte for byte the same, as follows.

    D is zero outside its blocks, and a block holds the same slots as its
    rows and its columns.  A perfect matching of the whole support is one
    perfect matching per block of D, chosen independently, so the lex-min
    matching is the union of the blocks' own lex-min matchings (slots
    keep their ascending order inside a block).  A round of the whole
    peel subtracts the least matched cell over all blocks, so it lowers a
    block's matched cells by at most that block's own minimum: the
    block's support, hence its matching, changes only when its own least
    cell reaches zero.  So every block runs exactly the peel it would run
    alone (`_peel_block`, on a copy of its rows), and each of its
    matchings holds from the weight peeled when it starts to the start of
    the next.  Merging them gives the whole peel: each distinct start t,
    in ascending order, begins one term, the union of the matchings
    active on (t, t_next], of weight (t_next - t)/L, where t_next is the
    next start or L.  Starts that several blocks share give one term, and
    every block starts at 0.  A block whose support falls apart as its
    cells reach zero needs nothing more: its kernel search matches every
    part at once.  A block with no perfect matching fails in that search.
    Blocks and the kernel's state across rounds change only the speed:
    the matching, and so the certificate, is the same as a search of the
    whole support from scratch gives.
    """
    perm = [0] * sum(len(slots) for slots, _ in blocks)
    # weight peeled -> (slots, matching) of the blocks whose matching starts there
    starts: dict[int, list[tuple[list[int], tuple[int, ...]]]] = {}
    for slots, cells in blocks:
        for t, match in _peel_block([row[:] for row in cells], L):
            starts.setdefault(t, []).append((slots, match))
    ts = sorted(starts)
    terms = []
    for t, end in zip(ts, ts[1:] + [L]):
        for slots, match in starts[t]:
            for i, k in zip(slots, match):
                perm[i] = slots[k]
        terms.append((tuple(perm), Fraction(end - t, L)))
    return terms


def _transfer_product(
    xi: SimpleDist, eta: SimpleDist
) -> tuple[UniformGrid, UniformGrid, Blocks, int]:
    """The one construction behind the certificate and the coupling.

    Refines both sides to the common uniform grids a and b and multiplies
    out the transfer chain: returns (a, b, blocks, L) with a = D b for the
    D whose blocks over L are `blocks`.

    The chain is the check.  On one uniform grid, equal means and
    second-order dominance are majorization (Hardy, Littlewood and
    Polya), and the chain's forward pass completes exactly when a is
    majorized by b.  So a pair that holds reads no Fraction mean and no
    SSD scan.  The chain's CertificationError only says that the pass
    stopped; a refusal is explained after the refinement or the chain
    fails, by the checks in their fixed order: unequal means raise
    MeansDifferError, then a positive quantile-gap integral raises
    SsdViolatedError.  A pair that passes both is over a size limit, and
    its GridCapError is raised as it came.  A failed chain on a pair that
    passes both would contradict the theorem, so it is an AssertionError,
    as a failed self-verification is: a fault of divcert, which
    `divcert` reports with exit 2.
    """
    try:
        a, b = common_refinement(xi, eta, CERTIFY_SLOT_CAP)
        blocks, L = _scaled_transfer_rows(a, b)
    except (GridCapError, CertificationError) as exc:
        mean_xi, mean_eta = xi.mean(), eta.mean()
        if mean_xi != mean_eta:
            raise MeansDifferError(mean_xi, mean_eta) from None
        alpha = ssd_violation(xi, eta)
        if alpha is not None:
            raise SsdViolatedError(alpha) from None
        if isinstance(exc, CertificationError):
            raise AssertionError("the transfer chain failed on a pair that holds") from exc
        raise
    return a, b, blocks, L


def _coupling(
    a: UniformGrid, b: UniformGrid, blocks: Blocks, L: int
) -> MartingaleCoupling:
    """C = D/n over n * L: each row's nonzero cells, read off its block."""
    cells = [()] * a.n
    for slots, rows in blocks:
        for i, row in zip(slots, rows):
            cells[i] = (tuple(compress(slots, row)), tuple(filter(None, row)))
    return MartingaleCoupling(a.n, tuple(cells), a.n * L, a.values, b.values)


def _certificate(
    a: UniformGrid, b: UniformGrid, blocks: Blocks, L: int
) -> tuple[PermutationCertificate, JointDist]:
    """Peel D, given by its blocks, and build the witnessing joint law.

    Slot i carries the vector (b[perm_k[i]])_k with probability 1/n, held
    as the numerators of b over one denominator.  The grid b is sorted, so
    those integers order and merge the vectors exactly as the values do.
    """
    cert = PermutationCertificate(n=a.n, terms=tuple(_peel_scaled(blocks, L)))
    (bnums,), bden = _slot_scale(b)
    counts = Counter(zip(*([bnums[src] for src in perm] for perm, _ in cert.terms)))
    vectors = sorted(counts)
    joint = JointDist(tuple(vectors), bden, tuple(map(counts.__getitem__, vectors)), a.n)
    return cert, joint


def certify_bundle(
    xi: SimpleDist, eta: SimpleDist
) -> tuple[PermutationCertificate, JointDist, MartingaleCoupling]:
    """The certificate, its joint law and the martingale coupling at once.

    Equal to ``(*certify_div1(xi, eta), mps_coupling(xi, eta))``
    but runs the transfer product, and so the check, once: the coupling
    is D/n and the certificate is the Birkhoff peel of the same D.
    """
    a, b, blocks, L = _transfer_product(xi, eta)
    coupling = _coupling(a, b, blocks, L)
    cert, joint = _certificate(a, b, blocks, L)
    return cert, joint, coupling


def certify_div1(
    xi: SimpleDist, eta: SimpleDist
) -> tuple[PermutationCertificate, JointDist]:
    """Permutation-weight certificate that xi diversification-dominates eta.

    Requires equal means and second-order dominance.  On the common
    uniform refinement (grids a and b), builds the doubly stochastic D
    with a = D b and peels it into permutations; also materializes the
    witnessing joint law whose k-th coordinate is the k-th rearranged
    copy of eta (slot i carries the vector of b[perm_k[i]] with
    probability 1/n).  The certificate reconstructs xi exactly.
    """
    return _certificate(*_transfer_product(xi, eta))


def mps_coupling(xi: SimpleDist, eta: SimpleDist) -> MartingaleCoupling:
    """Joint law of (xi, eta) on the common refinement under which eta is
    xi plus conditionally-mean-zero noise: C = D/n, whose rows average
    back to xi's grid values exactly."""
    return _coupling(*_transfer_product(xi, eta))


def lift_delta_gamma(xi: SimpleDist, eta: SimpleDist) -> LiftResult:
    """Lift an arbitrary pair to one where certification applies.

    On the common refinement (x, y sorted) let S_k = sum_{i<=k} (y_i - x_i).
    The prefix sums of delta are the running maximum of S clamped below at
    0, M_k = max(0, S_1, ..., S_k): the least that make every prefix of
    x + delta dominate that of y, and delta_k = M_k - M_{k-1} keeps x + delta
    sorted.  The top slot of y absorbs gamma_top = M_n - S_n >= 0, so both
    lifted grids share one mean, and the mean of delta, M_n / n, is the
    dominance gap exactly, returned as `gap`.  All of it runs on one integer scale.
    """
    gx, gy = common_refinement(xi, eta)
    n = gx.n
    (xnums, ynums), den = _slot_scale(gx, gy)
    prefix = list(accumulate(map(sub, ynums, xnums)))  # S_1 .. S_n
    peaks = list(accumulate(prefix, max, initial=0))  # M_0 = 0, M_1 .. M_n
    slack = list(map(sub, peaks[1:], peaks))
    gamma_num = peaks[-1] - prefix[-1]
    ynums[-1] += gamma_num
    return LiftResult(
        xi_grid=gx.values,
        eta_grid=gy.values,
        delta=tuple(Fraction(d, den) for d in slack),
        gamma_top=Fraction(gamma_num, den),
        lifted_xi=_dist_on_scale(Counter(map(add, xnums, slack)), den, n),
        lifted_eta=_dist_on_scale(Counter(ynums), den, n),
        gap=Fraction(peaks[-1], den * n),
    )


def decompose_ssd(xi: SimpleDist, eta: SimpleDist) -> DecompositionResult:
    """Split second-order dominance into a first-order step and an
    equal-means step.

    When the means already agree, zeta = xi.  Otherwise the truncation
    level c solves E min(xi, c) = E eta, found by one walk up the atoms
    of xi along the increasing map y -> E min(xi, y), and zeta = min(xi, c).
    """
    alpha = ssd_violation(xi, eta)
    if alpha is not None:
        raise SsdViolatedError(alpha)
    target = eta.mean()
    if xi.mean() == target:
        return DecompositionResult(c=None, zeta=xi)

    # g(y) = E min(xi, y) is head + y * tail on the segment ending at the
    # atom v just above y, with head = E[xi; xi < v] and tail = P(xi >= v);
    # the walk stops at the first v with g(v) >= E eta
    head = Fraction(0)
    tail = Fraction(1)
    for v, p in xi.atoms:
        if head + v * tail >= target:
            break
        head += v * p
        tail -= p
    c = (target - head) / tail
    zeta = SimpleDist.from_pairs((min(v, c), p) for v, p in xi.atoms)
    if zeta.mean() != target:
        raise AssertionError("truncation failed to match the target mean")
    return DecompositionResult(c=c, zeta=zeta)
