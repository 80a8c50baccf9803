"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity from its definition by a different
route than the implementation under test: tail averages by slot
enumeration, dominance by integrated CDFs or by the truncated-utility
family, transport by slot coupling on a common refinement, and
diversification feasibility by an exact phase-1 simplex over all n!
permutation columns.  The pointwise distribution function and lower
quantile of a law (cdf, quantile) are what the two walkers must agree
with, and a transfer applied to a vector of slot values
(apply_transform) is what a transfer chain must reproduce its target
with.

The naive_* references are the Fraction loops the library used before its
sums moved to one common integer scale: one Fraction addition per term,
merges keyed by Fraction.  They define what the integer code must equal.
Likewise the hand-written merge loops over two step functions that risk,
transport and dominance used before they became folds over the walkers
in `divcert.dist` (naive_gap_at_breakpoints through naive_tail_integral),
and the step-by-step recurrences behind the lift and the SSD split before
they became closed forms (naive_lift_delta_gamma, naive_decompose_ssd).
The validator loop of SimpleDist before it checked on integer numerators
(naive_validate_dist), the loop that listed a law's slot values before
a uniform grid held the law and its slot count (naive_regrid), and the
JSON trees of the three witnesses, one rational_str per cell, that
`divcert certify` passed to `dumps` before its writers rendered the
integer views straight to text (certificate_to_obj, naive_joint_to_obj,
coupling_to_obj, bundle_obj), are kept the same way, as is the string
parser that sent every string through Fraction's regex
(naive_as_rational), and the coupling parser that made one Fraction per
cell and scaled the matrix after (naive_coupling_from_obj, through
coupling_from_matrix).
So are the transfer chain that rescanned for a surplus from i + 1 on
Fractions at every step (naive_t_transform_chain), the majorization
test that kept two Fraction prefix sums (naive_check_majorization), and
the transfer product that updated full n-wide rows for every transfer
before it was held block by block (naive_scaled_transfer_rows).
The Erlang CDF that the LLN demo inverts is bracketed here from a Taylor
bound on e^x in exact integers (erlang_cdf_bounds), with no decimal code.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

from divcert import (
    CertificationError,
    DecompositionResult,
    JointDist,
    LiftResult,
    MartingaleCoupling,
    PermutationCertificate,
    SimpleDist,
    SsdViolatedError,
    TTransform,
    UniformGrid,
    common_refinement,
    as_rational,
    ssd_violation,
)
from divcert import certify, serialize
from divcert.dist import MAX_DECIMAL_EXPONENT, GridCapError, _scale_rows
from divcert.matching import LexMinMatching
from divcert.serialize import rational_str


def cdf(d: SimpleDist, x) -> Fraction:
    """P(value < x) - the left-continuous distribution function."""
    x = as_rational(x)
    return sum((p for v, p in d.atoms if v < x), Fraction(0))


def quantile(d: SimpleDist, u) -> Fraction:
    """Lower quantile inf{x : P(value < x or value = x) >= u}, u in (0, 1]."""
    u = as_rational(u)
    if not 0 < u <= 1:
        raise ValueError(f"quantile level must lie in (0, 1], got {u}")
    cum = Fraction(0)
    for value, prob in d.atoms:
        cum += prob
        if cum >= u:
            return value
    raise AssertionError("unreachable: probabilities sum to 1")


def apply_transform(tr: TTransform, vec: list[Fraction]) -> None:
    """Replace entries i and j of `vec` by their s-mix, in place: the
    doubly stochastic matrix (1-s)*I + s*Q_ij that `tr` stands for."""
    vi, vj = vec[tr.i], vec[tr.j]
    vec[tr.i] = vi + tr.s * (vj - vi)
    vec[tr.j] = vj + tr.s * (vi - vj)


def es_by_sorted_tail(d: SimpleDist, alpha: Fraction) -> Fraction:
    """Average loss in the worst alpha-fraction of outcomes, by literally
    enumerating equally likely slots fine enough that alpha*m is integral."""
    grid = common_refinement(d, d)[0]
    m = math.lcm(grid.n, alpha.denominator)
    copies = m // grid.n
    slots = [v for v in grid.values for _ in range(copies)]
    worst = alpha * m
    assert worst.denominator == 1
    k = int(worst)
    return -sum(slots[:k], Fraction(0)) / k


def integrated_cdf_at(d: SimpleDist, a: Fraction) -> Fraction:
    """Integral of the CDF from -infinity to a (the CDF vanishes below the
    smallest atom, so the integral is finite)."""
    total = Fraction(0)
    cum = Fraction(0)
    prev = None
    for v, p in d.atoms:
        if v >= a:
            break
        if prev is not None:
            total += cum * (v - prev)
        prev = v
        cum += p
    if prev is not None and prev < a:
        total += cum * (a - prev)
    return total


def ssd_by_cdf_integral(xi: SimpleDist, eta: SimpleDist) -> bool:
    """Definition-level check: integrated CDF of xi never exceeds eta's.

    Both integrals are piecewise linear in a with kinks only at atoms,
    and their difference tends to 0 at -infinity and stays monotone
    beyond the largest atom, so checking at merged atom values and just
    past the top value is complete.
    """
    points = sorted(set(xi.values) | set(eta.values))
    points.append(points[-1] + 1)
    return all(integrated_cdf_at(xi, a) <= integrated_cdf_at(eta, a) for a in points)


def ssd_by_utility(xi: SimpleDist, eta: SimpleDist) -> bool:
    """Truncated-utility family: E min(xi - a, 0) >= E min(eta - a, 0) at
    every merged atom value a (sufficient for simple distributions since
    the integrated-CDF condition is piecewise linear with kinks only at
    atoms)."""

    def shortfall(d: SimpleDist, a: Fraction) -> Fraction:
        return sum((min(v - a, Fraction(0)) * p for v, p in d.atoms), Fraction(0))

    points = set(xi.values) | set(eta.values)
    return all(shortfall(xi, a) >= shortfall(eta, a) for a in points)


def kantorovich_by_grid(a: SimpleDist, b: SimpleDist) -> Fraction:
    """Transport distance via the sorted slot coupling on a common
    uniform refinement."""
    n = math.lcm(*(p.denominator for p in a.probs + b.probs))
    return sum(
        (abs(x - y) for x, y in zip(naive_regrid(a, n), naive_regrid(b, n))), Fraction(0)
    ) / n


def naive_gap_at_breakpoints(
    xi: SimpleDist, eta: SimpleDist
) -> list[tuple[Fraction, Fraction]]:
    """(alpha, integral of q_eta - q_xi over (0, alpha]) at every merged
    breakpoint, by one merge pass over both step quantile functions."""
    out = []
    ix = iy = 0
    cx = xi.atoms[0][1]
    cy = eta.atoms[0][1]
    prev = Fraction(0)
    gx = Fraction(0)
    gy = Fraction(0)
    while True:
        level = cx if cx <= cy else cy
        gx += xi.atoms[ix][0] * (level - prev)
        gy += eta.atoms[iy][0] * (level - prev)
        out.append((level, gy - gx))
        if level == 1:
            return out
        prev = level
        if cx == level:
            ix += 1
            cx += xi.atoms[ix][1]
        if cy == level:
            iy += 1
            cy += eta.atoms[iy][1]


def naive_kantorovich(a: SimpleDist, b: SimpleDist) -> Fraction:
    """Integral over (0,1] of |q_a - q_b|, by its own quantile merge loop."""
    total = Fraction(0)
    ia = ib = 0
    ca = a.atoms[0][1]
    cb = b.atoms[0][1]
    prev = Fraction(0)
    while True:
        level = ca if ca <= cb else cb
        total += abs(a.atoms[ia][0] - b.atoms[ib][0]) * (level - prev)
        if level == 1:
            return total
        prev = level
        if ca == level:
            ia += 1
            ca += a.atoms[ia][1]
        if cb == level:
            ib += 1
            cb += b.atoms[ib][1]


def naive_kantorovich_cdf(a: SimpleDist, b: SimpleDist) -> Fraction:
    """Integral over the reals of |F_a - F_b|, by its own CDF merge loop."""
    values = sorted(set(a.values) | set(b.values))
    total = Fraction(0)
    fa = Fraction(0)
    fb = Fraction(0)
    ia = ib = 0
    for left, right in zip(values, values[1:]):
        while ia < len(a.atoms) and a.atoms[ia][0] <= left:
            fa += a.atoms[ia][1]
            ia += 1
        while ib < len(b.atoms) and b.atoms[ib][0] <= left:
            fb += b.atoms[ib][1]
            ib += 1
        total += abs(fa - fb) * (right - left)
    return total


def naive_fsd_violation(xi: SimpleDist, eta: SimpleDist) -> Fraction | None:
    """Smallest merged atom value v with P(xi <= v) > P(eta <= v), or None."""
    values = sorted(set(xi.values) | set(eta.values))
    f_xi = Fraction(0)
    f_eta = Fraction(0)
    ix = ie = 0
    for v in values:
        while ix < len(xi.atoms) and xi.atoms[ix][0] <= v:
            f_xi += xi.atoms[ix][1]
            ix += 1
        while ie < len(eta.atoms) and eta.atoms[ie][0] <= v:
            f_eta += eta.atoms[ie][1]
            ie += 1
        if f_xi > f_eta:
            return v
    return None


def naive_tail_integral(d: SimpleDist, alpha: Fraction) -> Fraction:
    """Integral of the lower quantile function over (0, alpha], alpha in
    (0, 1]: full steps below alpha plus one partial step."""
    total = Fraction(0)
    cum = Fraction(0)
    for value, prob in d.atoms:
        if cum + prob < alpha:
            total += value * prob
            cum += prob
        else:
            return total + value * (alpha - cum)
    raise AssertionError("unreachable: probabilities sum to 1")


def reconstruct_slots(
    terms, values: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Sum of weight_k * values[perm_k[i]] per slot, evaluated over a
    common integer scale."""
    n = len(values)
    wden = math.lcm(*(w.denominator for _, w in terms))
    vden = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (vden // v.denominator) for v in values]
    acc = [0] * n
    for perm, w in terms:
        scaled = w.numerator * (wden // w.denominator)
        for i, src in enumerate(perm):
            acc[i] += scaled * nums[src]
    return tuple(Fraction(x, wden * vden) for x in acc)


def reassemble(terms, n: int) -> list[list[Fraction]]:
    """The n x n matrix sum_k w_k * P_k, where P_k has a 1 in row i,
    column perm_k[i]; one Fraction addition per cell and term."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for perm, weight in terms:
        for i, src in enumerate(perm):
            rows[i][src] += weight
    return rows


def naive_peel(rows: list[list[int]], L: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Birkhoff peeling of rows/L over the whole support: every round
    re-matches all n rows at once with a cold search, whatever blocks the
    support splits into.  Consumes `rows`."""
    n = len(rows)
    remaining = L
    terms = []
    for _ in range(n * n + 1):
        perm = LexMinMatching([[j for j, x in enumerate(row) if x] for row in rows]).solve()
        if perm is None:
            raise ValueError("positive entries admit no perfect matching")
        weight = min(rows[i][perm[i]] for i in range(n))
        terms.append((tuple(perm), Fraction(weight, L)))
        for i in range(n):
            rows[i][perm[i]] -= weight
        remaining -= weight
        if not remaining:
            return terms
    raise AssertionError("peeling failed to terminate")


def naive_simplex_weights(weights, size=None) -> tuple[Fraction, ...]:
    """Entries >= 0 summing to exactly 1, checked with a Fraction sum."""
    ws = tuple(as_rational(w) for w in weights)
    if size is not None and len(ws) != size:
        raise ValueError(f"expected {size} weights, got {len(ws)}")
    if any(w < 0 for w in ws):
        raise ValueError("weights must be non-negative")
    if sum(ws) != 1:
        raise ValueError("weights must sum to exactly 1")
    return ws


def naive_combine(terms, values) -> tuple[Fraction, ...]:
    """sum_k w_k * values[perm_k[i]] per slot, one Fraction addition at a
    time."""
    out = [Fraction(0)] * len(values)
    for perm, weight in terms:
        for i, src in enumerate(perm):
            out[i] += weight * values[src]
    return tuple(out)


def naive_validate_certificate(n, terms) -> None:
    """Raise ValueError unless `terms` are at most (n-1)^2 + 1 permutations
    of 0..n-1 with positive weights summing to 1 (a Fraction sum)."""
    if n < 1:
        raise ValueError("grid size must be positive")
    if not terms:
        raise ValueError("a certificate needs at least one term")
    if len(terms) > (n - 1) ** 2 + 1:
        raise ValueError(f"{len(terms)} terms exceed the bound {(n - 1) ** 2 + 1}")
    full = frozenset(range(n))
    total = Fraction(0)
    for perm, weight in terms:
        if len(perm) != n or frozenset(perm) != full:
            raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
        if weight <= 0:
            raise ValueError("term weights must be positive")
        total += weight
    if total != 1:
        raise ValueError(f"term weights sum to {total}, not 1")


def naive_convex_combination(j: JointDist, weights) -> SimpleDist:
    """Law of sum_i w_i X_i: a Fraction sum per atom, merged by value."""
    ws = naive_simplex_weights(weights, j.m)
    pairs = []
    for vec, prob in j.atoms:
        s = sum((w * v for w, v in zip(ws, vec)), Fraction(0))
        pairs.append((s, prob))
    return SimpleDist.from_pairs(pairs)


def naive_mixture(ds, weights) -> SimpleDist:
    """P(x) = sum_i w_i P_i(x), zero-weight components dropped."""
    ws = naive_simplex_weights(weights, len(ds))
    pairs = []
    for d, w in zip(ds, ws):
        if w == 0:
            continue
        pairs.extend((v, w * p) for v, p in d.atoms)
    return SimpleDist.from_pairs(pairs)


def naive_mixture_of_marginals(j: JointDist, weights) -> SimpleDist:
    """The mixture of the m marginal laws, each built on its own."""
    return naive_mixture(j.marginals(), weights)


def naive_validate_dist(atoms) -> None:
    """Raise ValueError unless `atoms` are Fraction pairs with positive
    probabilities, strictly increasing values and a Fraction sum of 1,
    checked atom by atom."""
    if not atoms:
        raise ValueError("a distribution needs at least one atom")
    total = Fraction(0)
    prev = None
    for value, prob in atoms:
        if not isinstance(value, Fraction) or not isinstance(prob, Fraction):
            raise ValueError("atoms must hold Fraction pairs; use from_pairs()")
        if prob <= 0:
            raise ValueError("probabilities must be positive")
        if prev is not None and value <= prev:
            raise ValueError("values must be strictly increasing")
        prev = value
        total += prob
    if total != 1:
        raise ValueError(f"probabilities sum to {total}, not 1")


def naive_as_rational(x) -> Fraction:
    """as_rational with every string parsed by Fraction(str) and its regex."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot convert bool {x!r} to a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            _, _, exponent = x.lower().rpartition("e")
            try:
                too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
            except ValueError:  # no exponent: Fraction reports the syntax
                too_large = False
            if too_large:
                raise ValueError(
                    f"decimal exponent of {x!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite value {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to a rational")


def erlang_cdf_bounds(n: int, x) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= P(n, x) <= hi on the Erlang CDF
    P(n, x) = 1 - e^-x * sum_{k<n} x^k/k! at a rational x >= 0.

    e^x lies between its Taylor polynomial T_m(x) and T_m(x) plus
    x^(m+1)/(m+1)! * (m+2)/(m+2-x), the tail summed as a geometric series
    of ratio x/(m+2); m >= 2x + 60 makes that tail negligible.  All terms
    are integers over the common denominator b^m m! of x = a/b.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be non-negative")
    a, b = x.numerator, x.denominator
    m = max(n, 2 * math.ceil(x) + 60)
    term = b**m * math.factorial(m)  # x^k/k! * b^m m! at k = 0
    head = total = 0
    for k in range(m + 1):
        if k < n:
            head += term
        total += term
        if k < m:
            term = term * a // (b * (k + 1))
    tail = Fraction(a ** (m + 1) * (m + 2), (m + 1) * ((m + 2) * b - a))
    return 1 - Fraction(head, total), 1 - head / (total + tail)


def naive_check_majorization(a: UniformGrid, b: UniformGrid) -> int | None:
    """majorization_violation with the two ascending prefix sums kept as
    Fractions, one addition per slot: the first violating prefix length,
    n when only the totals differ, None when `a` majorizes `b`."""
    if a.n != b.n:
        raise ValueError(f"grid sizes differ: {a.n} vs {b.n}")
    prefix_a = Fraction(0)
    prefix_b = Fraction(0)
    for j, (va, vb) in enumerate(zip(a.values, b.values), start=1):
        prefix_a += va
        prefix_b += vb
        if prefix_a < prefix_b:
            return j
    if prefix_a != prefix_b:
        return a.n
    return None


def naive_t_transform_chain(a: UniformGrid, b: UniformGrid) -> tuple[TTransform, ...]:
    """t_transform_chain on Fractions, rescanning for the smallest surplus
    index from i + 1 at every step."""
    if naive_check_majorization(a, b) is not None:
        raise CertificationError("a is not majorized by b")
    n = a.n
    c = list(b.values)
    target = a.values
    transforms = []
    i = 0
    for _ in range(n):
        while i < n and c[i] == target[i]:
            i += 1
        if i == n:
            break
        j = i + 1
        while c[j] <= target[j]:
            j += 1
        t = min(target[i] - c[i], c[j] - target[j])
        transforms.append(TTransform(i, j, t / (c[j] - c[i])))
        c[i] += t
        c[j] -= t
    else:
        raise AssertionError("transfer loop failed to settle all indices")
    return tuple(transforms)


def naive_scaled_transfer_rows(a: UniformGrid, b: UniformGrid) -> tuple[list[list[int]], int]:
    """The transfer-chain product D as dense n x n integer rows over L:
    every transfer updates two full rows and every row is rescaled to L
    at the end.  It takes the chain from `certify.t_transform_chain`,
    looked up when called, so a test may substitute the transfers."""
    n = a.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    denoms = [1] * n
    chain = certify.t_transform_chain(a, b)
    for step, tr in enumerate(chain, start=1):
        p = tr.s.numerator
        q = tr.s.denominator
        li, lj = denoms[tr.i], denoms[tr.j]
        lcm_ij = li // math.gcd(li, lj) * lj
        den = q * lcm_ij
        if den.bit_length() > certify.CERTIFY_DENOMINATOR_BITS:
            raise GridCapError(
                f"transfer {step} of {len(chain)} needs a row denominator above "
                f"CERTIFY_DENOMINATOR_BITS = {certify.CERTIFY_DENOMINATOR_BITS} bits"
            )
        ci = lcm_ij // li
        cj = lcm_ij // lj
        qp = q - p
        ri, rj = rows[tr.i], rows[tr.j]
        for k in range(n):
            x = ri[k] * ci
            y = rj[k] * cj
            ri[k] = qp * x + p * y
            rj[k] = p * x + qp * y
        denoms[tr.i] = denoms[tr.j] = den
    L = math.lcm(*denoms)
    for i in range(n):
        m = L // denoms[i]
        if m != 1:
            row = rows[i]
            for k in range(n):
                row[k] *= m
    return rows, L


def naive_regrid(d: SimpleDist, n: int) -> tuple[Fraction, ...]:
    """The n slot values of `d`, each atom of probability p repeated p * n
    times; ValueError when n < 1 or some p * n is no integer."""
    if n < 1:
        raise ValueError("grid size must be positive")
    values: list[Fraction] = []
    for value, prob in d.atoms:
        count = prob * n
        if count.denominator != 1:
            raise ValueError(f"distribution does not fit on a grid of {n} slots")
        values.extend([value] * int(count))
    return tuple(values)


def certificate_to_obj(cert: PermutationCertificate) -> dict:
    """The JSON tree of a permutation certificate."""
    return {
        "n": cert.n,
        "terms": [
            {"perm": list(perm), "weight": rational_str(w)} for perm, w in cert.terms
        ],
    }


def naive_joint_to_obj(j: JointDist) -> dict:
    """The JSON tree of a joint law, one rational_str per cell."""
    return {
        "m": j.m,
        "atoms": [
            {"v": [rational_str(x) for x in vec], "p": rational_str(p)}
            for vec, p in j.atoms
        ],
    }


def coupling_to_obj(c: MartingaleCoupling) -> dict:
    """The JSON tree of a martingale coupling, one rational_str per cell."""
    return {
        "n": c.n,
        "row_values": [rational_str(v) for v in c.row_values],
        "col_values": [rational_str(v) for v in c.col_values],
        "matrix": [[rational_str(x) for x in row] for row in c.matrix],
    }


def bundle_obj(
    cert: PermutationCertificate, joint: JointDist, coupling: MartingaleCoupling
) -> dict:
    """The JSON tree of the bundle `divcert certify` writes."""
    return {
        "certified": True,
        **certificate_to_obj(cert),
        "joint": naive_joint_to_obj(joint),
        "coupling": coupling_to_obj(coupling),
    }


def coupling_from_matrix(n: int, matrix, row_values, col_values) -> MartingaleCoupling:
    """The coupling whose cell (i, j) is the Fraction matrix[i][j], scaled
    once over all its cells.  A row of any length but n is listed against
    the n columns, so the validator refuses it as not square, at its turn
    among the rows."""
    listed = [
        (tuple(itertools.compress(range(n), row)), tuple(filter(None, row)))
        if len(row) == n
        else (range(n), row)
        for row in matrix
    ]
    nums, den = _scale_rows([cells for _, cells in listed])
    cells = tuple((cols, row) for (cols, _), row in zip(listed, nums))
    return MartingaleCoupling(n, cells, den, row_values, col_values)


def naive_coupling_from_obj(obj) -> MartingaleCoupling:
    """The coupling parser that read one Fraction per cell and then scaled
    the matrix (coupling_from_matrix); its refusals, in their order, are
    what the parser must give."""
    serialize._fields(obj, "coupling JSON", "n", "row_values", "col_values", "matrix")
    return coupling_from_matrix(
        n=serialize._int(obj["n"], "n"),
        matrix=tuple(
            serialize._rationals(row, "matrix row")
            for row in serialize._list(obj["matrix"], "matrix")
        ),
        row_values=serialize._rationals(obj["row_values"], "row_values"),
        col_values=serialize._rationals(obj["col_values"], "col_values"),
    )


def naive_validate_coupling(n, matrix, row_values, col_values) -> None:
    """Raise ValueError unless `matrix` is an n x n coupling with non-negative
    cells, row and column sums 1/n and rows that average back to their row
    values."""
    if len(matrix) != n or len(row_values) != n or len(col_values) != n:
        raise ValueError("matrix and value grids must all have size n")
    share = Fraction(1, n)
    col_sums = [Fraction(0)] * n
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        row_sum = Fraction(0)
        row_mean = Fraction(0)
        for j, c in enumerate(row):
            if c < 0:
                raise ValueError("entries must be non-negative")
            row_sum += c
            col_sums[j] += c
            row_mean += c * col_values[j]
        if row_sum != share:
            raise ValueError(f"row {i} sums to {row_sum}, not 1/{n}")
        if row_mean * n != row_values[i]:
            raise ValueError(f"martingale property fails on row {i}")
    if any(c != share for c in col_sums):
        raise ValueError(f"column sums must all be 1/{n}")



def naive_lift_delta_gamma(xi: SimpleDist, eta: SimpleDist) -> LiftResult:
    """The slot slacks built one Fraction step at a time: delta_k = max(0,
    sum_{i<=k} y_i - sum_{i<=k} x_i - sum_{i<k} delta_i), then gamma_top =
    sum(x) + sum(delta) - sum(y) from three Fraction sums."""
    gx, gy = common_refinement(xi, eta)
    x = gx.values
    y = gy.values
    n = len(x)
    delta = []
    running = Fraction(0)  # prefix of y - prefix of x - prefix of delta
    for xk, yk in zip(x, y):
        running += yk - xk
        d = max(Fraction(0), running)
        delta.append(d)
        running -= d
    gamma_top = sum(x) + sum(delta) - sum(y)
    lifted_x = [xv + dv for xv, dv in zip(x, delta)]
    lifted_y = list(y)
    lifted_y[-1] += gamma_top
    share = Fraction(1, n)
    return LiftResult(
        xi_grid=x,
        eta_grid=y,
        delta=tuple(delta),
        gamma_top=gamma_top,
        lifted_xi=SimpleDist.from_pairs((v, share) for v in lifted_x),
        lifted_eta=SimpleDist.from_pairs((v, share) for v in lifted_y),
        gap=sum(delta) * share,
    )


def naive_decompose_ssd(xi: SimpleDist, eta: SimpleDist) -> DecompositionResult:
    """The truncation level from g(v_k) = E min(xi, v_k) tabulated at every
    atom, the segment found by bisection and its two prefixes re-summed."""
    alpha = ssd_violation(xi, eta)
    if alpha is not None:
        raise SsdViolatedError(alpha)
    target = eta.mean()
    if xi.mean() == target:
        return DecompositionResult(c=None, zeta=xi)
    g_at = []
    below_mass = Fraction(0)  # E[xi; xi < v_k]
    cum = Fraction(0)  # P(xi < v_k)
    for v, p in xi.atoms:
        g_at.append(below_mass + v * (1 - cum))
        below_mass += v * p
        cum += p
    if target <= g_at[0]:
        c = target  # g(y) = y below the smallest atom
    else:
        k = bisect_left(g_at, target) - 1  # largest k with g_at[k] < target
        head_mass = sum((v * p for v, p in xi.atoms[: k + 1]), Fraction(0))
        tail_prob = 1 - sum(xi.probs[: k + 1], Fraction(0))
        c = (target - head_mass) / tail_prob
    mass_at_c = Fraction(0)
    pairs = []
    for v, p in xi.atoms:
        if v < c:
            pairs.append((v, p))
        else:
            mass_at_c += p
    pairs.append((c, mass_at_c))
    return DecompositionResult(c=c, zeta=SimpleDist.from_pairs(pairs))

def lp_feasible(
    columns: list[list[Fraction]], rhs: list[Fraction]
) -> bool:
    """Exact feasibility of {x >= 0 : A x = rhs} by phase-1 simplex with
    Bland's rule (A given column-wise)."""
    m = len(rhs)
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(m)]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # tableau over structural + artificial variables, artificial basis
    tab = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs[i]] for i in range(m)]
    width = n + m
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] -= tab[i][j]
    for j in range(n, n + m):
        cost[j] += 1

    zero = Fraction(0)
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        num = den = None  # best ratio kept as numerator/denominator pair
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                rhs_i = tab[i][width]
                if (
                    leave is None
                    or rhs_i * den < num * coef
                    or (rhs_i * den == num * coef and basis[i] < basis[leave])
                ):
                    num, den = rhs_i, coef
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is a bug")
        pivot = tab[leave][enter]
        if pivot != 1:
            tab[leave] = [x / pivot for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x if y == 0 else x - f * y for x, y in zip(tab[i], prow)]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x if y == 0 else x - f * y for x, y in zip(cost, prow)]
        basis[leave] = enter

    return -cost[width] == zero


def div1_feasible_bruteforce(a: UniformGrid, b: UniformGrid) -> bool:
    """Does some simplex weighting of all n! rearrangements of grid b
    combine slot-wise to grid a?  Duplicate rearrangements collapse to
    one column; the simplex constraint is an explicit extra row."""
    n = a.n
    cols = {tuple(b.values[p[i]] for i in range(n)) for p in itertools.permutations(range(n))}
    columns = [list(c) + [Fraction(1)] for c in cols]
    rhs = list(a.values) + [Fraction(1)]
    return lp_feasible(columns, rhs)
