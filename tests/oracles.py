"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity from its definition by a different
route than the implementation under test: tail averages by slot
enumeration, dominance by integrated CDFs or by the truncated-utility
family, transport by slot coupling on a common refinement, and
diversification feasibility by an exact phase-1 simplex over all n!
permutation columns.

The naive_* references are the Fraction loops the library used before its
sums moved to one common integer scale: one Fraction addition per term,
merges keyed by Fraction.  They define what the integer code must equal.
Likewise the hand-written merge loops over two step functions that risk,
transport and dominance used before they became folds over the walkers
in `divcert.dist` (naive_gap_at_breakpoints through naive_tail_integral),
and the step-by-step recurrences behind the lift and the SSD split before
they became closed forms (naive_lift_delta_gamma, naive_decompose_ssd).
The validator loops of SimpleDist and UniformGrid before they checked on
integer numerators (naive_validate_dist, naive_validate_grid), and the
per-cell rendering of a joint law before it printed each cell object once
(naive_joint_to_obj), are kept the same way, as is the string parser
that sent every string through Fraction's regex (naive_as_rational).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

from divcert import (
    DecompositionResult,
    JointDist,
    LiftResult,
    SimpleDist,
    SsdViolatedError,
    UniformGrid,
    common_refinement,
    expand_to_uniform_grid,
    as_rational,
    regrid,
    ssd_violation,
)
from divcert.dist import MAX_DECIMAL_EXPONENT
from divcert.matching import lex_min_perfect_matching
from divcert.serialize import rational_str


def es_by_sorted_tail(d: SimpleDist, alpha: Fraction) -> Fraction:
    """Average loss in the worst alpha-fraction of outcomes, by literally
    enumerating equally likely slots fine enough that alpha*m is integral."""
    grid = expand_to_uniform_grid(d)
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
    ga = regrid(a, n)
    gb = regrid(b, n)
    return sum(
        (abs(x - y) for x, y in zip(ga.values, gb.values)), Fraction(0)
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
    re-matches all n rows at once (warm-started from the round before),
    whatever blocks the support splits into.  Consumes `rows`."""
    n = len(rows)
    adjacency = [[j for j, x in enumerate(row) if x] for row in rows]
    remaining = L
    terms = []
    perm = None
    for _ in range(n * n + 1):
        perm = lex_min_perfect_matching(adjacency, previous=perm)
        if perm is None:
            raise ValueError("positive entries admit no perfect matching")
        weight = min(rows[i][perm[i]] for i in range(n))
        terms.append((tuple(perm), Fraction(weight, L)))
        for i in range(n):
            j = perm[i]
            left = rows[i][j] - weight
            rows[i][j] = left
            if not left:
                adjacency[i].remove(j)
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


def naive_validate_grid(values) -> None:
    """Raise ValueError unless `values` are non-decreasing by Fraction
    comparisons, then unless every one of them is a Fraction."""
    if not values:
        raise ValueError("a grid needs at least one value")
    for prev, cur in zip(values, values[1:]):
        if cur < prev:
            raise ValueError("grid values must be sorted non-decreasing")
    for v in values:
        if not isinstance(v, Fraction):
            raise ValueError("grid values must be Fractions")


def naive_joint_to_obj(j: JointDist) -> dict:
    """The JSON tree of a joint law, one rational_str per cell."""
    return {
        "m": j.m,
        "atoms": [
            {"v": [rational_str(x) for x in vec], "p": rational_str(p)}
            for vec, p in j.atoms
        ],
    }


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
