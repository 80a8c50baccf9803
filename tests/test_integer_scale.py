"""The integer-scale sums and closed forms against the Fraction loops
they replaced.

Every proof-layer sum brings its Fractions to one common denominator and
adds integer numerators; the lift and the SSD split are closed forms of
what were step-by-step recurrences.  The references in `oracles`
(naive_*) are the Fraction loops the library used before; here both run
on drawn inputs and must give equal results, or fail with the same
ValueError message.

Both sides of the diversification definition are folds over the integer
view a joint law holds.  The joints drawn here come in by both ways:
from Fractions (one shared object per value, or equal values in distinct
objects, as a parsed bundle has them) and from integers over a
denominator above the least, as certify hands them over.  For a joint
law and for a coupling, both ways in must give equal objects.

The transfer chain and the majorization test run on integer numerators
too, the chain in one forward pass; on drawn grids they must return the
transfers or the refusal, the violation witness and the check of the
Fraction loops.  They read a grid's slots through `_slot_scale`, which
scales each distinct value of the grid's law once: its rows must be what
`common_scale` gives for the Fraction slots, and those slots what the
loop that listed them before (`naive_regrid`) gives, refusals included.

The verifiers fold over runs of equal adjacent cells: of each atom's
vector in a joint law, and of each slot's column of permutation sources
in a certificate.  Run-heavy witnesses, built from a few values repeated
in runs, and run-free ones, with no two neighbours equal, must give what
the per-cell loops give.
"""

import json
import math
from fractions import Fraction as F
from itertools import accumulate, groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divcert.dist
import divcert.dominance
import helpers
import oracles
from divcert import (
    CertificationError,
    JointDist,
    MartingaleCoupling,
    PermutationCertificate,
    SimpleDist,
    UniformGrid,
    check_majorization,
    common_refinement,
    convex_combination,
    decompose_ssd,
    dirac,
    lift_delta_gamma,
    majorization_violation,
    mixture,
    t_transform_chain,
    verify_div1_certificate,
    verify_div2_instance,
)
from divcert.dist import _run_starts, _runs, _simplex_scale, _slot_scale, common_scale
from divcert.serialize import _joint, dumps, joint_from_obj

#: value denominators are 2^a 3^b; weight denominators come from the drawn
#: weight totals, so they are often coprime to them (5, 7, 11, 13, ...)
VALUE_DENS = (1, 2, 3, 4, 6, 8)
values = st.builds(F, st.integers(-30, 30), st.sampled_from(VALUE_DENS))


def failure(fn):
    """The message of the ValueError fn() raises, or None when it returns."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def outcome(fn):
    """The type and message of the exception fn() raises, or None when it
    returns."""
    try:
        fn()
    except Exception as exc:  # TypeError too: the type is compared
        return type(exc).__name__, str(exc)
    return None


@st.composite
def simplex(draw, m, allow_zero=True):
    """m weights w_i / total with small integer w_i, zeros included."""
    raw = draw(st.lists(st.integers(0 if allow_zero else 1, 6), min_size=m, max_size=m))
    if not any(raw):
        raw[draw(st.integers(0, m - 1))] = 1
    total = sum(raw)
    return tuple(F(w, total) for w in raw)


@st.composite
def dists(draw, max_atoms=5):
    k = draw(st.integers(1, max_atoms))
    vs = draw(st.lists(values, min_size=k, max_size=k, unique=True))
    ps = draw(simplex(k, allow_zero=False))
    return SimpleDist.from_pairs(zip(vs, ps))


@st.composite
def joint_atoms(draw, max_m=4, max_atoms=6):
    """The canonical Fraction atoms of a joint law whose coordinates come
    from a small pool, so values repeat within and across vectors;
    repeated vectors merge.  Either every cell of a value is one shared
    Fraction object or every cell is an object of its own."""
    m = draw(st.integers(1, max_m))
    pool = list(dict.fromkeys(draw(st.lists(values, min_size=1, max_size=4))))
    k = draw(st.integers(1, max_atoms))
    vecs = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=m, max_size=m).map(tuple),
            min_size=k, max_size=k,
        )
    )
    if not draw(st.booleans()):
        vecs = [tuple(F(v.numerator, v.denominator) for v in vec) for vec in vecs]
    merged = {}
    for vec, p in zip(vecs, draw(simplex(k, allow_zero=False))):
        merged[vec] = merged.get(vec, 0) + p
    return tuple(sorted(merged.items()))


@st.composite
def joints(draw, max_m=4, max_atoms=6):
    """Joint laws built either way in: from Fractions, as the parser
    builds them, or from integers over a denominator a drawn factor above
    the least, as certify builds them."""
    atoms = draw(joint_atoms(max_m, max_atoms))
    if draw(st.booleans()):
        return JointDist.from_atoms(atoms)
    return helpers.joint_from_integers(atoms, draw(st.integers(1, 6)))


@st.composite
def dist_atoms(draw):
    """Atom tuples for SimpleDist: valid, or broken in any number of ways
    at once (no atoms, a value or probability that is no Fraction, a
    probability <= 0, values out of order or repeated, a sum other than 1),
    each break at an atom of its own choosing."""
    k = draw(st.integers(0, 5))
    if not k:
        return ()
    vs = sorted(draw(st.lists(values, min_size=k, max_size=k, unique=True)))
    ps = list(draw(simplex(k, allow_zero=False)))
    index = st.integers(0, k - 1)
    breaks = draw(st.sets(st.sampled_from(["type", "sign", "order", "sum"])))
    if "order" in breaks and k > 1:
        i, j = draw(index), draw(index)
        vs[i], vs[j] = (vs[j], vs[i]) if draw(st.booleans()) else (vs[j], vs[j])
    if "sign" in breaks:
        i = draw(index)
        ps[i] = draw(st.sampled_from((F(0), -ps[i])))
    if "sum" in breaks:
        ps[draw(index)] += draw(st.sampled_from((F(1, 7), F(-1, 7), F(3))))
    if "type" in breaks:
        i = draw(index)
        if draw(st.booleans()):
            vs[i] = draw(st.sampled_from((int(vs[i]), float(vs[i]))))
        else:
            ps[i] = float(ps[i])
    return tuple(zip(vs, ps))


@st.composite
def certificates(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, min(4, (n - 1) ** 2 + 1)))
    perms = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=k, max_size=k))
    ws = draw(simplex(k, allow_zero=False))
    return PermutationCertificate(n=n, terms=tuple(zip(perms, ws)))


@st.composite
def certificate_terms(draw, max_n=4):
    """(n, terms) for PermutationCertificate: weights that sum to 1 or to
    something else, zeros and negatives among them, a term count that may
    pass the bound, and now and then a term that is no permutation."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, (n - 1) ** 2 + 2))
    perms = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=k, max_size=k))
    if perms and draw(st.integers(0, 4)) == 0:
        perms[draw(st.integers(0, k - 1))] = (0,) * n
    raw = draw(st.lists(st.integers(-1, 6), min_size=k, max_size=k))
    total = sum(raw) + draw(st.sampled_from((0, 0, 1, 5)))
    weights = [F(w, total or 7) for w in raw]
    return n, tuple(zip(perms, weights))


@st.composite
def doubly_stochastic_rows(draw, max_n=4):
    """A convex combination of permutation matrices, as lists of lists."""
    cert = draw(certificates(max_n))
    rows = [[F(0)] * cert.n for _ in range(cert.n)]
    for perm, w in cert.terms:
        for i, src in enumerate(perm):
            rows[i][src] += w
    return rows


@st.composite
def perturbed(draw, rows):
    """`rows`, whose rows and columns share one sum, left as they are or
    changed in one of the ways a validator must notice, or must not."""
    n = len(rows)
    rows = [list(r) for r in rows]
    kind = draw(st.sampled_from(["none", "cell", "row_move", "col_move", "cycle", "shape"]))
    d = draw(st.builds(F, st.integers(1, 4), st.sampled_from((2, 3, 5, 7))))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    i2, j2 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "cell":
        rows[i][j] += draw(st.sampled_from((d, -d)))
    elif kind == "row_move":  # row sums kept
        rows[i][j] -= d
        rows[i][j2] += d
    elif kind == "col_move":  # column sums kept
        rows[i][j] -= d
        rows[i2][j] += d
    elif kind == "cycle":  # row and column sums kept, a cell may go negative
        rows[i][j] -= d
        rows[i][j2] += d
        rows[i2][j] += d
        rows[i2][j2] -= d
    elif kind == "shape":
        if draw(st.booleans()):
            rows[i].append(F(0))
        else:
            rows[i].pop()
    return tuple(tuple(r) for r in rows)


@st.composite
def slack_pairs(draw):
    """(xi, eta) of every shape the lift and the SSD split treat apart:
    unrelated pairs, xi = eta, two Diracs, pairs where xi already
    dominates with equal means (gap 0), and such pairs with xi shifted up,
    which need top-slot slack only."""
    kind = draw(st.sampled_from(["random", "equal", "dirac", "gap_zero", "top_only"]))
    if kind == "random":
        return draw(dists()), draw(dists())
    if kind == "equal":
        d = draw(dists())
        return d, d
    if kind == "dirac":
        return dirac(draw(values)), dirac(draw(values))
    eta = draw(dists())
    w = draw(st.builds(F, st.integers(1, 4), st.just(4)))
    xi = mixture([dirac(eta.mean()), eta], [w, 1 - w])  # less spread, same mean
    if kind == "top_only":
        lift = draw(st.builds(F, st.integers(1, 12), st.sampled_from(VALUE_DENS)))
        xi = helpers.shift(xi, lift)
    return xi, eta


@st.composite
def grid_pairs(draw, max_n=16):
    """(a, b) sorted grids of 1..max_n slots with values k/d, |k| <= 4 and
    d <= 3, so values repeat.  Half the time a comes from b by a few
    random transfers, so b majorizes it; otherwise a is drawn freely."""
    n = draw(st.integers(1, max_n))
    small = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    b = sorted(draw(st.lists(small, min_size=n, max_size=n)))
    if draw(st.booleans()):
        a = list(b)
        for _ in range(draw(st.integers(1, 4)) if n > 1 else 0):
            i = draw(st.integers(0, n - 2))
            j = draw(st.integers(i + 1, n - 1))
            s = draw(st.builds(F, st.integers(1, 4), st.just(4)))
            a[i], a[j] = a[i] + s * (a[j] - a[i]), a[j] + s * (a[i] - a[j])
    else:
        a = draw(st.lists(small, min_size=n, max_size=n))
    return UniformGrid.from_values(a), UniformGrid.from_values(b)


@st.composite
def run_cells(draw, pool, m):
    """m cells from `pool`, either a few of its values repeated in runs of
    drawn lengths or no two neighbours equal (every run one cell, when the
    pool holds two values or more)."""
    if draw(st.booleans()):
        cells = []
        while len(cells) < m:
            cells += [draw(st.sampled_from(pool))] * draw(st.integers(1, m))
        return tuple(cells[:m])
    cells = [draw(st.sampled_from(pool))]
    while len(cells) < m:
        cells.append(draw(st.sampled_from([v for v in pool if v != cells[-1]] or pool)))
    return tuple(cells)


@st.composite
def run_joints(draw, max_m=40, max_atoms=6):
    """Joint laws of up to `max_m` coordinates whose vectors are
    `run_cells`, built either way in."""
    m = draw(st.integers(1, max_m))
    pool = list(dict.fromkeys(draw(st.lists(values, min_size=1, max_size=4))))
    k = draw(st.integers(1, max_atoms))
    merged = {}
    for vec, p in zip(
        draw(st.lists(run_cells(pool, m), min_size=k, max_size=k)),
        draw(simplex(k, allow_zero=False)),
    ):
        merged[vec] = merged.get(vec, 0) + p
    atoms = tuple(sorted(merged.items()))
    if draw(st.booleans()):
        return JointDist.from_atoms(atoms)
    return helpers.joint_from_integers(atoms, draw(st.integers(1, 6)))


@st.composite
def run_certificates(draw, max_n=8, max_terms=40):
    """Certificates whose slot columns (perm_k[i])_k hold long runs: each
    term's permutation is the one before it with a few slots swapped, or
    none.  Otherwise every term rotates the one before it, so no two
    neighbours in a column are equal."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, min(max_terms, (n - 1) ** 2 + 1)))
    perm = list(draw(st.permutations(range(n))))
    rotate = draw(st.booleans())
    perms = []
    for _ in range(k):
        perms.append(tuple(perm))
        if rotate:
            perm = perm[1:] + perm[:1]
        else:
            for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                perm[i], perm[j] = perm[j], perm[i]
    ws = draw(simplex(k, allow_zero=False))
    return PermutationCertificate(n=n, terms=tuple(zip(perms, ws)))


class Draws:
    """Stands in for st.data() in an @example: draw() hands out the given
    values in order, whatever strategy it is passed."""

    def __init__(self, *values):
        self.values = values
        self.pending = iter(values)

    def draw(self, strategy, label=None):
        return next(self.pending)

    def __repr__(self):
        return f"Draws{self.values!r}"


#: (joint, weights) where a zero weight falls inside a run of equal cells,
#: on a cell between two equal cells of another value, at both ends, and
#: on every coordinate but one
ZERO_WEIGHT_CASES = [
    (helpers.joint_from_pairs([((1, 1, 1), F(1, 2)), ((2, 1, 3), F(1, 2))]), (F(1, 4), 0, F(3, 4))),
    (helpers.joint_from_pairs([((1, 5, 1), F(1, 3)), ((0, 5, 2), F(2, 3))]), (F(1, 2), 0, F(1, 2))),
    (
        helpers.joint_from_pairs([((7, 1, 2, 7), F(1, 2)), ((-1, 2, 2, F(3, 2)), F(1, 2))]),
        (0, F(1, 3), F(2, 3), 0),
    ),
    (helpers.joint_from_pairs([((4, 4, F(1, 2), 4), F(1, 4)), ((0, 1, 2, 3), F(3, 4))]),
     (0, 0, 1, 0)),
]


def zero_weight_examples(*draws):
    """@example every ZERO_WEIGHT_CASES joint, with its weights and then
    `draws` as the test's draws from st.data()."""

    def add(test):
        for j, ws in ZERO_WEIGHT_CASES:
            test = example(j, Draws(ws, *draws))(test)
        return test

    return add


def chain_outcome(fn, a, b):
    """The transfers fn(a, b) returns, or None when it refuses the pair."""
    try:
        return fn(a, b)
    except CertificationError:
        return None


class TestSums:
    @given(st.lists(values, min_size=0, max_size=5), st.booleans(), st.integers(-1, 1))
    def test_simplex_weights(self, raw, normalize, extra):
        ws = raw
        if normalize and raw and sum(raw) != 0:
            ws = [w / sum(raw) for w in raw]
        size = len(ws) + extra
        expected = failure(lambda: oracles.naive_simplex_weights(ws, size))
        assert failure(lambda: _simplex_scale(ws, size)) == expected
        if expected is None:
            assert _simplex_scale(ws, size) == common_scale(oracles.naive_simplex_weights(ws))

    @given(st.lists(dists(), min_size=1, max_size=4), st.data())
    def test_mixture(self, ds, data):
        ws = data.draw(simplex(len(ds)))
        assert mixture(ds, ws) == oracles.naive_mixture(ds, ws)

    @given(st.one_of(joints(), run_joints()), st.data())
    @zero_weight_examples()
    @settings(max_examples=200, deadline=None)
    def test_convex_combination(self, j, data):
        ws = data.draw(simplex(j.m))
        assert convex_combination(j, ws) == oracles.naive_convex_combination(j, ws)

    @given(st.one_of(joints(), run_joints()), st.data())
    @zero_weight_examples()
    @settings(max_examples=200, deadline=None)
    def test_mixture_of_marginals(self, j, data):
        ws = data.draw(simplex(j.m))
        assert j._on_scale(ws).mixture() == oracles.naive_mixture_of_marginals(j, ws)

    @given(st.one_of(certificates(), run_certificates()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_combine(self, cert, data):
        vs = tuple(data.draw(st.lists(values, min_size=cert.n, max_size=cert.n)))
        acc, scale = cert._combine_on_scale(*common_scale(vs))
        assert tuple(F(a, scale) for a in acc) == oracles.naive_combine(cert.terms, vs)

    @given(certificate_terms())
    def test_certificate_weights(self, args):
        n, terms = args
        assert failure(lambda: PermutationCertificate(n, terms)) == failure(
            lambda: oracles.naive_validate_certificate(n, terms)
        )

    @given(doubly_stochastic_rows(), st.data())
    @settings(deadline=None)
    def test_coupling(self, rows, data):
        n = len(rows)
        matrix = [[x / n for x in row] for row in rows]
        col_values = tuple(data.draw(st.lists(values, min_size=n, max_size=n)))
        row_values = [n * sum(c * v for c, v in zip(row, col_values)) for row in matrix]
        if data.draw(st.booleans()):  # break one row's average
            row_values[data.draw(st.integers(0, n - 1))] += data.draw(values)
        matrix = data.draw(perturbed(matrix))
        args = (n, matrix, tuple(row_values), col_values)
        expected = failure(lambda: oracles.naive_validate_coupling(*args))
        assert failure(lambda: MartingaleCoupling.from_matrix(*args)) == expected
        cells, den = helpers.integer_view(matrix, data.draw(st.integers(1, 6)))
        assert failure(
            lambda: MartingaleCoupling(n, cells, den, tuple(row_values), col_values)
        ) == expected


class TestValidators:
    @given(dist_atoms())
    def test_simple_dist(self, atoms):
        assert outcome(lambda: SimpleDist(atoms)) == outcome(
            lambda: oracles.naive_validate_dist(atoms)
        )


class TestGridSlots:
    @given(dists(), st.data())
    def test_slots_are_the_regrid_loop(self, d, data):
        size = math.lcm(*(p.denominator for p in d.probs))
        n = data.draw(st.one_of(st.integers(1, 3).map(size.__mul__), st.integers(-1, 2 * size)))
        expected = failure(lambda: oracles.naive_regrid(d, n))
        assert failure(lambda: UniformGrid(d, n)) == expected
        if expected is None:
            assert UniformGrid(d, n).values == oracles.naive_regrid(d, n)

    @given(dists(), dists(), st.integers(1, 3))
    def test_slot_scale_is_the_scale_of_the_slots(self, xi, eta, k):
        n = k * common_refinement(xi, eta)[0].n
        a, b = UniformGrid(xi, n), UniformGrid(eta, n)
        nums, den = common_scale(a.values + b.values)
        assert _slot_scale(a, b) == ([nums[:n], nums[n:]], den)
        nums, den = common_scale(b.values)
        assert _slot_scale(b) == ([nums], den)


class TestIntegerView:
    @given(st.one_of(joints(), run_joints()), st.data())
    @zero_weight_examples(dirac(0))
    @settings(deadline=None)
    def test_verify_div2_accepts_exactly_the_two_laws(self, j, data):
        ws = data.draw(simplex(j.m))
        law = oracles.naive_convex_combination(j, ws)
        mix = oracles.naive_mixture_of_marginals(j, ws)
        assert verify_div2_instance(law, mix, j, ws)
        other = data.draw(dists())
        if other != law:
            assert not verify_div2_instance(other, mix, j, ws)
        if other != mix:
            assert not verify_div2_instance(law, other, j, ws)

    def test_verify_div2_validates_the_weights_once(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return _simplex_scale(*args, **kwargs)

        j = helpers.joint_from_pairs([((1, F(1, 3)), F(1, 2)), ((3, F(-5, 3)), F(1, 2))])
        ws = (F(1, 4), F(3, 4))
        law = oracles.naive_convex_combination(j, ws)
        mix = oracles.naive_mixture_of_marginals(j, ws)
        for module in (divcert.dist, divcert.dominance):
            monkeypatch.setattr(module, "_simplex_scale", spy, raising=False)
        assert verify_div2_instance(law, mix, j, ws)
        assert len(calls) == 1

    @given(joint_atoms(), st.integers(1, 6))
    @settings(max_examples=100)
    def test_both_ways_in_give_one_joint(self, atoms, factor):
        built = helpers.joint_from_integers(atoms, factor)
        parsed = JointDist.from_atoms(atoms)
        assert built == parsed and hash(built) == hash(parsed)
        assert built.atoms == parsed.atoms == atoms
        assert (built.rows, built.vden, built.masses, built.pden) == (
            parsed.rows, parsed.vden, parsed.masses, parsed.pden
        )

    @given(doubly_stochastic_rows(), st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_ways_in_give_one_coupling(self, rows, factor, data):
        n = len(rows)
        matrix = tuple(tuple(x / n for x in row) for row in rows)
        cols = tuple(data.draw(st.lists(values, min_size=n, max_size=n)))
        row_values = tuple(n * sum(map(F.__mul__, row, cols)) for row in matrix)
        cells, den = helpers.integer_view(matrix, factor)
        built = MartingaleCoupling(n, cells, den, row_values, cols)
        parsed = MartingaleCoupling.from_matrix(n, matrix, row_values, cols)
        assert built == parsed and hash(built) == hash(parsed)
        assert built.matrix == parsed.matrix == matrix
        assert (built.cells, built.den) == (parsed.cells, parsed.den)

    @given(joints())
    @example(JointDist(((2, 6), (4, 2)), 4, (2, 2), 4))  # both scales cancel by 2
    def test_joint_to_obj(self, j):
        text = _joint(j, "\n")
        obj = json.loads(text)
        assert obj == oracles.naive_joint_to_obj(j)
        assert text + "\n" == dumps(obj)
        assert joint_from_obj(obj) == j


class TestRunFolds:
    @given(st.data())
    def test_runs(self, data):
        m = data.draw(st.integers(1, 40))
        pool = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
        cells = data.draw(run_cells(pool, m))
        weights = data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        groups = [(v, [w for _, w in g]) for v, g in groupby(zip(cells, weights), lambda c: c[0])]
        assert _runs(cells, list(accumulate(weights, initial=0)), _run_starts(cells)) == (
            [v for v, _ in groups], [sum(ws) for _, ws in groups]
        )

    @given(st.one_of(certificates(), run_certificates()), st.data())
    @settings(deadline=None)
    def test_verify_div1_accepts_exactly_the_combined_law(self, cert, data):
        grid = UniformGrid.from_values(data.draw(st.lists(values, min_size=cert.n, max_size=cert.n)))
        slots = oracles.naive_combine(cert.terms, grid.values)
        xi = SimpleDist.from_pairs((v, F(1, cert.n)) for v in slots)
        eta = grid.dist
        assert verify_div1_certificate(xi, eta, cert)
        other = data.draw(dists())
        assert verify_div1_certificate(other, eta, cert) == (other == xi)


class TestSlackConstructions:
    @given(slack_pairs())
    @settings(deadline=None)
    def test_lift(self, pair):
        assert lift_delta_gamma(*pair) == oracles.naive_lift_delta_gamma(*pair)

    @given(slack_pairs())
    @settings(deadline=None)
    def test_decompose(self, pair):
        expected = failure(lambda: oracles.naive_decompose_ssd(*pair))
        assert failure(lambda: decompose_ssd(*pair)) == expected
        if expected is None:
            assert decompose_ssd(*pair) == oracles.naive_decompose_ssd(*pair)


class TestTransferChain:
    @given(grid_pairs())
    @settings(max_examples=300, deadline=None)
    def test_chain_and_majorization(self, pair):
        a, b = pair
        witness = oracles.naive_check_majorization(a, b)
        assert majorization_violation(a, b) == witness
        assert check_majorization(a, b) == (witness is None)
        assert chain_outcome(t_transform_chain, a, b) == chain_outcome(
            oracles.naive_t_transform_chain, a, b
        )


class TestEdges:
    def test_zero_weight_components_drop_out(self):
        d = SimpleDist.from_pairs([(F(1, 97), F(1, 2)), (5, F(1, 2))])
        assert mixture([dirac(1), d], [1, 0]) == dirac(1)
        # coordinate 1 is touched by a zero weight only: its values vanish
        j = helpers.joint_from_pairs([((1, F(1, 97)), F(1, 2)), ((3, F(-5, 7)), F(1, 2))])
        marginal = SimpleDist.from_pairs([(1, F(1, 2)), (3, F(1, 2))])
        assert j._on_scale([1, 0]).mixture() == marginal
        assert convex_combination(j, [1, 0]) == marginal

    def test_negative_values_and_repeats_merge(self):
        j = helpers.joint_from_pairs([((-2, 2), F(1, 3)), ((2, -2), F(1, 3)), ((-2, -2), F(1, 3))])
        half = [F(1, 2), F(1, 2)]
        assert convex_combination(j, half) == SimpleDist.from_pairs(
            [(-2, F(1, 3)), (0, F(2, 3))]
        )
        assert j._on_scale(half).mixture() == SimpleDist.from_pairs(
            [(-2, F(2, 3)), (2, F(1, 3))]
        )

    def test_coprime_denominators(self):
        ws = (F(1, 7), F(2, 7), F(4, 7))
        j = helpers.joint_from_pairs(
            [((F(1, 2), F(-3, 4), F(5, 8)), F(1, 3)), ((F(1, 3), F(1, 6), F(-1, 9)), F(2, 3))]
        )
        assert convex_combination(j, ws) == oracles.naive_convex_combination(j, ws)
        assert j._on_scale(ws).mixture() == oracles.naive_mixture_of_marginals(j, ws)
        ds = [dirac(F(1, 2)), dirac(F(1, 3)), SimpleDist.from_pairs([(F(1, 4), F(1, 5)), (1, F(4, 5))])]
        assert mixture(ds, ws) == oracles.naive_mixture(ds, ws)

    def test_one_coordinate_and_one_slot(self):
        j = helpers.joint_from_pairs([((F(-1, 2),), F(1, 4)), ((F(3, 2),), F(3, 4))])
        assert j._on_scale([1]).mixture() == j.marginal(0)
        assert convex_combination(j, [1]) == j.marginal(0)
        cert = PermutationCertificate(n=1, terms=(((0,), F(1)),))
        assert cert._combine_on_scale([-7], 3) == ([-7], 3)
        assert MartingaleCoupling.from_matrix(1, ((F(1),),), (F(2, 5),), (F(2, 5),))

    def test_empty_coupling_is_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MartingaleCoupling.from_matrix(0, (), (), ())
