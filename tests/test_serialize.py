"""Wire formats: exactness and byte-stable round trips."""

import fractions
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divcert.dominance
import helpers
import oracles
from divcert import (
    JointDist,
    MartingaleCoupling,
    SimpleDist,
    UniformGrid,
    certify_bundle,
    certify_div1,
    dirac,
    mps_coupling,
    verify_div1_certificate,
    verify_div2_instance,
)
from divcert.serialize import (
    bundle_text,
    certificate_from_obj,
    coupling_from_obj,
    coupling_text,
    decimal_str,
    dist_from_obj,
    dist_to_obj,
    dumps,
    joint_from_obj,
    rational_obj,
)
from oracles import certificate_to_obj, coupling_to_obj
from oracles import naive_joint_to_obj as joint_to_obj


class TestDistJson:
    def test_round_trip_is_byte_identical(self):
        rng = random.Random(1)
        for _ in range(100):
            d = helpers.rand_dist(rng)
            text = dumps(dist_to_obj(d))
            again = dumps(dist_to_obj(dist_from_obj(json.loads(text))))
            assert text == again

    def test_decimal_values_parse_exactly(self):
        d = dist_from_obj({"atoms": [{"v": "0.1", "p": "0.25"}, {"v": "2", "p": "0.75"}]})
        assert d.atoms == ((F(1, 10), F(1, 4)), (F(2), F(3, 4)))

    def test_malformed(self):
        for obj in ({}, {"atoms": 3}, {"atoms": [{"v": "1"}]}, [1, 2]):
            with pytest.raises(ValueError):
                dist_from_obj(obj)
        with pytest.raises(ValueError):
            dist_from_obj({"atoms": [{"v": "1", "p": "1/2"}]})  # mass 1/2


def _coupling(**fields) -> dict:
    """A valid one-slot coupling object, with `fields` replaced."""
    return {"n": 1, "row_values": ["0"], "col_values": ["0"], "matrix": [["1"]], **fields}


#: bundle parts that must be refused with ValueError: a missing key, a
#: wrong container, or a JSON float or boolean where an integer belongs
MALFORMED_BUNDLE_PARTS = {
    "term_without_weight": (certificate_from_obj, {"n": 2, "terms": [{"perm": [0, 1]}]}),
    "term_not_an_object": (certificate_from_obj, {"n": 1, "terms": [[[0], "1"]]}),
    "float_perm": (certificate_from_obj, {"n": 2, "terms": [{"perm": [0.9, 1], "weight": "1"}]}),
    "bool_perm": (certificate_from_obj, {"n": 2, "terms": [{"perm": [False, True], "weight": "1"}]}),
    "float_n": (certificate_from_obj, {"n": 2.7, "terms": [{"perm": [0, 1], "weight": "1"}]}),
    "null_weight": (certificate_from_obj, {"n": 1, "terms": [{"perm": [0], "weight": None}]}),
    "joint_atoms_not_a_list": (joint_from_obj, {"atoms": 5}),
    "joint_vector_not_a_list": (joint_from_obj, {"atoms": [{"v": 5, "p": "1"}]}),
    "joint_null_probability": (joint_from_obj, {"atoms": [{"v": ["1"], "p": None}]}),
    "coupling_not_an_object": (coupling_from_obj, []),
    "coupling_empty_object": (coupling_from_obj, {}),
    "coupling_bool_n": (coupling_from_obj, _coupling(n=True)),
    "coupling_row_not_a_list": (coupling_from_obj, _coupling(matrix=[5])),
}


class TestCertificateJson:
    def test_round_trip(self):
        rng = random.Random(2)
        xi, eta = helpers.mps_pair(rng, base_atoms=4, max_doublings=2)
        cert, joint = certify_div1(xi, eta)
        assert certificate_from_obj(certificate_to_obj(cert)) == cert
        assert joint_from_obj(joint_to_obj(joint)) == joint
        coupling = mps_coupling(xi, eta)
        assert coupling_from_obj(coupling_to_obj(coupling)) == coupling

    def test_malformed(self):
        with pytest.raises(ValueError):
            certificate_from_obj({"terms": []})

    def test_bundles_parse_without_the_fraction_regex(self, monkeypatch):
        """Every number divcert writes is canonical str(Fraction) text, and
        as_rational reads that with int(): the regex behind Fraction(str)
        is never reached while a bundle is parsed."""

        class NoRegex:
            def match(self, text):
                raise AssertionError(f"Fraction(str) parsed {text!r}")

        xi, eta = helpers.spread_pair(random.Random(5), 4, 2)
        obj = _wire(xi, eta)
        cert, joint, coupling = certify_bundle(xi, eta)
        monkeypatch.setattr(fractions, "_RATIONAL_FORMAT", NoRegex())
        assert certificate_from_obj(obj["certificate"]) == cert
        assert joint_from_obj(obj["joint"]) == joint
        assert coupling_from_obj(obj["coupling"]) == coupling

    def test_non_canonical_joint_is_refused(self):
        """A written joint is sorted and distinct, its vectors of one length
        and its masses positive with sum 1; the parser refuses any other
        rather than repair it, with the message the integer constructor
        gives for the same atoms."""
        xi, eta = helpers.spread_pair(random.Random(5), 4, 2)
        atoms = _wire(xi, eta)["joint"]["atoms"]
        assert len(atoms) >= 2
        first, second, *rest = atoms
        m = len(first["v"])

        def extra(p):
            return {"v": [str(max(eta.values) + 1)] * m, "p": p}

        broken = [
            ("distinct and sorted", [second, first, *rest]),
            ("distinct and sorted", [first, first, second, *rest]),
            ("same length", [first, {"v": second["v"] + ["0"], "p": second["p"]}, *rest]),
            ("positive", [*atoms, extra("0")]),
            ("positive", [*atoms, extra("-1/7")]),
            ("sum to 8/7, not 1", [*atoms, extra("1/7")]),
        ]
        for message, bad in broken:
            with pytest.raises(ValueError, match=message) as fractions_way:
                joint_from_obj({"atoms": bad})
            with pytest.raises(ValueError) as integers_way:
                helpers.joint_from_integers([(a["v"], a["p"]) for a in bad])
            assert str(integers_way.value) == str(fractions_way.value)

    @pytest.mark.parametrize("parse, obj, message", [
        (certificate_from_obj, {"n": 10**6, "terms": [{"perm": [0], "weight": "1"}]},
         "is not a permutation of 0..999999"),
        (coupling_from_obj,
         {"n": 10**6, "row_values": ["0"], "col_values": ["0"], "matrix": [["1"]]},
         "must all have size n"),
    ], ids=["certificate", "coupling"])
    def test_a_huge_n_in_a_small_file_is_refused_small(self, parse, obj, message):
        """A claimed n is refused by the lengths of the lists that carry it
        before anything of size n is built."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                parse(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("parse, obj", list(MALFORMED_BUNDLE_PARTS.values()),
                             ids=list(MALFORMED_BUNDLE_PARTS))
    def test_malformed_parts_are_value_errors(self, parse, obj):
        with pytest.raises(ValueError):
            parse(obj)


def _wire(xi, eta) -> dict:
    """The bundle text `divcert certify` writes, read back, its three parts
    apart."""
    bundle = json.loads(bundle_text(*certify_bundle(xi, eta)))
    return {
        "certificate": {"n": bundle["n"], "terms": bundle["terms"]},
        "joint": bundle["joint"],
        "coupling": bundle["coupling"],
    }


def _verdict(xi, eta, obj) -> bool:
    """*_from_obj -> both verifiers; a parse or validation error raises."""
    cert = certificate_from_obj(obj["certificate"])
    joint = joint_from_obj(obj["joint"])
    coupling_from_obj(obj["coupling"])
    return verify_div1_certificate(xi, eta, cert) and verify_div2_instance(
        xi, eta, joint, cert.weights
    )


def _reconstructs(xi, eta, terms) -> bool:
    """Do these (perm, weight) terms rebuild xi in law (integer oracle)?"""
    n = len(terms[0][0])
    slots = oracles.reconstruct_slots(terms, UniformGrid(eta, n).values)
    return SimpleDist.from_pairs((v, F(1, n)) for v in slots) == xi


class TestTamperRoundTrip:
    """A bundle that went through JSON verifies; one changed thing fails it."""

    PAIRS = [helpers.spread_pair(random.Random(seed), 3, 2) for seed in range(12)]

    @staticmethod
    def _terms(obj):
        return [(tuple(t["perm"]), F(t["weight"])) for t in obj["certificate"]["terms"]]

    def test_clean_bundles_verify(self):
        for xi, eta in self.PAIRS:
            assert _verdict(xi, eta, _wire(xi, eta))

    def test_swapped_weights(self):
        tampered = 0
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            terms = self._terms(obj)
            for i, j in itertools.combinations(range(len(terms)), 2):
                swapped = list(terms)
                swapped[i] = (terms[i][0], terms[j][1])
                swapped[j] = (terms[j][0], terms[i][1])
                if terms[i][1] != terms[j][1] and not _reconstructs(xi, eta, swapped):
                    break
            else:
                continue
            ti, tj = obj["certificate"]["terms"][i], obj["certificate"]["terms"][j]
            ti["weight"], tj["weight"] = tj["weight"], ti["weight"]
            assert not _verdict(xi, eta, obj)
            tampered += 1
        assert tampered >= 8

    def test_swapped_permutation_entries(self):
        tampered = 0
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            terms = self._terms(obj)
            for k, i in itertools.product(range(len(terms)), range(1, obj["certificate"]["n"])):
                perm, w = terms[k]
                swapped = list(perm)
                swapped[0], swapped[i] = swapped[i], swapped[0]
                if not _reconstructs(xi, eta, terms[:k] + [(tuple(swapped), w)] + terms[k + 1:]):
                    break
            else:
                continue
            obj["certificate"]["terms"][k]["perm"] = swapped
            assert not _verdict(xi, eta, obj)
            tampered += 1
        assert tampered >= 8

    def test_changed_joint_coordinate(self):
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            # no atom of eta sits there, and every weight is positive
            obj["joint"]["atoms"][-1]["v"][-1] = str(max(eta.values) + 1)
            assert not _verdict(xi, eta, obj)

    def test_mass_moved_within_a_coupling_row(self):
        tampered = 0
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            cols = [F(v) for v in obj["coupling"]["col_values"]]
            matrix = obj["coupling"]["matrix"]
            n = len(matrix)
            cells = [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                     if F(matrix[i][j]) > 0 and cols[j] != cols[k]]
            if not cells:
                continue
            i, j, k = cells[0]
            half = F(matrix[i][j]) / 2
            matrix[i][j] = str(F(matrix[i][j]) - half)
            matrix[i][k] = str(F(matrix[i][k]) + half)
            with pytest.raises(ValueError):
                _verdict(xi, eta, obj)
            tampered += 1
        assert tampered >= 8


def _inner_runs(cells, min_len):
    """(start, end) of each run of at least `min_len` equal adjacent
    entries of `cells`, end exclusive."""
    out, start = [], 0
    for i in range(1, len(cells) + 1):
        if i == len(cells) or cells[i] != cells[start]:
            if i - start >= min_len:
                out.append((start, i))
            start = i
    return out


class TestTamperAtRunBoundaries:
    """The verifiers fold over runs of equal adjacent cells, so a change
    strictly inside a run, at its first cell or at its last must fail a
    bundle as surely as any other change."""

    PAIRS = [helpers.spread_pair(random.Random(seed), 4, 2) for seed in range(12)]

    @pytest.mark.parametrize("where", ["inside", "first", "last"])
    def test_changed_joint_cell(self, where):
        tampered = 0
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            atoms = obj["joint"]["atoms"]
            found = [(a, run) for a, atom in enumerate(atoms) for run in _inner_runs(atom["v"], 3)]
            if not found:
                continue
            a, (start, end) = found[len(found) // 2]
            cell = {"inside": start + 1, "first": start, "last": end - 1}[where]
            # no atom of eta sits there, and every weight is positive; the
            # atoms are put back in order, so the parser accepts the joint
            # and the folds must refuse it
            atoms[a]["v"][cell] = str(max(eta.values) + 1)
            atoms.sort(key=lambda atom: [F(x) for x in atom["v"]])
            assert not _verdict(xi, eta, obj)
            tampered += 1
        assert tampered >= 10

    def test_swapped_slots_inside_a_run(self):
        """Swap perm_k[i] and perm_k[j] for a term k that sits strictly
        inside a run of both columns i and j: each column's run splits
        in three."""
        tampered = 0
        for xi, eta in self.PAIRS:
            obj = _wire(xi, eta)
            terms = TestTamperRoundTrip._terms(obj)
            # inside[i]: the terms strictly inside a run of column i
            inside = [
                {k for start, end in _inner_runs(column, 3) for k in range(start + 1, end - 1)}
                for column in zip(*(perm for perm, _ in terms))
            ]
            candidates = [
                (k, i, j)
                for i, j in itertools.combinations(range(len(inside)), 2)
                for k in inside[i] & inside[j]
            ]
            for k, i, j in sorted(candidates):
                perm, w = terms[k]
                swapped = list(perm)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if not _reconstructs(xi, eta, terms[:k] + [(tuple(swapped), w)] + terms[k + 1:]):
                    break
            else:
                continue
            obj["certificate"]["terms"][k]["perm"] = swapped
            assert not _verdict(xi, eta, obj)
            tampered += 1
        assert tampered >= 10


#: strings with the characters JSON must escape, and non-ASCII text
texts = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'), st.characters()), max_size=8
)
ints = st.one_of(st.integers(), st.integers(-(10**80), 10**80))
leaves = st.one_of(
    texts,
    ints,
    st.booleans(),
    st.none(),
    st.lists(texts, max_size=4),
    st.lists(ints, max_size=4),
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=20,
)


class Real(float):
    """A float by isinstance, not by type."""


class TestDumps:
    @given(json_trees)
    @settings(max_examples=150, deadline=None)
    def test_equals_json_dumps_indent_2(self, tree):
        assert dumps(tree) == json.dumps(tree, indent=2) + "\n"

    @pytest.mark.parametrize(
        "tree",
        [1.5, [1, 2.0], {"gap": float("nan")}, {1: "a"}, [{"ok": [{0: None}]}], {"s": {1, 2}},
         {"row": ("1/2", Real(0.5))}, {True: "a"}],
    )
    def test_rejects_what_is_not_a_plain_tree(self, tree):
        with pytest.raises(TypeError):
            dumps(tree)

    def test_bundle_shapes(self):
        rng = random.Random(5)
        for _ in range(10):
            xi, eta = helpers.mps_pair(rng, base_atoms=4, max_doublings=2)
            cert, joint, coupling = certify_bundle(xi, eta)
            obj = certificate_to_obj(cert)
            obj["joint"] = joint_to_obj(joint)
            obj["coupling"] = coupling_to_obj(coupling)
            assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


#: values with negative and non-dyadic members, so denominators repeat
spread_values = st.builds(F, st.integers(-24, 24), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def spread_pairs(draw):
    """(xi, eta) with eta a mean-preserving spread of xi: xi on up to four
    slots, each slot of eta split up to twice into v - s and v + s."""
    xs = sorted(draw(st.lists(spread_values, min_size=1, max_size=4)))
    es = list(xs)
    for _ in range(draw(st.integers(0, 2))):
        spread = []
        for v in es:
            s = draw(st.builds(F, st.integers(0, 6), st.sampled_from((1, 2, 3))))
            spread += [v - s, v + s]
        es = spread
    return UniformGrid.from_values(xs).dist, UniformGrid.from_values(sorted(es)).dist


#: negative, non-dyadic values: eta spreads the Dirac at -1/3
NEGATIVE_THIRDS = (dirac(F(-1, 3)), SimpleDist.from_pairs([(F(-2, 3), F(1, 2)), (0, F(1, 2))]))
#: a pair whose coupling is built over a denominator (2080) that its cells
#: share a factor with, so the coupling holds them over 1040
CANCELLING = (
    dirac(-2),
    SimpleDist.from_pairs([(F(-21, 4), F(1, 4)), (F(-9, 4), F(1, 4)), (F(-1, 4), F(1, 2))]),
)


class TestWitnessWriters:
    """The bundle and coupling writers render the integer views straight to
    text; `dumps` of the JSON trees in oracles.py defines that text."""

    @given(spread_pairs())
    @example((dirac(3), dirac(3)))  # n = 1, xi = eta
    @example(NEGATIVE_THIRDS)
    @example(CANCELLING)
    @settings(max_examples=60, deadline=None)
    def test_texts_equal_dumps_of_the_reference_trees(self, pair):
        xi, eta = pair
        cert, joint, coupling = certify_bundle(xi, eta)
        written = bundle_text(cert, joint, coupling)
        assert written == dumps(oracles.bundle_obj(cert, joint, coupling))
        mps = mps_coupling(xi, eta)
        assert coupling_text(mps) == dumps(coupling_to_obj(mps))

    def test_the_cancelling_example_cancels(self, monkeypatch):
        scales = []
        least_scale = divcert.dominance._least_scale

        def spy(rows, den):
            rows, least = least_scale(rows, den)
            scales.append((den, least))
            return rows, least

        monkeypatch.setattr(divcert.dominance, "_least_scale", spy)
        _, _, coupling = certify_bundle(*CANCELLING)
        assert scales == [(2080, 1040)] and coupling.den == 1040

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_digit_limit(self):
        """A value past the interpreter's digit limit fails the writers with
        the error the trees give."""
        huge = 10**700 + 1
        cert, _, _ = certify_bundle(dirac(0), dirac(0))
        small = MartingaleCoupling(1, (((0,), (1,)),), 1, (F(0),), (F(0),))
        joint = JointDist(((huge,),), 3, (1,), 1)
        zeros = (F(0), F(0))
        wide = MartingaleCoupling(
            2, (((0, 1), (huge, 1)), ((0, 1), (1, huge))), 2 * (huge + 1), zeros, zeros
        )
        cases = [
            (lambda: bundle_text(cert, joint, small),
             lambda: dumps(oracles.bundle_obj(cert, joint, small))),
            (lambda: coupling_text(wide), lambda: dumps(coupling_to_obj(wide))),
        ]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for writer, tree in cases:
                with pytest.raises(ValueError, match="^the exact result has ") as written:
                    writer()
                with pytest.raises(ValueError) as built:
                    tree()
                assert str(written.value) == str(built.value)
        finally:
            sys.set_int_max_str_digits(limit)


class TestRenderings:
    def test_decimal_precision(self):
        assert decimal_str(F(1, 3)) == "0.333333333333"
        assert decimal_str(F(7, 2)) == "3.5"
        assert decimal_str(F(-1)) == "-1"

    def test_rational_obj(self):
        obj = rational_obj(F(-3, 8))
        assert obj == {"rational": "-3/8", "decimal": "-0.375"}
