"""Wire formats: exactness and byte-stable round trips."""

import fractions
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from divcert import (
    SimpleDist,
    certify_bundle,
    certify_div1,
    mps_coupling,
    regrid,
    verify_div1_certificate,
    verify_div2_instance,
)
from divcert.serialize import (
    certificate_from_obj,
    certificate_to_obj,
    coupling_from_obj,
    coupling_to_obj,
    decimal_str,
    dist_from_obj,
    dist_to_obj,
    dumps,
    joint_from_obj,
    joint_to_obj,
    rational_obj,
)


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

    @pytest.mark.parametrize("parse, obj", list(MALFORMED_BUNDLE_PARTS.values()),
                             ids=list(MALFORMED_BUNDLE_PARTS))
    def test_malformed_parts_are_value_errors(self, parse, obj):
        with pytest.raises(ValueError):
            parse(obj)


def _wire(xi, eta) -> dict:
    """certify -> *_to_obj -> JSON text -> a fresh object."""
    cert, joint, coupling = certify_bundle(xi, eta)
    obj = {
        "certificate": certificate_to_obj(cert),
        "joint": joint_to_obj(joint),
        "coupling": coupling_to_obj(coupling),
    }
    return json.loads(dumps(obj))


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
    slots = oracles.reconstruct_slots(terms, regrid(eta, n).values)
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


class TestDumps:
    @given(json_trees)
    @settings(max_examples=150, deadline=None)
    def test_equals_json_dumps_indent_2(self, tree):
        assert dumps(tree) == json.dumps(tree, indent=2) + "\n"

    @pytest.mark.parametrize(
        "tree",
        [1.5, [1, 2.0], {"gap": float("nan")}, {1: "a"}, [{"ok": [{0: None}]}], {"s": {1, 2}}],
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


class TestRenderings:
    def test_decimal_precision(self):
        assert decimal_str(F(1, 3)) == "0.333333333333"
        assert decimal_str(F(7, 2)) == "3.5"
        assert decimal_str(F(-1)) == "-1"

    def test_rational_obj(self):
        obj = rational_obj(F(-3, 8))
        assert obj == {"rational": "-3/8", "decimal": "-0.375"}
