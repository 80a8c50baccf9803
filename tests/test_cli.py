"""Command-line interface: exit codes, reports, wire outputs."""

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
import types
from fractions import Fraction as F

import pytest

import divcert.risk
import helpers
from divcert import (
    SimpleDist,
    common_refinement,
    decompose_ssd,
    dirac,
    verify_div1_certificate,
    verify_div2_instance,
)
from divcert import certify, cli, demo
from divcert.cli import main
from divcert.serialize import (
    certificate_from_obj,
    coupling_from_obj,
    dist_to_obj,
    dumps,
    joint_from_obj,
)

COIN = SimpleDist.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
TWO_POINT = SimpleDist.from_pairs([(1, F(1, 2)), (3, F(1, 2))])


@pytest.fixture
def files(tmp_path):
    def write(name, d):
        path = tmp_path / name
        path.write_text(dumps(dist_to_obj(d)))
        return str(path)

    return {
        "zero": write("zero.json", dirac(0)),
        "two": write("two.json", dirac(2)),
        "coin": write("coin.json", COIN),
        "pair13": write("pair13.json", TWO_POINT),
        "tmp": tmp_path,
    }


class TestCheck:
    def test_ssd_holds(self, files, capsys):
        assert main(["check", "ssd", files["zero"], files["coin"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["gap"]["rational"] == "0"
        assert report["mean_a"]["rational"] == "0"

    def test_ssd_fails_with_witness(self, files, capsys):
        assert main(["check", "ssd", files["coin"], files["zero"]]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is False
        assert report["witness"]["alpha"]["rational"] == "1/2"
        assert report["gap"]["rational"] == "1/2"

    def test_fsd(self, files, capsys):
        assert main(["check", "fsd", files["two"], files["zero"]]) == 0
        capsys.readouterr()
        assert main(["check", "fsd", files["coin"], files["zero"]]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["witness"]["cdf_crossing_above"]["rational"] == "-1"

    def test_majorization(self, files, capsys):
        assert main(["check", "majorization", files["two"], files["pair13"]]) == 0
        capsys.readouterr()
        assert main(["check", "majorization", files["pair13"], files["two"]]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["witness"]["prefix_index"] == 1

    def test_reports_are_byte_identical_to_the_recorded_digest(self, files, capsys):
        """One report per relation and outcome: the holds/witness tail is
        written the same way for all three relations."""
        runs = [
            ("ssd", "zero", "coin"), ("ssd", "coin", "zero"),
            ("fsd", "two", "zero"), ("fsd", "coin", "zero"),
            ("majorization", "two", "pair13"), ("majorization", "pair13", "two"),
        ]
        codes = []
        digest = hashlib.sha256()
        for relation, a, b in runs:
            codes.append(main(["check", relation, files[a], files[b]]))
            digest.update(capsys.readouterr().out.encode())
        assert codes == [0, 1, 0, 1, 0, 1]
        assert digest.hexdigest() == (
            "02d2cc7a370aa05cbdae0fe67120755ff63a5431c37d016d26dba9d09dade1e4"
        )

    def test_ssd_walks_the_quantile_steps_once(self, files, capsys, monkeypatch):
        # the gap and the first witness come from one walk, also when the
        # gap is positive
        walks = []
        steps = divcert.risk.quantile_steps

        def counted(a, b):
            walks.append((a, b))
            return steps(a, b)

        monkeypatch.setattr(divcert.risk, "quantile_steps", counted)
        for a, b, code in (("zero", "coin", 0), ("coin", "zero", 1), ("zero", "two", 1)):
            walks.clear()
            assert main(["check", "ssd", files[a], files[b]]) == code
            capsys.readouterr()
            assert len(walks) == 1

    def test_missing_file(self, files, capsys):
        assert main(["check", "ssd", files["zero"], str(files["tmp"] / "nope.json")]) == 2

    def test_malformed_json(self, files, capsys):
        bad = files["tmp"] / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "ssd", files["zero"], str(bad)]) == 2


class TestEs:
    def test_level_one(self, files, capsys):
        assert main(["es", files["two"], "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "-2 (-2)\n"

    def test_coin_half(self, files, capsys):
        assert main(["es", files["coin"], "--alpha", "1/2"]) == 0
        assert capsys.readouterr().out.split()[0] == "1"

    def test_decimal_alpha(self, files, capsys):
        assert main(["es", files["coin"], "--alpha", "0.5"]) == 0
        assert capsys.readouterr().out.split()[0] == "1"

    def test_zero_alpha_is_usage_error(self, files, capsys):
        assert main(["es", files["coin"], "--alpha", "0"]) == 2

    @pytest.mark.parametrize("alpha", ["-1/20", "-1e-3"])
    def test_negative_level_is_the_level_error(self, files, capsys, alpha):
        for level in ([f"--alpha={alpha}"], ["--alpha", alpha]):
            assert main(["es", files["coin"], *level]) == 2
            err = capsys.readouterr().err
            assert err == f"error: level must lie in (0, 1], got {F(alpha)}\n"


class TestCertify:
    def test_success_writes_verified_bundle(self, files, capsys):
        out_path = files["tmp"] / "cert.json"
        assert main(["certify", files["two"], files["pair13"], "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["certified"] is True
        cert = certificate_from_obj(payload)
        joint = joint_from_obj(payload["joint"])
        coupling_from_obj(payload["coupling"])  # validates on construction
        assert verify_div1_certificate(dirac(2), TWO_POINT, cert)
        assert verify_div2_instance(dirac(2), TWO_POINT, joint, cert.weights)

    def test_identity_certificate(self, files, capsys):
        assert main(["certify", files["coin"], files["coin"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terms"] == [{"perm": [0, 1], "weight": "1"}]

    def test_means_differ(self, files, capsys):
        assert main(["certify", files["zero"], files["two"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "certified": False,
            "reason": "means differ",
            "mean_xi": {"rational": "0", "decimal": "0"},
            "mean_eta": {"rational": "2", "decimal": "2"},
        }

    def test_ssd_violated(self, files, capsys):
        assert main(["certify", files["coin"], files["zero"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "ssd violated at alpha=1/2"

    @staticmethod
    def _digest(tmp_path, command):
        """sha256 of every byte `divcert <command> --out` writes for the 24
        mps pairs and the two n = 64 spread pairs of seed 4242."""
        rng = random.Random(4242)
        pairs = [helpers.mps_pair(rng) for _ in range(24)]
        pairs += [helpers.spread_pair(rng, 8, 3) for _ in range(2)]
        assert [common_refinement(xi, eta)[0].n for xi, eta in pairs[-2:]] == [64] * 2
        digest = hashlib.sha256()
        for k, (xi, eta) in enumerate(pairs):
            xi_path = tmp_path / f"xi{k}.json"
            eta_path = tmp_path / f"eta{k}.json"
            out_path = tmp_path / f"{command}{k}.json"
            xi_path.write_text(dumps(dist_to_obj(xi)))
            eta_path.write_text(dumps(dist_to_obj(eta)))
            assert main([command, str(xi_path), str(eta_path), "--out", str(out_path)]) == 0
            digest.update(out_path.read_bytes())
        return digest.hexdigest()

    def test_bundles_are_byte_identical_to_the_recorded_digest(self, tmp_path):
        # Pins every byte `certify --out` writes: the terms, the joint law
        # and the coupling.  The digest was recorded when the certificate
        # and the coupling were still built by two separate constructions.
        assert self._digest(tmp_path, "certify") == (
            "835b1a308c97697d811615b965bf7da50b3d7ab94d29c2282f5be0bbc33e03ce"
        )

    def test_couplings_are_byte_identical_to_the_recorded_digest(self, tmp_path):
        # Pins every byte `mps --out` writes for the same pairs.  The digest
        # was recorded when the coupling still held one Fraction per cell.
        assert self._digest(tmp_path, "mps") == (
            "aa807955087a55dd5262cf74a2982bf7f03e7ba95035355d50594d201fab300a"
        )


#: Outcome of `certify` and `mps` on each relation against each size limit:
#: (limit, relation) -> (exit code, {command: (what its report's reason or
#: its output starts with, sha256 prefix of its stdout + stderr)}).  The
#: limits are none, CERTIFY_SLOT_CAP (a common refinement of 1031 slots)
#: and CERTIFY_DENOMINATOR_BITS (the gamma pair of
#: test_certify_denominator_bound, its n = 1024 product stopped at
#: transfer 64).  A failed relation exits 1 whatever the limit; a pair that
#: holds exits 2 above either limit.
REFUSALS = {
    ("none", "means differ"): (1, {
        "certify": ("means differ", "f3f888daa2adf03d"),
        "mps": ("means differ: 0 vs 2", "17b12fddd4ced236")}),
    ("none", "ssd violated"): (1, {
        "certify": ("ssd violated at alpha=1/2", "61062897419a57fa"),
        "mps": ("second-order dominance violated at level 1/2", "d030f1f2aca8769b")}),
    ("none", "holds"): (0, {
        "certify": ('{\n  "certified": true', "e48b259ef2aa6802"),
        "mps": ('{\n  "n": 2', "8961192eec3d5d6e")}),
    ("slot cap", "means differ"): (1, {
        "certify": ("means differ", "89c9d41657252192"),
        "mps": ("means differ: 1030/1031 vs 1029/1031", "ba7181a957609e21")}),
    ("slot cap", "ssd violated"): (1, {
        "certify": ("ssd violated at alpha=1/1031", "2d114c2689a3ce3d"),
        "mps": ("second-order dominance violated at level 1/1031", "553e26e3114ddb43")}),
    ("slot cap", "holds"): (2, {
        command: ("error: uniform refinement needs 1031 atoms", "7739476b63562e98")
        for command in ("certify", "mps")}),
    ("denominator bound", "means differ"): (1, {
        "certify": ("means differ", "cc16d808aea61e46"),
        "mps": ("means differ: ", "0e7b6c2e2286a3a5")}),
    ("denominator bound", "ssd violated"): (1, {
        "certify": ("ssd violated at alpha=1/1024", "1f85be75f6db4df6"),
        "mps": ("second-order dominance violated at level 1/1024", "0fcdc10d32a16722")}),
    ("denominator bound", "holds"): (2, {
        command: ("error: transfer 64 of 1023 needs", "d8235f0d24b15b18")
        for command in ("certify", "mps")}),
}


def refusal_pairs() -> dict:
    """The (xi, eta) pair of each REFUSALS case."""
    fine = SimpleDist.from_pairs([(0, F(1, 1031)), (1, F(1030, 1031))])
    eta = demo.gamma_mean_quantile_dist(1, 1024)
    zeta = decompose_ssd(demo.gamma_mean_quantile_dist(2, 1024), eta).zeta
    return {
        ("none", "means differ"): (dirac(0), dirac(2)),
        ("none", "ssd violated"): (COIN, dirac(0)),
        ("none", "holds"): (dirac(2), TWO_POINT),
        ("slot cap", "means differ"): (
            fine, SimpleDist.from_pairs([(0, F(2, 1031)), (1, F(1029, 1031))])),
        ("slot cap", "ssd violated"): (
            SimpleDist.from_pairs([(0, F(1, 1031)), (1, F(1029, 1031)), (2, F(1, 1031))]),
            dirac(1)),
        ("slot cap", "holds"): (fine, fine),
        ("denominator bound", "means differ"): (zeta, helpers.shift(eta, -1)),
        ("denominator bound", "ssd violated"): (eta, zeta),
        ("denominator bound", "holds"): (zeta, eta),
    }


@pytest.fixture(scope="module")
def refusal_files(tmp_path_factory):
    """The pair of each REFUSALS case, written to files."""
    tmp = tmp_path_factory.mktemp("refusals")
    paths = {}
    for k, (case, pair) in enumerate(refusal_pairs().items()):
        paths[case] = []
        for side, d in zip("xe", pair):
            path = tmp / f"{side}{k}.json"
            path.write_text(dumps(dist_to_obj(d)))
            paths[case].append(str(path))
    return paths


class TestRefusalOrder:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_exit_code_and_bytes(self, case, refusal_files, capsys):
        code, outcomes = REFUSALS[case]
        for command, (start, digest) in outcomes.items():
            assert main([command, *refusal_files[case]]) == code
            out, err = capsys.readouterr()
            shown = json.loads(out)["reason"] if code == 1 else out + err
            assert shown.startswith(start), (command, shown[:80])
            assert hashlib.sha256((out + err).encode()).hexdigest()[:16] == digest, command


class TestOtherCommands:
    def test_kantorovich(self, files, capsys):
        assert main(["kantorovich", files["zero"], files["coin"]]) == 0
        assert capsys.readouterr().out.split()[0] == "1"

    def test_mps(self, files, capsys):
        assert main(["mps", files["two"], files["pair13"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == [["1/4", "1/4"], ["1/4", "1/4"]]

    def test_mps_precondition(self, files, capsys):
        assert main(["mps", files["zero"], files["two"]]) == 1

    def test_lift(self, files, capsys):
        xi = files["tmp"] / "g22.json"
        eta = files["tmp"] / "g14.json"
        xi.write_text(dumps(dist_to_obj(dirac(2))))
        eta.write_text(dumps(dist_to_obj(
            SimpleDist.from_pairs([(1, F(1, 2)), (4, F(1, 2))]))))
        assert main(["lift", str(xi), str(eta)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == ["0", "1"]
        assert payload["gamma_top"] == "0"
        assert payload["gap"]["rational"] == "1/2"

    def test_lift_walks_no_quantile_steps(self, files, capsys, monkeypatch):
        # the gap is the mean of the slack the lift builds: no SSD walk
        walks = []
        steps = divcert.risk.quantile_steps

        def counted(a, b):
            walks.append((a, b))
            return steps(a, b)

        monkeypatch.setattr(divcert.risk, "quantile_steps", counted)
        for xi, eta in (("zero", "coin"), ("coin", "zero"), ("zero", "two")):
            assert main(["lift", files[xi], files[eta]]) == 0
            capsys.readouterr()
        assert walks == []

    def test_decompose_equal_means_echoes_xi(self, files, capsys):
        assert main(["decompose", files["zero"], files["coin"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"] is None
        assert payload["zeta"] == dist_to_obj(dirac(0))

    def test_decompose_truncates(self, files, capsys):
        wide = files["tmp"] / "wide.json"
        wide.write_text(dumps(dist_to_obj(
            SimpleDist.from_pairs([(0, F(1, 2)), (2, F(1, 2))]))))
        assert main(["decompose", str(wide), files["coin"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"]["rational"] == "0"

    def test_decompose_requires_ssd(self, files, capsys):
        assert main(["decompose", files["coin"], files["zero"]]) == 1

    def test_mix(self, files, capsys):
        assert main(["mix", files["zero"], files["two"],
                     "--weights", "1/2,1/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == dist_to_obj(
            SimpleDist.from_pairs([(0, F(1, 2)), (2, F(1, 2))]))

    def test_mix_bad_weights(self, files, capsys):
        assert main(["mix", files["zero"], files["two"], "--weights", "1/2,1/3"]) == 2

    def test_quantize(self, files, capsys):
        third = files["tmp"] / "third.json"
        third.write_text(dumps(dist_to_obj(dirac(F(1, 3)))))
        assert main(["quantize", str(third), "--denominator", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == dist_to_obj(dirac(F(1, 2)))


class TestRepeatedCalls:
    """`main` runs many commands in one process on one parser."""

    def test_a_usage_error_leaves_the_next_call_unchanged(self, files, capsys):
        certify_argv = ["certify", files["two"], files["pair13"]]
        assert main(certify_argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["es", files["coin"]])  # --alpha is required
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert main(certify_argv) == 0
        assert capsys.readouterr().out == first

    def test_out_is_not_carried_into_a_later_call(self, files, capsys):
        out_path = files["tmp"] / "cert.json"
        argv = ["certify", files["two"], files["pair13"]]
        assert main(argv + ["--out", str(out_path)]) == 0
        written = out_path.read_text()
        out_path.unlink()
        assert main(argv) == 0
        assert capsys.readouterr().out == written
        assert not out_path.exists()

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        for name in ("check", "es", "kantorovich", "certify", "mps", "lift",
                     "decompose", "mix", "quantize", "demo-lln"):
            assert name in texts[0]

    def test_the_parser_is_built_once(self, files, capsys, monkeypatch):
        argv = ["check", "ssd", files["zero"], files["coin"]]
        assert main(argv) == 0  # builds the parser if no earlier call has
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (argv, ["es", files["two"], "--alpha", "1"],
                     ["certify", files["two"], files["pair13"]]):
            assert main(argv) == 0
        assert built == []


#: Runs whose bytes no other digest test pins, as (exit code, argv), each
#: input named by its key in the `inputs` fixture.  `decompose` covers its
#: three outcomes: equal means (c is null), a truncation and a refusal.
OUTPUT_RUNS = [
    (0, ["es", "coin", "--alpha", "1/3"]),
    (0, ["es", "spread", "--alpha", "1/20"]),
    (0, ["kantorovich", "zero", "coin"]),
    (0, ["kantorovich", "spread", "third"]),
    (0, ["lift", "two", "wide14"]),
    (0, ["lift", "coin", "spread"]),
    (0, ["decompose", "zero", "coin"]),
    (0, ["decompose", "wide", "coin"]),
    (1, ["decompose", "coin", "zero"]),
    (0, ["mix", "zero", "two", "spread", "--weights", "1/2,1/3,1/6"]),
    (0, ["quantize", "spread", "--denominator", "3"]),
]

#: One input error per subcommand, found at a different stage of the run:
#: a missing or malformed file, a bad option value, or (`kantorovich`) an
#: exact result too long to print.
INPUT_ERRORS = {
    "check": ["check", "ssd", "zero", "missing"],
    "es": ["es", "coin", "--alpha", "0"],
    "kantorovich": ["kantorovich", "up", "down"],
    "certify": ["certify", "malformed", "zero"],
    "mps": ["mps", "missing", "zero"],
    "lift": ["lift", "zero", "missing"],
    "decompose": ["decompose", "missing", "coin"],
    "mix": ["mix", "zero", "two", "--weights", "1/2,1/3"],
    "quantize": ["quantize", "coin", "--denominator", "0"],
    "demo-lln": ["demo-lln", "--grid", "0"],
}

#: The exit-1 refusal reports that OUTPUT_RUNS does not write (its
#: `decompose` refusal is one); other digest tests pin their bytes.
REFUSED_RUNS = [
    (1, ["check", "ssd", "coin", "zero"]),
    (1, ["certify", "coin", "zero"]),
    (1, ["mps", "zero", "two"]),
]


class TestOutputs:
    """What a command writes, and where: stdout, or the `--out` file."""

    @pytest.fixture
    def inputs(self, files):
        tmp = files["tmp"]

        def write(name, text):
            path = tmp / name
            path.write_text(text)
            return str(path)

        laws = {
            "spread": SimpleDist.from_pairs(
                [(F(-5, 7), F(1, 5)), (F(1, 3), F(1, 2)), (F(9, 4), F(3, 10))]),
            "third": dirac(F(1, 3)),
            "wide": SimpleDist.from_pairs([(0, F(1, 2)), (2, F(1, 2))]),
            "wide14": SimpleDist.from_pairs([(1, F(1, 2)), (4, F(1, 2))]),
        }
        paths = {name: write(f"{name}.json", dumps(dist_to_obj(d))) for name, d in laws.items()}
        # both Diracs print (4300 digits each), their distance has 4301
        paths["up"] = write("up.json", json.dumps({"atoms": [{"v": "9e4299", "p": "1"}]}))
        paths["down"] = write("down.json", json.dumps({"atoms": [{"v": "-9e4299", "p": "1"}]}))
        paths["malformed"] = write("malformed.json", '{"atoms": [')
        paths["missing"] = str(tmp / "missing.json")
        return {**files, **paths}

    @staticmethod
    def _argv(inputs, argv):
        return [inputs.get(token, token) for token in argv]

    def test_outputs_are_byte_identical_to_the_recorded_digest(self, inputs, capsys):
        # Pins every byte of OUTPUT_RUNS.  The digest was recorded when each
        # command still wrote its own text.
        codes = []
        digest = hashlib.sha256()
        for _, argv in OUTPUT_RUNS:
            codes.append(main(self._argv(inputs, argv)))
            digest.update(capsys.readouterr().out.encode())
        assert codes == [code for code, _ in OUTPUT_RUNS]
        assert digest.hexdigest() == (
            "009d4b67e2e0ad0ecaf60e1dfd6af73ca90be4091ce72fa33c5a8de58c13dba3"
        )

    @pytest.mark.parametrize("run", OUTPUT_RUNS + REFUSED_RUNS, ids=lambda run: " ".join(run[1]))
    def test_out_writes_the_bytes_of_stdout(self, inputs, capsys, run):
        code, argv = run
        argv = self._argv(inputs, argv)
        assert main(argv) == code
        shown = capsys.readouterr().out
        out_path = inputs["tmp"] / "out.txt"
        assert main(argv + ["--out", str(out_path)]) == code
        assert capsys.readouterr() == ("", "")
        assert out_path.read_bytes() == shown.encode()

    @pytest.mark.parametrize("command", list(INPUT_ERRORS))
    def test_an_input_error_writes_no_file(self, inputs, capsys, command):
        out_path = inputs["tmp"] / "out.txt"
        assert main(self._argv(inputs, INPUT_ERRORS[command]) + ["--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert not out_path.exists()
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def _chain_that_stops(a, b):
    raise certify.CertificationError("a is not majorized by b")


#: Every fault site of divcert, as (module, name, stand-in, argv, message):
#: patching `name` in `module` with the stand-in makes the run reach the
#: fault.  The chain stops on pairs that hold, where the theorem says it
#: cannot; the truncation's zeta gets the wrong mean.
FAULTS = {
    "certify verify_div1": (cli, "verify_div1_certificate", lambda *args: False,
                            ["certify", "two", "pair13"],
                            "constructed certificate failed self-verification"),
    "certify verify_div2": (cli, "verify_div2_instance", lambda *args: False,
                            ["certify", "two", "pair13"],
                            "witnessing joint law failed self-verification"),
    "kantorovich": (cli, "kantorovich_cdf", lambda a, b: F(-1),
                    ["kantorovich", "zero", "coin"],
                    "the two transport representations disagree"),
    "certify chain": (certify, "t_transform_chain", _chain_that_stops,
                      ["certify", "two", "pair13"],
                      "the transfer chain failed on a pair that holds"),
    "mps chain": (certify, "t_transform_chain", _chain_that_stops,
                  ["mps", "two", "pair13"],
                  "the transfer chain failed on a pair that holds"),
    "decompose truncation": (certify, "SimpleDist",
                             types.SimpleNamespace(from_pairs=lambda pairs: dirac(1)),
                             ["decompose", "two", "zero"],
                             "truncation failed to match the target mean"),
}


class TestFaults:
    """A fault of divcert itself (a failed self-check) is no verdict on the
    inputs: exit 2, one `error:` line, and nothing written."""

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_a_fault_exits_2_and_writes_nothing(self, files, capsys, monkeypatch, fault):
        module, name, stand_in, argv, message = FAULTS[fault]
        monkeypatch.setattr(module, name, stand_in)
        argv = [files.get(token, token) for token in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        out_path = files["tmp"] / "out.txt"
        assert main(argv + ["--out", str(out_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_path.exists()


class TestBadInput:
    """Malformed numbers are input errors: exit 2 with an `error:` line."""

    @staticmethod
    def _atoms_file(tmp_path, atoms):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atoms": atoms}))
        return str(path)

    @staticmethod
    def _assert_input_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_null_value(self, files, capsys):
        bad = self._atoms_file(files["tmp"], [{"v": None, "p": "1"}])
        assert main(["check", "ssd", files["zero"], bad]) == 2
        self._assert_input_error(capsys)

    def test_zero_denominator_value(self, files, capsys):
        bad = self._atoms_file(files["tmp"], [{"v": "1/0", "p": "1"}])
        assert main(["check", "ssd", files["zero"], bad]) == 2
        self._assert_input_error(capsys)

    def test_zero_denominator_alpha(self, files, capsys):
        assert main(["es", files["coin"], "--alpha", "1/0"]) == 2
        self._assert_input_error(capsys)

    def test_zero_denominator_weight(self, files, capsys):
        assert main(["mix", files["zero"], files["two"], "--weights", "1/0,1"]) == 2
        self._assert_input_error(capsys)

    def test_huge_decimal_exponent(self, files, capsys):
        bad = self._atoms_file(files["tmp"], [{"v": "1e5000", "p": "1"}])
        assert main(["es", bad, "--alpha", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exponent" in err

    def test_unprintable_exact_result(self, files, capsys):
        # the value parses (its exponent is at the limit), but -ES is an
        # integer of 4301 digits, which Python will not turn into text
        bad = self._atoms_file(files["tmp"], [{"v": "1e4300", "p": "1"}])
        assert main(["es", bad, "--alpha", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300 digits" in err
        assert "set_int_max_str_digits" not in err

    def test_unprintable_input_is_refused_up_front(self, files, capsys, monkeypatch):
        def no_bundle(xi, eta):
            raise AssertionError("the input must be refused before the construction")

        monkeypatch.setattr(cli, "certify_bundle", no_bundle)
        json_path = self._atoms_file(files["tmp"], [{"v": "1e4300", "p": "1"}])
        csv_path = files["tmp"] / "huge.csv"
        csv_path.write_text("0\n1e4300\n")
        for bad in (json_path, str(csv_path)):
            assert main(["certify", bad, bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and "4300 digits" in err

    def test_a_digit_limit_of_zero_refuses_nothing(self, files, capsys):
        bad = self._atoms_file(files["tmp"], [{"v": "1e4300", "p": "1"}])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert main(["es", bad, "--alpha", "1"]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().out.startswith("-1" + "0" * 4300 + " ")

    def test_unprintable_result_of_printable_inputs(self, files, capsys):
        # both Diracs print (4300 digits each), their distance has 4301
        up = self._atoms_file(files["tmp"], [{"v": "9e4299", "p": "1"}])
        down = files["tmp"] / "down.json"
        down.write_text(json.dumps({"atoms": [{"v": "-9e4299", "p": "1"}]}))
        assert main(["kantorovich", up, str(down)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the exact result") and "4300 digits" in err

    def test_certify_slot_cap(self, files, capsys, monkeypatch):
        # 1031 is prime, so the common refinement needs 1031 slots
        pair = dumps(dist_to_obj(SimpleDist.from_pairs([(0, F(1, 1031)), (1, F(1030, 1031))])))
        path = files["tmp"] / "fine.json"
        path.write_text(pair)

        def no_product(a, b):
            raise AssertionError("the cap must refuse the pair before the product")

        monkeypatch.setattr(certify, "_scaled_transfer_rows", no_product)
        assert main(["certify", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1031" in err
        assert f"cap of {certify.CERTIFY_SLOT_CAP}" in err

    def test_certify_denominator_bound(self, files, capsys, monkeypatch):
        # n = 1024 passes the slot cap, yet the product of its 1,023 transfers
        # needs an L of 66,611 bits; the bound stops it at transfer 64 (a
        # pair with an L of 65,251 bits ran 254 s in the product, and its
        # peel did not finish)
        eta = demo.gamma_mean_quantile_dist(1, 1024)
        zeta = decompose_ssd(demo.gamma_mean_quantile_dist(2, 1024), eta).zeta
        paths = []
        for name, d in (("zeta.json", zeta), ("eta.json", eta)):
            path = files["tmp"] / name
            path.write_text(dumps(dist_to_obj(d)))
            paths.append(str(path))

        def no_peel(rows, L):
            raise AssertionError("the bound must refuse the pair before the peel")

        monkeypatch.setattr(certify, "_peel_scaled", no_peel)
        for command in ("certify", "mps"):
            start = time.perf_counter()
            assert main([command, *paths]) == 2
            assert time.perf_counter() - start < 2.0
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"CERTIFY_DENOMINATOR_BITS = {certify.CERTIFY_DENOMINATOR_BITS} bits" in err

    def test_deeply_nested_json(self, files, capsys):
        deep = files["tmp"] / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["certify", str(deep), files["zero"]]) == 2
        self._assert_input_error(capsys)

    def test_json_booleans_are_not_numbers(self, files, capsys):
        for atom in ({"v": True, "p": "1"}, {"v": "1", "p": True}):
            bad = self._atoms_file(files["tmp"], [atom])
            assert main(["es", bad, "--alpha", "1"]) == 2
            self._assert_input_error(capsys)


class TestSampleIngestion:
    def test_csv_samples_feed_any_command(self, files, capsys):
        path = files["tmp"] / "samples.csv"
        path.write_text("1\n1\n2\n")
        assert main(["es", str(path), "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        assert out.split()[0] == "-4/3"  # negated mean of {1,1,2}

    def test_empty_csv_is_an_error(self, files, capsys):
        path = files["tmp"] / "empty.csv"
        path.write_text("\n")
        assert main(["es", str(path), "--alpha", "1"]) == 2


class TestDemo:
    def test_small_table(self, capsys):
        assert main(["demo-lln", "--max-doublings", "2", "--grid", "64",
                     "--alpha", "1/20"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["n"] for r in rows] == ["1", "2", "4"]
        kappas = [F(r["kappa"]) for r in rows]
        assert kappas == sorted(kappas, reverse=True)

    def test_small_table_is_byte_identical_to_the_recorded_digest(self, capsys, monkeypatch):
        # the table needs no scipy: a None entry in sys.modules makes
        # `import scipy` raise ImportError
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        assert main(["demo-lln", "--max-doublings", "2", "--grid", "64",
                     "--alpha", "1/20"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "b6b7788a20dfbf9f5cbe6cdcfdbb048c358c36b6f17b33b6f170dd20fa560dd8"
        )

    def test_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-lln", "--max-doublings", "1", "--grid", "32", "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_invalid_parameters(self, capsys):
        assert main(["demo-lln", "--max-doublings", "-1"]) == 2
        assert main(["demo-lln", "--grid", "0"]) == 2

    def test_resource_limits_fail_before_any_stage(self, capsys, monkeypatch):
        def no_stage(*args):
            raise AssertionError("the limits must refuse the table before any stage")

        monkeypatch.setattr(demo, "gamma_mean_quantile_dist", no_stage)
        assert main(["demo-lln", "--max-doublings", "30", "--grid", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 30 doublings")
        assert f"MAX_POISSON_TERMS = {demo.MAX_POISSON_TERMS}" in err
        start = time.perf_counter()
        assert main(["demo-lln", "--max-doublings", "1000000000", "--grid", "2"]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith("error: ")

    def test_poisson_term_bound_admits_its_own_value(self, capsys, monkeypatch):
        # grid * (2**(max_doublings + 1) - 1) = 2 * 15 at 3 doublings on 2 points
        monkeypatch.setattr(demo, "MAX_POISSON_TERMS", 30)
        monkeypatch.setattr(demo, "gamma_mean_quantile_dist", lambda n, grid: dirac(1))
        assert main(["demo-lln", "--max-doublings", "3", "--grid", "2"]) == 0
        assert main(["demo-lln", "--max-doublings", "4", "--grid", "2"]) == 2
        assert "MAX_POISSON_TERMS = 30" in capsys.readouterr().err

    def test_grid_point_bound_fails_before_any_stage(self, capsys, monkeypatch):
        def no_stage(*args):
            raise AssertionError("the bound must refuse the table before any stage")

        monkeypatch.setattr(demo, "gamma_mean_quantile_dist", no_stage)
        start = time.perf_counter()
        assert main(["demo-lln", "--grid", "100000000"]) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"MAX_GRID_POINTS = {demo.MAX_GRID_POINTS}" in err

    @pytest.mark.parametrize("alpha", ["0", "3/2", "-1/20"])
    def test_level_fails_before_any_stage(self, capsys, monkeypatch, alpha):
        def no_stage(*args):
            raise AssertionError("the level check must refuse the table before any stage")

        monkeypatch.setattr(demo, "gamma_mean_quantile_dist", no_stage)
        for level in ([f"--alpha={alpha}"], ["--alpha", alpha]):
            assert main(["demo-lln", "--max-doublings", "0", "--grid", "131072", *level]) == 2
            err = capsys.readouterr().err
            assert err == f"error: level must lie in (0, 1], got {F(alpha)}\n"
