"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import divcert.cli  # noqa: E402
import divcert.dominance  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "certify_n64": lambda seed, wd: workloads.certify_n64(seed, wd, pairs=2, shape=(2, 2)),
    "certify_mixed": lambda seed, wd: workloads.certify_mixed(seed, wd, rounds=1),
    "compare": lambda seed, wd: workloads.compare(seed, wd, pairs=20),
    "audit": lambda seed, wd: workloads.audit(seed, wd, rounds=1),
}


def tiny_run(name: str, trace: bool = False, seconds: float = 0.05) -> dict:
    return run.run_workload(name, seed=3, seconds=seconds, trace=trace, import_s=0.0,
                            make_ops=TINY[name])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert PER_LAYER == set(tracing.METRICS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_appears(name):
    plain = tiny_run(name)
    assert plain["failures"] == []
    assert set(plain["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    printed = {line.split()[0] for line in plain["lines"]}
    assert {"op_p90_ms", "error_rate", "digest"} <= printed

    traced = tiny_run(name, trace=True)
    assert traced["failures"] == []
    assert set(traced["metrics"]) == PER_LAYER
    printed = {line.split()[0] for line in traced["lines"]}
    assert {"trace", "op_n_histogram", "op_n_share", "digest"} <= printed


def test_traced_counts_and_digest_repeat():
    first, second = tiny_run("certify_mixed", trace=True), tiny_run("certify_mixed", trace=True)
    counts = [{k: m for k, m in res["metrics"].items() if m["unit"] != "s"}
              for res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["certify.terms"]["value"] > 0
    assert first["lines"][1:] == second["lines"][1:]


def test_tampered_bundle_that_verifies_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(divcert.dominance, "verify_div1_certificate", lambda *args: True)
    monkeypatch.setattr(divcert.dominance, "verify_div2_instance", lambda *args: True)
    res = tiny_run("audit", seconds=0.5)
    assert 0 < res["failed"] < res["attempted"]
    assert all("tampered" in f for f in res["failures"])
    assert not any(line.startswith("error_rate 0.0 ") for line in res["lines"])


@pytest.mark.parametrize("fault", ["wrong exit code", "crash"])
def test_bad_cli_op_is_a_failed_op(monkeypatch, fault):
    real = divcert.cli.main

    def faulty(argv):
        real(argv)
        if fault == "crash":
            raise RuntimeError("injected")
        return 3

    monkeypatch.setattr(divcert.cli, "main", faulty)
    res = tiny_run("certify_mixed", seconds=0.2)
    assert res["failed"] == res["attempted"] > 0
