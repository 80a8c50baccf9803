"""Spans and counts for the traced run, recorded from outside the program.

Each public divcert function is wrapped at the name its caller looks up: the
peel calls `divcert.certify.lex_min_perfect_matching`, `divcert certify`
calls `divcert.cli.certify_div1`, and so on.  Nothing under `src/` changes.
A binding that a later version of the program no longer has is skipped, and
the metrics built on it read 0.

A span adds its duration to its name's total and to its parent's child time;
its self time is its duration minus its child time.  Count hooks run at the
same boundaries, on the arguments and result of the call.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

#: (module, name the caller looks up, span)
BINDINGS = [
    ("divcert.cli", "main", "cli.main"),
    ("divcert.cli", "load_dist", "serialize.load_dist"),
    ("divcert.cli", "dumps", "serialize.dumps"),
    ("divcert.serialize", "certificate_to_obj", "serialize.to_obj"),
    ("divcert.serialize", "joint_to_obj", "serialize.to_obj"),
    ("divcert.serialize", "coupling_to_obj", "serialize.to_obj"),
    ("divcert.serialize", "save_text", "serialize.save_text"),
    ("divcert.serialize", "certificate_from_obj", "serialize.from_obj"),
    ("divcert.serialize", "joint_from_obj", "serialize.from_obj"),
    ("divcert.serialize", "coupling_from_obj", "serialize.from_obj"),
    ("divcert.certify", "common_refinement", "dist.common_refinement"),
    ("divcert.dist", "common_refinement", "dist.common_refinement"),
    ("divcert.dominance", "convex_combination", "dist.convex_combination"),
    ("divcert.dominance", "mixture", "dist.mixture"),
    ("divcert.certify", "ssd_violation", "risk.ssd_violation"),
    ("divcert.dominance", "ssd_violation", "risk.ssd_violation"),
    ("divcert.risk", "ssd_gap", "risk.ssd_gap"),
    ("divcert.risk", "es_curve", "risk.es_curve"),
    ("divcert.transport", "kantorovich", "transport.kantorovich"),
    ("divcert.transport", "kantorovich_cdf", "transport.kantorovich_cdf"),
    ("divcert.cli", "certify_div1", "certify.certify_div1"),
    ("divcert.cli", "mps_coupling", "certify.mps_coupling"),
    ("divcert.certify", "t_transform_chain", "certify.t_transform_chain"),
    ("divcert.certify", "lift_delta_gamma", "certify.lift_delta_gamma"),
    ("divcert.certify", "lex_min_perfect_matching", "matching.lex_min_perfect_matching"),
    ("divcert.cli", "verify_div1_certificate", "dominance.verify_div1"),
    ("divcert.dominance", "verify_div1_certificate", "dominance.verify_div1"),
    ("divcert.cli", "verify_div2_instance", "dominance.verify_div2"),
    ("divcert.dominance", "verify_div2_instance", "dominance.verify_div2"),
    ("divcert.dominance", "check_fsd", "dominance.check_fsd"),
    ("divcert.certify", "check_majorization", "dominance.check_majorization"),
    ("divcert.dominance", "check_majorization", "dominance.check_majorization"),
]


def _refinement(tracer, args, grids):
    tracer.op_grid_n = max(tracer.op_grid_n, grids[0].n)


def _transfers(tracer, args, chain):
    tracer.counts["transfers"] += len(chain)


def _certificate(tracer, args, result):
    weights = [w for _, w in result[0].terms]
    tracer.counts["terms"] += len(weights)
    tracer.counts["weight_den_bits"] += math.lcm(*(w.denominator for w in weights)).bit_length()


def _matching(tracer, args, result):
    tracer.counts["matching_calls"] += 1
    tracer.counts["matching_edges"] += sum(map(len, args[0]))


def _saved(tracer, args, result):
    tracer.counts["bundle_bytes"] += len(args[1].encode())


HOOKS = {
    "dist.common_refinement": _refinement,
    "certify.t_transform_chain": _transfers,
    "certify.certify_div1": _certificate,
    "matching.lex_min_perfect_matching": _matching,
    "serialize.save_text": _saved,
}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.ops = 0
        self.op_grid_n = 0
        self._open: list[float] = []  # child time of each open span
        self._installed = []

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, span))
                self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, span):
        hook = HOOKS.get(span)
        opened = self._open
        total = self.total
        self_time = self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = opened.pop()
                if opened:
                    opened[-1] += elapsed
                total[span] += elapsed
                self_time[span] += elapsed - children
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def start_op(self) -> None:
        self.op_grid_n = 0

    def end_op(self) -> None:
        self.ops += 1
        self.counts["grid_n"] += self.op_grid_n


#: per-layer metric -> (how it is computed, span or count, unit)
#: "s" is seconds in the span per run, "self" its self time per run,
#: "op" a count per op, "call" a count per matching call.
METRICS = {
    "serialize.load_dist_s": ("s", "serialize.load_dist", "s"),
    "serialize.to_obj_s": ("s", "serialize.to_obj", "s"),
    "serialize.dumps_s": ("s", "serialize.dumps", "s"),
    "serialize.save_text_s": ("s", "serialize.save_text", "s"),
    "serialize.from_obj_s": ("s", "serialize.from_obj", "s"),
    "serialize.bundle_bytes": ("op", "bundle_bytes", "bytes"),
    "dist.common_refinement_s": ("s", "dist.common_refinement", "s"),
    "dist.convex_combination_s": ("s", "dist.convex_combination", "s"),
    "dist.mixture_s": ("s", "dist.mixture", "s"),
    "dist.grid_n": ("op", "grid_n", "count"),
    "risk.ssd_violation_s": ("s", "risk.ssd_violation", "s"),
    "risk.ssd_gap_s": ("s", "risk.ssd_gap", "s"),
    "risk.es_curve_s": ("s", "risk.es_curve", "s"),
    "transport.kantorovich_s": ("s", "transport.kantorovich", "s"),
    "transport.kantorovich_cdf_s": ("s", "transport.kantorovich_cdf", "s"),
    "certify.certify_div1_s": ("s", "certify.certify_div1", "s"),
    "certify.certify_div1_self_s": ("self", "certify.certify_div1", "s"),
    "certify.mps_coupling_s": ("s", "certify.mps_coupling", "s"),
    "certify.mps_coupling_self_s": ("self", "certify.mps_coupling", "s"),
    "certify.t_transform_chain_s": ("s", "certify.t_transform_chain", "s"),
    "certify.transfers": ("op", "transfers", "count"),
    "certify.lift_delta_gamma_s": ("s", "certify.lift_delta_gamma", "s"),
    "certify.terms": ("op", "terms", "count"),
    "certify.weight_den_bits": ("op", "weight_den_bits", "bits"),
    "matching.calls": ("op", "matching_calls", "count"),
    "matching.lex_min_perfect_matching_s": ("s", "matching.lex_min_perfect_matching", "s"),
    "matching.edges_per_call": ("call", "matching_edges", "count"),
    "dominance.verify_div1_s": ("s", "dominance.verify_div1", "s"),
    "dominance.verify_div2_s": ("s", "dominance.verify_div2", "s"),
    "dominance.check_fsd_s": ("s", "dominance.check_fsd", "s"),
    "dominance.check_majorization_s": ("s", "dominance.check_majorization", "s"),
    "cli.main_self_s": ("self", "cli.main", "s"),
}


def per_layer(tracer: Tracer) -> dict:
    """Every per-layer metric, as {name: {"value": v, "unit": u}}."""
    ops = max(tracer.ops, 1)
    calls = max(tracer.counts["matching_calls"], 1)
    out = {}
    for name, (kind, key, unit) in METRICS.items():
        if kind == "s":
            value = tracer.total[key]
        elif kind == "self":
            value = tracer.self_time[key]
        elif kind == "op":
            value = tracer.counts[key] / ops
        else:
            value = tracer.counts[key] / calls
        out[name] = {"value": value, "unit": unit}
    return out
