"""Command-line interface.

Subcommands expose the library operations over JSON files; all numeric
output carries both the exact rational and a 12-significant-digit
decimal.  Exit codes follow one contract everywhere: 0 when the queried
relation holds or the operation succeeds, 1 when a relation or
precondition fails (the report says why), 2 on input or usage errors
and on a fault of divcert itself (a failed self-check, an
AssertionError), which is never a verdict on the inputs.

Each `cmd_*` function returns its whole text and its exit code, and
writes nothing; `main` alone writes that text, to the `--out` file or to
stdout.  So nothing is written before a command returns: one that
raises (on an input error, an exact result too long to print, a failed
self-check) leaves stdout empty and no `--out` file, and `main` prints
one `error:` line and returns 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import re
import sys
from fractions import Fraction

from . import demo, serialize
from .certify import (
    CertificationError,
    MeansDifferError,
    SsdViolatedError,
    certify_bundle,
    decompose_ssd,
    lift_delta_gamma,
    mps_coupling,
)
from .dist import as_rational, common_refinement, mixture, quantize_values
from .dominance import (
    fsd_violation,
    majorization_violation,
    verify_div1_certificate,
    verify_div2_instance,
    verify_mps_coupling,
)
from .risk import _ssd_gap_and_violation, expected_shortfall
from .serialize import decimal_str, dumps, load_dist, rational_obj, rational_str
from .transport import kantorovich, kantorovich_cdf

OK, FAIL, ERROR = 0, 1, 2


def _scalar_line(x: Fraction) -> str:
    return f"{rational_str(x)} ({decimal_str(x)})\n"


def cmd_check(args) -> tuple[str, int]:
    a = load_dist(args.input_a)
    b = load_dist(args.input_b)
    report = {
        "relation": args.relation,
        "mean_a": rational_obj(a.mean()),
        "mean_b": rational_obj(b.mean()),
    }
    if args.relation == "fsd":
        key, witness = "cdf_crossing_above", fsd_violation(a, b)
    elif args.relation == "ssd":
        gap, witness = _ssd_gap_and_violation(a, b)
        report["gap"] = rational_obj(gap)
        key = "alpha"
    else:  # majorization, on the common uniform refinement
        ga, gb = common_refinement(a, b)
        report["grid_size"] = ga.n
        key, witness = "prefix_index", majorization_violation(ga, gb)
    report["holds"] = witness is None
    if witness is not None:
        report["witness"] = {key: rational_obj(witness) if isinstance(witness, Fraction) else witness}
    return dumps(report), OK if report["holds"] else FAIL


def cmd_es(args) -> tuple[str, int]:
    d = load_dist(args.input)
    return _scalar_line(expected_shortfall(d, as_rational(args.alpha))), OK


def cmd_kantorovich(args) -> tuple[str, int]:
    a = load_dist(args.input_a)
    b = load_dist(args.input_b)
    quantile_form = kantorovich(a, b)
    cdf_form = kantorovich_cdf(a, b)
    if quantile_form != cdf_form:
        raise AssertionError("the two transport representations disagree")
    return _scalar_line(quantile_form), OK


def cmd_certify(args) -> tuple[str, int]:
    xi = load_dist(args.input_xi)
    eta = load_dist(args.input_eta)
    try:
        cert, joint, coupling = certify_bundle(xi, eta)
    except MeansDifferError as exc:
        return dumps({"certified": False, "reason": "means differ",
                      "mean_xi": rational_obj(exc.mean_xi),
                      "mean_eta": rational_obj(exc.mean_eta)}), FAIL
    except SsdViolatedError as exc:
        return dumps({"certified": False,
                      "reason": f"ssd violated at alpha={rational_str(exc.alpha)}",
                      "alpha": rational_obj(exc.alpha)}), FAIL
    if not verify_div1_certificate(xi, eta, cert):
        raise AssertionError("constructed certificate failed self-verification")
    if not verify_div2_instance(xi, eta, joint, cert.weights):
        raise AssertionError("witnessing joint law failed self-verification")
    if not verify_mps_coupling(xi, eta, coupling):
        raise AssertionError("martingale coupling failed self-verification")
    return serialize.bundle_text(cert, joint, coupling), OK


def cmd_mps(args) -> tuple[str, int]:
    xi = load_dist(args.input_xi)
    eta = load_dist(args.input_eta)
    try:
        coupling = mps_coupling(xi, eta)
    except CertificationError as exc:
        return dumps({"certified": False, "reason": str(exc)}), FAIL
    if not verify_mps_coupling(xi, eta, coupling):
        raise AssertionError("martingale coupling failed self-verification")
    return serialize.coupling_text(coupling), OK


def cmd_lift(args) -> tuple[str, int]:
    xi = load_dist(args.input_xi)
    eta = load_dist(args.input_eta)
    return dumps(serialize.lift_to_obj(lift_delta_gamma(xi, eta))), OK


def cmd_decompose(args) -> tuple[str, int]:
    xi = load_dist(args.input_xi)
    eta = load_dist(args.input_eta)
    try:
        result = decompose_ssd(xi, eta)
    except SsdViolatedError as exc:
        return dumps({"decomposed": False,
                      "reason": f"ssd violated at alpha={rational_str(exc.alpha)}"}), FAIL
    return dumps({
        "decomposed": True,
        "c": None if result.c is None else rational_obj(result.c),
        "zeta": serialize.dist_to_obj(result.zeta),
    }), OK


def cmd_mix(args) -> tuple[str, int]:
    ds = [load_dist(path) for path in args.inputs]
    weights = [as_rational(w) for w in args.weights.split(",")]
    return dumps(serialize.dist_to_obj(mixture(ds, weights))), OK


def cmd_quantize(args) -> tuple[str, int]:
    d = load_dist(args.input)
    return dumps(serialize.dist_to_obj(quantize_values(d, args.denominator))), OK


def cmd_demo_lln(args) -> tuple[str, int]:
    rows = demo.lln_table(args.max_doublings, as_rational(args.alpha), args.grid)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "es", "es_decimal", "kappa", "kappa_decimal"])
    for n, es, kappa in rows:
        writer.writerow([n, rational_str(es), decimal_str(es),
                         rational_str(kappa), decimal_str(kappa)])
    return buf.getvalue(), OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `divcert` parser of this process, built on first use.

    Parsing leaves no state on it: every `parse_args` call fills a new
    namespace, so `main` can reuse it call after call.
    """
    parser = argparse.ArgumentParser(
        prog="divcert",
        description="Exact dominance tests, Expected Shortfall and "
        "diversification certificates for finite distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a dominance relation between two distributions")
    p.add_argument("relation", choices=["fsd", "ssd", "majorization"])
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("es", help="Expected Shortfall at a level")
    p.add_argument("input")
    p.add_argument("--alpha", required=True, help="level in (0,1], e.g. 1/20 or 0.05")
    p.set_defaults(func=cmd_es)

    p = sub.add_parser("kantorovich", help="transport distance between two distributions")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.set_defaults(func=cmd_kantorovich)

    for name, summary, func in [
        ("certify", "build a diversification certificate", cmd_certify),
        ("mps", "martingale coupling witnessing a mean-preserving spread", cmd_mps),
        ("lift", "lift an arbitrary pair to a certified one", cmd_lift),
        ("decompose", "split second-order dominance into "
         "a first-order step and an equal-means step", cmd_decompose),
    ]:
        p = sub.add_parser(name, help=summary)
        p.add_argument("input_xi")
        p.add_argument("input_eta")
        p.set_defaults(func=func)

    p = sub.add_parser("mix", help="probabilistic mixture of distributions")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--weights", required=True, help="comma-separated rationals summing to 1")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("quantize", help="round values to a 1/q lattice")
    p.add_argument("input")
    p.add_argument("--denominator", type=int, required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("demo-lln", help="law-of-large-numbers contraction table (CSV)")
    p.add_argument("--max-doublings", type=int, default=6)
    p.add_argument("--alpha", default="1/20")
    p.add_argument("--grid", type=int, default=1024)
    p.set_defaults(func=cmd_demo_lln)

    for p in sub.choices.values():
        p.add_argument("--out")
        # argparse reads only -1 and -0.5 as negative numbers, so "--alpha
        # -1/20" would lack its value; no option of ours starts with "-"
        # and a digit, so such a token is a value
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    """Run one `divcert` command, write its text and return its exit code.

    An input error or a fault prints one `error:` line to stderr and
    returns 2.  May be called many times in one process; a usage error
    raises SystemExit(2), as argparse does.
    """
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out:
            serialize.save_text(args.out, text)
        else:
            sys.stdout.write(text)
    # a JSON or grid-cap error is a ValueError; a failed self-check, an
    # AssertionError, is a fault of divcert and no verdict on the pair
    except (OSError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
