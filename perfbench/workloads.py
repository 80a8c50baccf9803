"""The four workloads: inputs made from a seed, one closed-loop op each, and
a check on every output.

A workload's set-up returns a list of `Op`s.  The runner writes the input
files the ops name (`write_inputs`), times `Op.call` and then hands its
result to `Op.check`, which raises `WrongOutput` unless the result is right
and returns the bytes the run's digest covers.  The checks
recompute what each output claims from the generated inputs with plain
`Fraction` arithmetic; they call none of divcert's construction or
verification code, so a wrong certificate, verdict or exit code is caught
here and counted as a failed op.

Every divcert function an op uses is looked up on its module at call time
(`dominance.check_fsd(...)`, not a name imported once), so the traced run can
wrap it there.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import divcert.cli
from divcert import certify, dist, dominance, risk, serialize, transport


class WrongOutput(Exception):
    """An op's output disagrees with what its inputs imply."""


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], bytes]
    n: int  # slots of the common refinement of the op's input pair
    files: tuple[tuple[str, str], ...] = ()  # (path, text) the call reads


def pause() -> None:
    """Called by the set-ups between two inputs; the runner points it at its
    clock's calibration, so that a long set-up is calibrated as it runs."""


def write_inputs(ops: list[Op]) -> None:
    """Write every input file the ops read.  Kept out of the set-up proper:
    writing thousands of small files takes a time that depends on the file
    system's load, not on the program."""
    for op in ops:
        for path, text in op.files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


# ---------------------------------------------------------------- inputs


def _walk(rng: random.Random, k: int) -> list[Fraction]:
    """k increasing atoms whose gaps are 13 to 20 in steps of 1/4.

    Three doublings move an atom by at most 6, so the spreads of two atoms
    never overlap.  The tests' `mps_pair` draws atoms so densely near 0 that
    spreads overlap at random, and then peel cost varies fivefold between
    pairs of the same size: a run of a few dozen n = 64 pairs could not hold
    its figures within the benchmark's bounds from one seed to the next.
    """
    x = Fraction(rng.randint(-128, 128), 4)
    atoms = []
    for _ in range(k):
        atoms.append(x)
        x += Fraction(rng.randint(52, 80), 4)
    return atoms


def _spread(rng: random.Random, atoms: list[Fraction], doublings: int) -> list[Fraction]:
    """Each round splits every atom v into v - s and v + s with s drawn from
    0..2 in steps of 1/8, or keeps it twice (probability 0.3): a
    mean-preserving spread, as in the tests' `mps_pair`."""
    for _ in range(doublings):
        nxt = []
        for v in atoms:
            s = Fraction(rng.randint(0, 16), 8) if rng.random() < 0.7 else 0
            nxt += (v - s, v + s)
        atoms = nxt
    return sorted(atoms)


def _slots(values: list[Fraction], n: int) -> int:
    """Slots of the smallest uniform grid holding every value at its
    empirical probability."""
    total = len(values)
    return math.lcm(n, *(Fraction(c, total).denominator for c in Counter(values).values()))


@dataclass
class SpreadPair:
    """xi uniform on `xs`, eta uniform on `es` (a spread of xi), and their
    common refinement: grids a and b of n slots each."""

    xs: list[Fraction]
    es: list[Fraction]
    n: int

    @property
    def a(self) -> list[Fraction]:
        return sorted(x for x in self.xs for _ in range(self.n // len(self.xs)))

    @property
    def b(self) -> list[Fraction]:
        return self.es


def spread_pair(rng: random.Random, n0: int, doublings: int) -> SpreadPair:
    """A spread pair whose common refinement has exactly n0 * 2**doublings
    slots (pairs whose spread merges atoms into a coarser grid are redrawn)."""
    n = n0 << doublings
    while True:
        xs = _walk(rng, n0)
        es = _spread(rng, xs, doublings)
        if _slots(es, n0) == n:
            return SpreadPair(xs, es, n)


def _uniform(values: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    total = len(values)
    return sorted((v, Fraction(c, total)) for v, c in Counter(values).items())


def _dist_text(atoms: list[tuple[Fraction, Fraction]]) -> str:
    return json.dumps({"atoms": [{"v": str(v), "p": str(p)} for v, p in atoms]})


#: (atoms of xi, doublings) with at most 32 slots: the shapes of the tests'
#: `mps_pair` once its n = 64 pairs are left to certify_n64.
MIXED_SHAPES = [(n0, d) for d in range(4) for n0 in range(1, 9) if n0 << d <= 32]


# ---------------------------------------------------------------- checks


def _lcm_den(fracs) -> int:
    return math.lcm(*(f.denominator for f in fracs))


def check_certificate(bundle: dict, pair: SpreadPair) -> None:
    """The bundle's permutation terms, joint law and martingale coupling
    satisfy their defining identities on the pair's grids, exactly."""
    n = pair.n
    a, b = pair.a, pair.b
    _expect(bundle.get("certified") is True, "bundle is not marked certified")
    _expect(bundle["n"] == n, f"certificate has n={bundle['n']}, expected {n}")
    perms = [t["perm"] for t in bundle["terms"]]
    weights = [Fraction(t["weight"]) for t in bundle["terms"]]
    _expect(all(w > 0 for w in weights) and sum(weights) == 1,
            "weights are not a positive convex combination")
    full = list(range(n))
    _expect(all(sorted(p) == full for p in perms), "a term is not a permutation")
    # slot i of a equals sum_k w_k * b[perm_k[i]]; compared over integers
    wl = _lcm_den(weights)
    bl = _lcm_den(b)
    wi = [w.numerator * (wl // w.denominator) for w in weights]
    bi = [v.numerator * (bl // v.denominator) for v in b]
    for i in range(n):
        total = sum(w * bi[p[i]] for w, p in zip(wi, perms))
        _expect(Fraction(total, wl * bl) == a[i], f"terms miss slot {i}")

    joint = bundle["joint"]
    _expect(joint["m"] == len(perms), "joint law has the wrong number of coordinates")
    b_text = [str(v) for v in b]
    expected = Counter(tuple(b_text[p[i]] for p in perms) for i in range(n))
    got = {tuple(atom["v"]): Fraction(atom["p"]) for atom in joint["atoms"]}
    _expect(got == {vec: Fraction(c, n) for vec, c in expected.items()},
            "joint law is not the law of the permuted copies")

    coupling = bundle["coupling"]
    _expect(coupling["row_values"] == [str(v) for v in a]
            and coupling["col_values"] == b_text, "coupling grids differ from the pair")
    rows = [[Fraction(x) for x in row] for row in coupling["matrix"]]
    share = Fraction(1, n)
    _expect(len(rows) == n and all(len(r) == n for r in rows), "coupling is not n x n")
    for i, row in enumerate(rows):
        _expect(min(row) >= 0 and sum(row) == share, f"coupling row {i} is not 1/n")
        _expect(n * sum(c * v for c, v in zip(row, b)) == a[i],
                f"coupling row {i} breaks the martingale identity")
    for j in range(n):
        _expect(sum(row[j] for row in rows) == share, f"coupling column {j} is not 1/n")


def reconstructs_in_law(weights: list[Fraction], perms, pair: SpreadPair) -> bool:
    """Whether the weighted permuted copies of b have the law of a."""
    slots = sorted(sum(w * pair.b[p[i]] for w, p in zip(weights, perms)) for i in range(pair.n))
    return slots == pair.a


# ---------------------------------------------------------------- certify


class CliWorkload:
    """Ops that run `divcert certify XI ETA --out OUT` in-process and check
    the exit code and what was written to OUT."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.out = os.path.join(workdir, "out.json")
        self.files = 0

    def input_file(self, atoms) -> tuple[str, str]:
        """A fresh path for the distribution's text, and the text."""
        path = os.path.join(self.workdir, f"in{self.files}.json")
        self.files += 1
        return path, _dist_text(atoms)

    def write(self, atoms) -> str:
        path, text = self.input_file(atoms)
        write_inputs([Op(None, None, 0, ((path, text),))])
        return path

    def op(self, xi_atoms, eta_atoms, check_report, n: int) -> Op:
        files = (self.input_file(xi_atoms), self.input_file(eta_atoms))
        argv = ["certify", files[0][0], files[1][0], "--out", self.out]
        out = self.out

        def call():
            return divcert.cli.main(argv)

        def check(code):
            try:
                with open(out, "rb") as fh:
                    raw = fh.read()
            except FileNotFoundError:
                raise WrongOutput(f"exit code {code} and nothing written") from None
            try:
                check_report(code, json.loads(raw))
            finally:
                os.remove(out)
            return raw

        return Op(call, check, n, files)

    def certified(self, pair: SpreadPair) -> Op:
        def check_report(code, report):
            _expect(code == 0, f"exit code {code}, expected 0")
            check_certificate(report, pair)

        return self.op(_uniform(pair.xs), _uniform(pair.es), check_report, pair.n)

    def bundle(self, pair: SpreadPair) -> str:
        """The text `divcert certify` writes for the pair."""
        argv = ["certify", self.write(_uniform(pair.xs)), self.write(_uniform(pair.es)),
                "--out", self.out]
        code = divcert.cli.main(argv)
        _expect(code == 0, f"set-up: certify exited with {code}")
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.out)
        return text

    def rejected(self, xi_atoms, eta_atoms, reason: str, n: int) -> Op:
        def check_report(code, report):
            _expect(code == 1, f"exit code {code}, expected 1")
            _expect(report.get("certified") is False
                    and report.get("reason", "").startswith(reason),
                    f"report {report} does not give the reason {reason!r}")

        return self.op(xi_atoms, eta_atoms, check_report, n)


def certify_n64(seed: int, workdir: str, pairs: int = 64, shape=(8, 3)) -> list[Op]:
    rng = random.Random(seed)
    cli = CliWorkload(workdir)
    ops = []
    for _ in range(pairs):
        pause()
        ops.append(cli.certified(spread_pair(rng, *shape)))
    return ops


def certify_mixed(seed: int, workdir: str, rounds: int = 30) -> list[Op]:
    """Each round certifies one pair of every shape in MIXED_SHAPES and
    rejects three more pairs (means differ, or the spread is reversed so
    second-order dominance fails): every run sees the same mix of sizes."""
    rng = random.Random(seed)
    cli = CliWorkload(workdir)
    ops = []
    for r in range(rounds):
        pause()
        batch = [cli.certified(spread_pair(rng, *shape)) for shape in MIXED_SHAPES]
        for k in range(3):
            if (r + k) % 2:
                pair = spread_pair(rng, *rng.choice(MIXED_SHAPES))
                shift = Fraction(rng.randint(1, 8), 4)
                eta = [(v + shift, p) for v, p in _uniform(pair.es)]
                batch.append(cli.rejected(_uniform(pair.xs), eta, "means differ", pair.n))
            else:
                pair = spread_pair(rng, *rng.choice(MIXED_SHAPES[8:]))
                while _uniform(pair.es) == _uniform(pair.xs):
                    pair = spread_pair(rng, *rng.choice(MIXED_SHAPES[8:]))
                batch.append(cli.rejected(_uniform(pair.es), _uniform(pair.xs),
                                          "ssd violated", pair.n))
        rng.shuffle(batch)
        ops += batch
    return ops


# ---------------------------------------------------------------- compare


DENOMINATORS = [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]


def _dist_on_denominator(rng: random.Random, den: int) -> list[tuple[Fraction, Fraction]]:
    """The tests' `rand_dist_on_denominator`: up to 6 atoms with
    probabilities k/den and values p/q, |p| <= 24, q <= 8."""
    k = rng.randint(1, min(6, den))
    cuts = sorted(rng.sample(range(1, den), k - 1)) if k > 1 else []
    parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [den])]
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(Fraction(rng.randint(-24, 24), rng.randint(1, 8)))
    return [(v, Fraction(w, den)) for v, w in zip(sorted(values), parts)]


def _mean(atoms) -> Fraction:
    return sum(v * p for v, p in atoms)


def compare_op(xi_atoms, eta_atoms) -> Op:
    xi = dist.SimpleDist.from_pairs(xi_atoms)
    eta = dist.SimpleDist.from_pairs(eta_atoms)
    n = _lcm_den([p for _, p in xi_atoms + eta_atoms])
    means = (_mean(xi_atoms), _mean(eta_atoms))

    def call():
        ga, gb = dist.common_refinement(xi, eta)
        return (
            dominance.check_fsd(xi, eta),
            dominance.check_ssd(xi, eta),
            risk.ssd_gap(xi, eta),
            risk.es_curve(xi),
            risk.es_curve(eta),
            transport.kantorovich(xi, eta),
            transport.kantorovich_cdf(xi, eta),
            ga.n,
            dominance.check_majorization(ga, gb),
            certify.lift_delta_gamma(xi, eta),
        )

    def check(result):
        fsd, ssd, gap, es_xi, es_eta, kq, kc, grid_n, maj, lift = result
        _expect(kq == kc, "the two transport forms disagree")
        _expect(ssd == (gap == 0), "check_ssd disagrees with the dominance gap")
        _expect(not fsd or ssd, "first-order dominance without second-order dominance")
        _expect(es_xi.breakpoints[-1] == (1, means[0])
                and es_eta.breakpoints[-1] == (1, means[1]), "an ES curve does not end at the mean")
        _expect(grid_n == n, f"refinement has {grid_n} slots, expected {n}")
        _expect(bool(maj) == (ssd and means[0] == means[1]),
                "majorization disagrees with equal means and second-order dominance")
        _expect(sum(lift.delta) == gap * n, "mean slack differs from the dominance gap")
        _expect(_mean(lift.lifted_xi.atoms) == _mean(lift.lifted_eta.atoms), "lifted means differ")
        verdict = [fsd, ssd, str(gap), str(kq), bool(maj), str(lift.gamma_top),
                   [str(d) for d in lift.delta]]
        return json.dumps(verdict).encode()

    return Op(call, check, n)


def compare(seed: int, workdir: str, pairs: int = 2000) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(pairs):
        pause()
        xi = _dist_on_denominator(rng, rng.choice(DENOMINATORS))
        eta = _dist_on_denominator(rng, rng.choice(DENOMINATORS))
        ops.append(compare_op(xi, eta))
    return ops


# ---------------------------------------------------------------- audit


#: Shapes of certify_mixed with at least two doublings and at most 16 slots.
#: One doubling of well-separated atoms certifies with weights of 1/2 only,
#: which leaves no two unequal weights to swap; small bundles let set-up
#: build many distinct ones.
AUDIT_SHAPES = [(n0, d) for n0, d in MIXED_SHAPES if d >= 2 and n0 << d <= 16]


def tamper(bundle: dict, pair: SpreadPair, rng: random.Random) -> bool:
    """Swap two unequal weights of the bundle, in place, so that its terms no
    longer reconstruct xi in law; False when no such swap exists."""
    terms = bundle["terms"]
    weights = [Fraction(t["weight"]) for t in terms]
    perms = [t["perm"] for t in terms]
    swaps = [(i, j) for i in range(len(terms)) for j in range(i + 1, len(terms))
             if weights[i] != weights[j]]
    rng.shuffle(swaps)
    for i, j in swaps:
        swapped = list(weights)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        if not reconstructs_in_law(swapped, perms, pair):
            terms[i]["weight"], terms[j]["weight"] = terms[j]["weight"], terms[i]["weight"]
            return True
    return False


def audit_op(text: str, pair: SpreadPair, valid: bool) -> Op:
    xi = dist.SimpleDist.from_pairs(_uniform(pair.xs))
    eta = dist.SimpleDist.from_pairs(_uniform(pair.es))

    def call():
        obj = json.loads(text)
        cert = serialize.certificate_from_obj(obj)
        joint = serialize.joint_from_obj(obj["joint"])
        serialize.coupling_from_obj(obj["coupling"])
        return (dominance.verify_div1_certificate(xi, eta, cert),
                dominance.verify_div2_instance(xi, eta, joint, cert.weights))

    def check(verdict):
        _expect(verdict == (valid, valid),
                f"verdict {verdict} on a {'clean' if valid else 'tampered'} bundle")
        return repr(verdict).encode()

    return Op(call, check, pair.n)


def audit(seed: int, workdir: str, rounds: int = 40) -> list[Op]:
    """Bundles written by `divcert certify` for the AUDIT_SHAPES pairs of
    certify_mixed, drawn on a seed stream of their own.  Round r tampers
    with every fourth shape starting at r % 4, so a quarter of all bundles
    carry two swapped weights and must verify False."""
    rng = random.Random(f"audit:{seed}")
    cli = CliWorkload(workdir)
    ops = []
    for r in range(rounds):
        for s, shape in enumerate(AUDIT_SHAPES):
            pause()
            for _ in range(100):
                pair = spread_pair(rng, *shape)
                text = cli.bundle(pair)
                if s % 4 != r % 4:
                    ops.append(audit_op(text, pair, True))
                    break
                bundle = json.loads(text)
                if tamper(bundle, pair, rng):
                    ops.append(audit_op(json.dumps(bundle, indent=2) + "\n", pair, False))
                    break
            else:
                raise RuntimeError(f"set-up: no bundle of shape {shape} could be tampered with")
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify_n64": certify_n64,
    "certify_mixed": certify_mixed,
    "compare": compare,
    "audit": audit,
}
