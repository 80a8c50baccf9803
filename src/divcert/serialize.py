"""JSON wire formats.

Exactness must survive the wire: every number travels as an exact
rational string ("p/q", or the integer itself), decimal input strings
parse as exact decimal fractions, and user-facing payloads carry an
additional 12-significant-digit decimal rendering for readability.
Serializing a canonical object, parsing it back and serializing again is
byte-identical.

Every JSON file divcert writes is the text of ``json.dumps(obj, indent=2)
+ "\\n"`` for some tree `obj`.

* `bundle_text` writes the certified bundle of `divcert certify`: the
  permutation terms (0-based permutations), the witnessing joint law and
  the martingale coupling.  `coupling_text` writes the coupling of
  `divcert mps` with the same renderer.  Both render from the integer
  views the witness types hold, with no tree in between, and join every
  list in C.  The joint's and the coupling's cells are rendered once per
  distinct value; the term weights once per term, and the coupling's
  row and column values once per slot.  The joint law is cut into runs
  of equal adjacent cells once (`JointDist.run_starts`, which the div-2
  check has already made), and each of its vectors is written per run,
  a run of k cells as one string repeated k times.  A bundle holds tens
  of thousands of scalars, and CPython's C encoder does not handle
  `indent`: json.dumps(indent=2) would run its pure-Python encoder on
  every one of them.
* `dumps` serves every other report, from reject reports to lift tables:
  it is json.dumps(indent=2) itself, behind a walk that raises TypeError
  on a float or a non-str key.

Distribution files look like::

    {"atoms": [{"v": "-1/2", "p": "1/4"}, {"v": "3", "p": "3/4"}]}
"""

from __future__ import annotations

import decimal
import json
import sys
from fractions import Fraction
from operator import mul, sub

from .certify import LiftResult
from .dist import JointDist, SimpleDist, as_rational, from_samples
from .dominance import MartingaleCoupling, PermutationCertificate


def _too_long(x: Fraction) -> str | None:
    """None when str(x) stays within the interpreter's int-to-str digit
    limit (0, or a Python before 3.10.7, means none); otherwise the size of
    x against it.  An integer of b bits has at most floor(b * 0.30103) + 1
    digits, so only a value near the limit pays for a str()."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if limit and bits * 30103 // 100000 >= limit:
        try:
            str(x)
        except ValueError:
            return (f"an integer of about {int(bits * 0.30103) + 1} digits, "
                    f"more than the {limit} digits divcert prints")
    return None


def rational_str(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # an int past the interpreter's digit limit
        raise ValueError(f"the exact result has {_too_long(x)}") from None


#: Significant digits of the decimal rendering beside each exact value.
DECIMAL_DIGITS = 12


def decimal_str(x: Fraction) -> str:
    """Decimal rendering with DECIMAL_DIGITS significant digits."""
    ctx = decimal.Context(prec=DECIMAL_DIGITS)
    return str(ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))


def rational_obj(x: Fraction) -> dict:
    """Two-field rendering used for report payloads."""
    return {"rational": rational_str(x), "decimal": decimal_str(x)}


def dist_to_obj(d: SimpleDist) -> dict:
    return {"atoms": [{"v": rational_str(v), "p": rational_str(p)} for v, p in d.atoms]}


def _fields(obj, what: str, *keys: str) -> None:
    """Refuse `obj` unless it is a JSON object carrying every key in `keys`."""
    if not isinstance(obj, dict) or not all(map(obj.__contains__, keys)):
        raise ValueError(f"{what} must be an object with fields {', '.join(keys)}")


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list")
    return x


def _int(x, what: str) -> int:
    """A JSON integer: not a float, not true/false."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {json.dumps(x)}")
    return x


def _rationals(xs, what: str) -> tuple[Fraction, ...]:
    """A JSON list of exact numbers."""
    try:
        return tuple(map(as_rational, _list(xs, what)))
    except TypeError as exc:  # JSON null, true/false, a list or an object
        raise ValueError(f"{what}: {exc}") from None


def dist_from_obj(obj) -> SimpleDist:
    _fields(obj, "distribution JSON", "atoms")
    pairs = []
    for entry in _list(obj["atoms"], "atoms"):
        _fields(entry, "each atom", "v", "p")
        try:
            pairs.append((as_rational(entry["v"]), as_rational(entry["p"])))
        except TypeError as exc:  # JSON null, true/false, a list or an object
            raise ValueError(f"atom {json.dumps(entry)}: {exc}") from None
    return SimpleDist.from_pairs(pairs)


def joint_from_obj(obj) -> JointDist:
    _fields(obj, "joint JSON", "atoms")
    pairs = []
    for entry in _list(obj["atoms"], "atoms"):
        _fields(entry, "each joint atom", "v", "p")
        vec = _rationals(entry["v"], "joint atom v")
        pairs.append((vec, _rationals([entry["p"]], "joint atom p")[0]))
    # divcert writes joints canonical (sorted, distinct, positive masses):
    # the validator refuses any other, nothing is re-sorted or merged
    return JointDist.from_atoms(pairs)


def certificate_from_obj(obj) -> PermutationCertificate:
    _fields(obj, "certificate JSON", "n", "terms")
    terms = []
    for entry in _list(obj["terms"], "terms"):
        _fields(entry, "each term", "perm", "weight")
        perm = _list(entry["perm"], "perm")
        if not set(map(type, perm)) <= {int}:
            raise ValueError(f"perm must list integers, not {json.dumps(perm)}")
        terms.append((tuple(perm), _rationals([entry["weight"]], "term weight")[0]))
    return PermutationCertificate(n=_int(obj["n"], "n"), terms=tuple(terms))


def coupling_from_obj(obj) -> MartingaleCoupling:
    _fields(obj, "coupling JSON", "n", "row_values", "col_values", "matrix")
    return MartingaleCoupling.from_matrix(
        n=_int(obj["n"], "n"),
        matrix=tuple(_rationals(row, "matrix row") for row in _list(obj["matrix"], "matrix")),
        row_values=_rationals(obj["row_values"], "row_values"),
        col_values=_rationals(obj["col_values"], "col_values"),
    )


def lift_to_obj(res: LiftResult) -> dict:
    return {
        "xi_grid": [rational_str(v) for v in res.xi_grid],
        "eta_grid": [rational_str(v) for v in res.eta_grid],
        "delta": [rational_str(v) for v in res.delta],
        "gamma_top": rational_str(res.gamma_top),
        "lifted_xi": dist_to_obj(res.lifted_xi),
        "lifted_eta": dist_to_obj(res.lifted_eta),
        "gap": rational_obj(res.gap),
    }


def _check_plain(x) -> None:
    """Raise TypeError on a float or a non-str key anywhere in the tree `x`."""
    if isinstance(x, float):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if isinstance(x, dict):
        for k in x:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        x = x.values()
    elif not isinstance(x, (list, tuple)):
        return
    for v in x:
        # str and int (bool too) leaves are plain: no call for them
        if not isinstance(v, (str, int)):
            _check_plain(v)


def dumps(obj) -> str:
    """Canonical JSON text: ``json.dumps(obj, indent=2) + "\\n"``, two-space
    indent, keys in the order built.

    A float anywhere in `obj`, or a dict key that is not a str, raises
    TypeError first: a float would break exactness, every number in
    divcert's output is written as a string or an int, and json.dumps
    would turn an int or bool key into a string.  Any other value
    json.dumps cannot write raises its own TypeError.
    """
    _check_plain(obj)
    return json.dumps(obj, indent=2) + "\n"


# The witness writers.  Each takes `newline`, the line break and the
# indentation of the depth its object opens at, and fills fixed templates;
# the text equals `dumps` of the witness's JSON tree, the reference trees
# of tests/oracles.py.  No list they write is empty: the witness
# validators see to that.


def _terms(cert: PermutationCertificate, newline: str) -> str:
    """The certificate's "terms" list: {"perm": [...], "weight": "..."}."""
    item = newline + "  "
    field = item + "  "
    slot = field + "  "
    slots = [str(k) for k in range(cert.n)]
    sep = "," + slot
    head = f'{{{field}"perm": [{slot}'
    mid = f'{field}],{field}"weight": "'
    tail = f'"{item}}}'
    terms = ("," + item).join(
        f"{head}{sep.join(map(slots.__getitem__, perm))}{mid}{rational_str(w)}{tail}"
        for perm, w in cert.terms
    )
    return f"[{item}{terms}{newline}]"


def _joint(j: JointDist, newline: str) -> str:
    """{"m": m, "atoms": [{"v": [...], "p": "..."}, ...]}

    Each vector is written run by run, on the cut the joint keeps
    (`JointDist.run_starts`): a run of k equal cells is one string, its
    value's text and separator repeated k times.  Each distinct numerator
    is printed once: a vector of about 180 cells holds about 8 runs."""
    inner = newline + "  "
    atom = inner + "  "
    field = atom + "  "
    cell = field + "  "
    sep = f'",{cell}"'
    m = j.m
    firsts = [list(map(row.__getitem__, starts)) for row, starts in zip(j.rows, j.run_starts)]
    piece = {k: rational_str(Fraction(k, j.vden)) + sep for k in set().union(*firsts)}

    def cells(values: list[int], starts: list[int]) -> str:
        lengths = map(sub, [*starts[1:], m], starts)
        return "".join(map(mul, map(piece.__getitem__, values), lengths))[: -len(sep)]

    mass = {k: rational_str(Fraction(k, j.pden)) for k in set(j.masses)}
    head, mid, tail = f'{{{field}"v": [{cell}"', f'"{field}],{field}"p": "', f'"{atom}}}'
    atoms = ("," + atom).join(
        f"{head}{cells(values, starts)}{mid}{mass[k]}{tail}"
        for values, starts, k in zip(firsts, j.run_starts, j.masses)
    )
    return f'{{{inner}"m": {m},{inner}"atoms": [{atom}{atoms}{inner}]{newline}}}'


def _coupling(c: MartingaleCoupling, newline: str) -> str:
    """{"n": n, "row_values": [...], "col_values": [...], "matrix": [[...], ...]}"""
    inner = newline + "  "
    item = inner + "  "
    sep = f'",{item}"'
    row_values = sep.join(map(rational_str, c.row_values))
    col_values = sep.join(map(rational_str, c.col_values))
    # every cell the coupling does not list is written "0"
    text = {k: rational_str(Fraction(k, c.den)) for k in set().union(*(ns for _, ns in c.cells))}
    cell = item + "  "
    head, comma, tail = f'[{cell}"', f'",{cell}"', f'"{item}]'
    matrix = ("," + item).join(
        [f"{head}{comma.join(row)}{tail}" for row in c._dense_rows("0", text.__getitem__)]
    )
    return (
        f'{{{inner}"n": {c.n},'
        f'{inner}"row_values": [{item}"{row_values}"{inner}],'
        f'{inner}"col_values": [{item}"{col_values}"{inner}],'
        f'{inner}"matrix": [{item}{matrix}{inner}]{newline}}}'
    )


def bundle_text(
    cert: PermutationCertificate, joint: JointDist, coupling: MartingaleCoupling
) -> str:
    """The certified bundle `divcert certify` writes: the dumps text of
    {"certified": true, "n": ..., "terms": ..., "joint": ..., "coupling": ...}."""
    inner = "\n  "
    return (
        f'{{{inner}"certified": true,{inner}"n": {cert.n},'
        f'{inner}"terms": {_terms(cert, inner)},'
        f'{inner}"joint": {_joint(joint, inner)},'
        f'{inner}"coupling": {_coupling(coupling, inner)}\n}}\n'
    )


def coupling_text(coupling: MartingaleCoupling) -> str:
    """The martingale coupling `divcert mps` writes."""
    return _coupling(coupling, "\n") + "\n"


def load_samples_csv(path: str) -> SimpleDist:
    """Empirical distribution from a one-value-per-line CSV file."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if text:
                samples.append(as_rational(text))
    return from_samples(samples)


def load_dist(path: str) -> SimpleDist:
    """Read a distribution: JSON atom files, or .csv sample files (one
    value per line, equal weights).  An atom that divcert could not print
    is refused here, before any command spends time on it."""
    if path.endswith(".csv"):
        d = load_samples_csv(path)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply to parse") from None
        d = dist_from_obj(obj)
    for atom in d.atoms:
        for x in atom:
            if problem := _too_long(x):
                raise ValueError(f"{path}: an atom holds {problem}")
    return d


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
