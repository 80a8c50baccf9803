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
  Each writer appends its pieces to one list that is joined once, so the
  only large string built is the text itself, and each distinct cell
  value is rendered from its integer numerator and denominator with one
  gcd (`_ratio`).
* `dumps` serves every other report, from reject reports to lift tables:
  it is json.dumps(indent=2) itself, behind a walk that raises TypeError
  on a float or a non-str key.

The parsers check containers, keys and JSON types and raise ValueError
on any malformed part, in document order.  `coupling_from_obj` parses
each distinct string of the coupling once, into a table local to the
call, and scales the matrix's distinct values to one denominator, so
its rows go straight to the integer view `MartingaleCoupling` checks;
`joint_from_obj` and `certificate_from_obj` make one Fraction per
number.

Distribution files look like::

    {"atoms": [{"v": "-1/2", "p": "1/4"}, {"v": "3", "p": "3/4"}]}
"""

from __future__ import annotations

import decimal
import json
import math
import sys
from fractions import Fraction
from itertools import chain, compress
from operator import mul, sub

from .certify import LiftResult
from .dist import JointDist, SimpleDist, as_rational, common_scale, from_samples
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
    # one Fraction per cell: a per-call string table raised audit peak RSS 29.6 -> 32.9 MB
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


def _parse_once(xs, table: dict[str, Fraction], what: str) -> bool:
    """Parse each distinct string of the JSON list `xs` that `table` lacks
    into it, in document order; False, with nothing parsed, when `xs`
    holds anything but strings.  1, 1.0 and true are equal dict keys, and
    true must be refused, so only strings are keys."""
    if not set(map(type, _list(xs, what))) <= {str}:
        return False
    for x in dict.fromkeys(xs):
        if x not in table:
            table[x] = as_rational(x)  # a string raises ValueError only
    return True


def coupling_from_obj(obj) -> MartingaleCoupling:
    """The coupling of a JSON document, parsed straight to its integer view.

    Each distinct string is parsed once, into a table that lives for this
    call only; a list that holds anything but strings is parsed value by
    value.  The distinct cell values are brought to their least common
    denominator once, and each row's nonzero cells are read off as
    numerators, so no cell becomes a Fraction of its own.  A row of any
    length but n is listed against the n columns, so the validator
    refuses it as not square, at its turn among the rows.  Errors come in
    document order: the fields, n, each row's list check and then its
    cells, row_values, col_values, and last the validator's.
    """
    _fields(obj, "coupling JSON", "n", "row_values", "col_values", "matrix")
    n = _int(obj["n"], "n")
    table: dict[str, Fraction] = {}
    rows = []  # (row, None), or (row, its Fractions) for a row not all strings
    for row in _list(obj["matrix"], "matrix"):
        rows.append((row, None if _parse_once(row, table, "matrix row")
                     else _rationals(row, "matrix row")))
    mixed = [xs for _, xs in rows if xs is not None]
    nums, den = common_scale([*table.values(), *chain.from_iterable(mixed)])
    scaled = dict(zip(table, nums))
    values = []
    for what in "row_values", "col_values":
        xs = obj[what]
        values.append(tuple(map(table.__getitem__, xs)) if _parse_once(xs, table, what)
                      else _rationals(xs, what))
    columns = range(n)
    cells = []
    for row, xs in rows:
        if xs is None:
            row = list(map(scaled.__getitem__, row))
        else:
            row = [den // x.denominator * x.numerator for x in xs]
        if len(row) == n:
            cells.append((tuple(compress(columns, row)), tuple(filter(None, row))))
        else:
            cells.append((columns, tuple(row)))
    return MartingaleCoupling(n, tuple(cells), den, *values)


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


# The witness writers.  Each appends the pieces of its text to `out`, the
# one list `bundle_text` or `coupling_text` joins once, and takes
# `newline`, the line break and the indentation of the depth its object
# opens at; the text equals `dumps` of the witness's JSON tree, the
# reference trees of tests/oracles.py.  No list they write is empty: the
# witness validators see to that.


def _ratio(k: int, den: int) -> str:
    """str(Fraction(k, den)) for den > 0, from one gcd and no Fraction.  A
    text past the interpreter's digit limit fails as `rational_str` does."""
    g = math.gcd(k, den)
    try:
        return str(k // g) if g == den else f"{k // g}/{den // g}"
    except ValueError:
        return rational_str(Fraction(k, den))


def _terms(out: list[str], cert: PermutationCertificate, newline: str) -> None:
    """The certificate's "terms" list: {"perm": [...], "weight": "..."}."""
    item = newline + "  "
    field = item + "  "
    slot = field + "  "
    slots = [str(k) for k in range(cert.n)]
    sep = "," + slot
    head = f'{{{field}"perm": [{slot}'
    mid = f'{field}],{field}"weight": "'
    tail = f'"{item}}},{item}'
    out.append("[" + item)
    for perm, w in cert.terms:
        out += head, sep.join(map(slots.__getitem__, perm)), mid, rational_str(w), tail
    out[-1] = f'"{item}}}{newline}]'


def _joint(out: list[str], j: JointDist, newline: str) -> None:
    """{"m": m, "atoms": [{"v": [...], "p": "..."}, ...]}

    Each vector is written run by run, on the cut the joint keeps
    (`JointDist.run_starts`): a run of k equal cells is one piece, its
    value's text and separator repeated k times.  Each distinct numerator
    is printed once: a vector of about 180 cells holds about 8 runs."""
    inner = newline + "  "
    atom = inner + "  "
    field = atom + "  "
    cell = field + "  "
    sep = f'",{cell}"'
    m, vden = j.m, j.vden
    firsts = [list(map(row.__getitem__, starts)) for row, starts in zip(j.rows, j.run_starts)]
    piece = {k: _ratio(k, vden) + sep for k in set().union(*firsts)}
    mass = {k: _ratio(k, j.pden) for k in set(j.masses)}
    head, mid, tail = f'{{{field}"v": [{cell}"', f'"{field}],{field}"p": "', f'"{atom}}},{atom}'
    out.append(f'{{{inner}"m": {m},{inner}"atoms": [{atom}')
    for values, starts, k in zip(firsts, j.run_starts, j.masses):
        out.append(head)
        out += map(mul, map(piece.__getitem__, values), map(sub, [*starts[1:], m], starts))
        out[-1] = out[-1][: -len(sep)]
        out += mid, mass[k], tail
    out[-1] = f'"{atom}}}{inner}]{newline}}}'


def _coupling(out: list[str], c: MartingaleCoupling, newline: str) -> None:
    """{"n": n, "row_values": [...], "col_values": [...], "matrix": [[...], ...]}"""
    inner = newline + "  "
    item = inner + "  "
    sep = f'",{item}"'
    out += (
        f'{{{inner}"n": {c.n},{inner}"row_values": [{item}"',
        sep.join(map(rational_str, c.row_values)),
        f'"{inner}],{inner}"col_values": [{item}"',
        sep.join(map(rational_str, c.col_values)),
        f'"{inner}],{inner}"matrix": [{item}',
    )
    # every cell the coupling does not list is written "0"
    den = c.den
    text = {k: _ratio(k, den) for k in set().union(*(ns for _, ns in c.cells))}
    cell = item + "  "
    head, comma, tail = f'[{cell}"', f'",{cell}"', f'"{item}],{item}'
    for row in c._dense_rows("0", text.__getitem__):
        out += head, comma.join(row), tail
    out[-1] = f'"{item}]{inner}]{newline}}}'


def bundle_text(
    cert: PermutationCertificate, joint: JointDist, coupling: MartingaleCoupling
) -> str:
    """The certified bundle `divcert certify` writes: the dumps text of
    {"certified": true, "n": ..., "terms": ..., "joint": ..., "coupling": ...}."""
    inner = "\n  "
    out = [f'{{{inner}"certified": true,{inner}"n": {cert.n},{inner}"terms": ']
    _terms(out, cert, inner)
    out.append(f',{inner}"joint": ')
    _joint(out, joint, inner)
    out.append(f',{inner}"coupling": ')
    _coupling(out, coupling, inner)
    out.append("\n}\n")
    return "".join(out)


def coupling_text(coupling: MartingaleCoupling) -> str:
    """The martingale coupling `divcert mps` writes."""
    out: list[str] = []
    _coupling(out, coupling, "\n")
    out.append("\n")
    return "".join(out)


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
