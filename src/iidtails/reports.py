"""Common report types shared by the inequality checkers and the CLI.

Every JSON document the program writes is rendered by render, whose text
is byte for byte what json.dumps gives on jsonify(doc) with an indent of 2
and sorted keys.  A report dataclass derives from Report and renders by its
fields; a field marked field(..., metadata={"json": False}) is left out.  A
law renders as its distribution-file document (specfile.dist_to_jsonable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .dists import DiscreteDist
from .specfile import dist_to_jsonable

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


class Report:
    """Base of the report dataclasses: to_jsonable renders the fields."""

    def to_jsonable(self) -> dict:
        return {name: jsonify(getattr(self, name))
                for name in _json_fields(type(self))}


@cache
def _json_fields(cls) -> "tuple[str, ...]":
    """The names of the fields a Report of class cls renders, in order."""
    return tuple(f.name for f in fields(cls) if f.metadata.get("json", True))


@dataclass(frozen=True)
class InequalityReport(Report):
    claim_id: str
    params: dict
    worst_t: "Fraction | None"
    lhs: "Fraction | None"
    rhs: "Fraction | None"
    margin: "Fraction | None"
    status: str
    witness: "dict | None" = None
    note: "str | None" = None


class Outcome(NamedTuple):
    """A check's outcome in ints, a sweep claim's and an evaluated claim's
    alike: the worst threshold of each mode pair (one for an evaluated
    claim), and the lhs, rhs and margin they share, each a (numerator,
    denominator > 0) pair, not reduced; the status, the witness of a
    violated evaluated claim and the note.  The corpus reads it as it is;
    reports() builds the InequalityReports."""

    ts: "tuple[tuple[int, int], ...]"
    lhs: "tuple[int, int] | None"
    rhs: "tuple[int, int] | None"
    margin: "tuple[int, int] | None"
    status: str
    witness: "dict | None"
    note: "str | None"

    def reports(self, claim_id: str, echoes) -> "list[InequalityReport]":
        """The report at each threshold, with the params echo of its plan
        entry (checks.plan_entry); a violated sweep's witness is its t, lhs
        and rhs."""
        lhs, rhs, margin = (None if v is None else Fraction(*v)
                            for v in self[1:4])
        out = []
        for echo, t in zip(echoes, self.ts):
            t = Fraction(*t)
            witness = self.witness
            if witness is None and self.status == VIOLATED:
                witness = {"t": t, "lhs": lhs, "rhs": rhs}
            out.append(InequalityReport(claim_id, echo, t, lhs, rhs, margin,
                                        self.status, witness, self.note))
        return out


def jsonify(value):
    """Recursively render a report structure as JSON-safe data.

    Rationals become "p/q" strings (exact, parseable back, of any length:
    ratio_text), enums their value, infinities the string "inf", tuples
    lists, a DiscreteDist its distribution-file document, and anything with
    a to_jsonable method (a Report renders by its fields) what that method
    returns.
    """
    if isinstance(value, Fraction):
        return ratio_text(value.numerator, value.denominator)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, DiscreteDist):
        return dist_to_jsonable(value)
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    return value


def render(doc) -> str:
    """The JSON text of doc, byte for byte json.dumps of jsonify(doc) with
    an indent of 2 and sorted keys, in one pass with no intermediate
    document: strings go through the C encoder's ASCII escaping, the layout
    is written here.  Plain data, rationals, floats and Reports that render by
    their fields are written directly; anything else is rendered as what
    jsonify makes of it (so a to_jsonable method, and an enum's value, must
    be JSON data, as every one in this package is).  Each distinct int of
    the document's rationals is converted to text once, by a memo that
    lives for this call alone."""
    digits = _Digits()
    return _text(doc, "\n", {**_LEAVES, Fraction: lambda q: (
        f'"{ratio_text(q.numerator, q.denominator, digits)}"')})


def _text(value, nl: str, leaves: dict) -> str:
    """render's text of value, at the indent that newline nl opens, with
    the text of a value of each leaf type, by its exact type, in leaves."""
    cls = type(value)
    leaf = leaves.get(cls)
    if leaf is not None:
        return leaf(value)
    inner = nl + "  "
    if cls is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            value = {str(k): v for k, v in value.items()}
        items = sorted(value.items())
    elif cls is list or cls is tuple:
        if not value:
            return "[]"
        return (f"[{inner}" + f",{inner}".join([
            leaf(v) if (leaf := leaves.get(type(v)))
            else _text(v, inner, leaves) for v in value]) + f"{nl}]")
    elif isinstance(value, Report) and \
            cls.to_jsonable is Report.to_jsonable:
        items = sorted([(name, getattr(value, name))
                        for name in _json_fields(cls)])
    else:
        data = jsonify(value)
        if data is not value:
            return _text(data, nl, leaves)
        # what jsonify leaves as it is: a str, int or float of a subclass
        for base in (str, int, float):
            if isinstance(value, base):
                return _LEAVES[base](value)
        raise TypeError(f"Object of type {cls.__name__} "
                        f"is not JSON serializable")
    return (f"{{{inner}" + f",{inner}".join([
        f"{encode_basestring_ascii(k)}: " + (
            leaf(v) if (leaf := leaves.get(type(v)))
            else _text(v, inner, leaves)) for k, v in items]) + f"{nl}}}")


def _float_text(x: float) -> str:
    """A float as jsonify and json.dumps render it together: an infinity
    as the string "inf" or "-inf", NaN as NaN."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return float.__repr__(x)


# the text of a value of each leaf type but Fraction, whose text render
# takes through its memo, by its exact type (so bool is never taken for
# int)
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}


def ratio_text(n: int, d: int, digits: "_Digits | None" = None) -> str:
    """The text of the reduced rational n / d (d > 0), str of its Fraction,
    also past the interpreter's limit on int to string conversion
    (sys.get_int_max_str_digits), where str raises: a decimal Decimal holds
    an int exactly and renders all its digits (_decimal).  Given digits,
    each int's text is read from that memo (render keeps one per call)."""
    if digits is None:
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:
            digits = _Digits()
    return digits[n] if d == 1 else f"{digits[n]}/{digits[d]}"


class _Digits(dict):
    """The decimal text of each int asked for, converted once (_digits)."""

    def __missing__(self, n: int) -> str:
        self[n] = text = _digits(n)
        return text


def _digits(n: int) -> str:
    """str(n), or past the int string limit the digits of _decimal(n)."""
    try:
        return str(n)
    except ValueError:
        return str(_decimal(n))


# a context in which a sum or product of Decimal ints is exact, or raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
# Decimal(n) is quadratic in n's length; below this many bits it is cheap
_DECIMAL_BITS = 1 << 12


def _decimal(n: int) -> Decimal:
    """Decimal(n) in _EXACT whatever the caller's context, near linear in
    n's length: n = hi * 2**e + lo, e the largest power of 2 below n's bit
    length, whose few powers are cached; libmpdec multiplies by an NTT."""
    if n < 0:
        return _decimal(-n).copy_negate()
    if n.bit_length() <= _DECIMAL_BITS:
        return Decimal(n)
    e = 1 << (n.bit_length() - 1).bit_length() - 1
    return _EXACT.fma(_decimal(n >> e), _power_of_2(e),
                      _decimal(n & (1 << e) - 1))


_power_of_2 = cache(lambda e: _EXACT.power(2, e))
