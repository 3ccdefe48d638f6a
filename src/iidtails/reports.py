"""Common report types shared by the inequality checkers and the CLI.

Every JSON document the program writes is rendered by jsonify.  A report
dataclass derives from Report and renders by its fields, in field order;
a field marked field(..., metadata={"json": False}) is left out.  A law
renders as its distribution-file document (specfile.dist_to_jsonable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
        return {f.name: jsonify(getattr(self, f.name)) for f in fields(self)
                if f.metadata.get("json", True)}


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


def ratio_text(n: int, d: int) -> str:
    """The text of the reduced rational n / d (d > 0), str of its Fraction,
    also past the interpreter's limit on int to string conversion
    (sys.get_int_max_str_digits), where str raises: a decimal Decimal holds
    an int exactly and renders all its digits (_decimal)."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        return str(_decimal(n)) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


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
