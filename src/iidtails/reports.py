"""Common report types shared by the inequality checkers and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class InequalityReport:
    claim_id: str
    params: dict
    worst_t: "Fraction | None"
    lhs: "Fraction | None"
    rhs: "Fraction | None"
    margin: "Fraction | None"
    status: str
    witness: "dict | None" = None
    note: "str | None" = None

    def to_jsonable(self) -> dict:
        return jsonify(
            {
                "claim_id": self.claim_id,
                "params": self.params,
                "worst_t": self.worst_t,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "margin": self.margin,
                "status": self.status,
                "witness": self.witness,
                "note": self.note,
            }
        )


def jsonify(value):
    """Recursively render a report structure as JSON-safe data.

    Rationals become "p/q" strings (exact, parseable back), enums their
    value, infinities the string "inf".
    """
    if isinstance(value, Fraction):
        return str(value)
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
    return value
