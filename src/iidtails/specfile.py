"""Read and write the JSON distribution file format.

A distribution file looks like

    {"dim": 1, "atoms": [{"x": ["-1"], "p": "1/2"}, {"x": ["1"], "p": "1/2"}]}

with every rational rendered as a "numerator/denominator" string (or a bare
integer string).  When dim is 1, ``x`` may also be a bare rational or int
instead of a one-element list.  The parser rejects nonpositive
probabilities, duplicate points, and probabilities that do not sum to
exactly 1.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dists import DiscreteDist


class SpecFileError(ValueError):
    """Malformed distribution file; message carries the offending location."""


def parse_rational(s, where: str = "value") -> Fraction:
    """A rational from a 'p/q' string or an int; JSON true and false are
    refused, although Python counts them as ints."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"{where}: not a rational: {s!r} ({exc})") from None
    raise SpecFileError(
        f"{where}: expected a 'p/q' string or integer, got {type(s).__name__}"
    )


def dist_from_jsonable(doc) -> DiscreteDist:
    if not isinstance(doc, dict):
        raise SpecFileError(f"top level: expected an object, got {type(doc).__name__}")
    try:
        dim = doc["dim"]
        atoms = doc["atoms"]
    except KeyError as exc:
        raise SpecFileError(f"top level: missing key {exc}") from None
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFileError(f"dim: expected a positive integer, got {dim!r}")
    if not isinstance(atoms, list) or not atoms:
        raise SpecFileError("atoms: expected a nonempty list")
    law = {}
    for i, entry in enumerate(atoms):
        where = f"atoms[{i}]"
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise SpecFileError(f"{where}: expected an object with keys 'x' and 'p'")
        coords = entry["x"]
        if dim == 1 and not isinstance(coords, list):
            pt = (parse_rational(coords, f"{where}.x"),)
        elif not isinstance(coords, list) or len(coords) != dim:
            raise SpecFileError(f"{where}.x: expected a list of {dim} coordinates")
        else:
            pt = tuple(
                parse_rational(c, f"{where}.x[{j}]")
                for j, c in enumerate(coords)
            )
        prob = parse_rational(entry["p"], f"{where}.p")
        if prob <= 0:
            raise SpecFileError(f"{where}.p: probability {prob} is not positive")
        if pt in law:
            raise SpecFileError(f"{where}: duplicate point {tuple(map(str, pt))}")
        law[pt] = prob
    total = sum(law.values())
    if total != 1:
        raise SpecFileError(f"atoms: probabilities sum to {total}, expected 1")
    return DiscreteDist._trusted(dim, law)


def parse_dist(text: str) -> DiscreteDist:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return dist_from_jsonable(doc)


def load_dist(path) -> DiscreteDist:
    with open(path, "rb") as fh:
        return read_dist(fh.read(), path)


def read_dist(data: bytes, path) -> DiscreteDist:
    """The law in the bytes of the law file at path, decoded here only; a
    SpecFileError names path, and the first byte offset that is not UTF-8."""
    try:
        return parse_dist(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def dist_to_jsonable(dist: DiscreteDist) -> dict:
    return {
        "dim": dist.dim,
        "atoms": [
            {"x": [str(c) for c in pt], "p": str(dist.atoms[pt])}
            for pt in dist.support
        ],
    }


def dump_dist(dist: DiscreteDist) -> str:
    return json.dumps(dist_to_jsonable(dist), indent=2, sort_keys=True) + "\n"


def save_dist(dist: DiscreteDist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_dist(dist))
