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
from math import lcm

from .dists import DiscreteDist


class SpecFileError(ValueError):
    """Malformed distribution file; message carries the offending location."""


def parse_rational(s, where: str = "value") -> Fraction:
    """A rational from a 'p/q' string or an int; JSON true and false are
    refused, although Python counts them as ints."""
    return Fraction(*_ratio(s, where))


def _ratio(s, where: str, *at) -> "tuple[int, int]":
    """A (numerator, denominator > 0) pair, not reduced, of the rational
    parse_rational(s).  Plain ASCII int and 'p/q' text is read with int; any
    other text goes to Fraction, so the text accepted and every message are
    Fraction's.  A SpecFileError names where, formatted with at only when
    raised."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        if s.isascii() and (num[1:] if num[:1] == "-" else num).isdecimal() \
                and (den.isdecimal() or not slash):
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:   # past the int string limit
                d = 0
            if d:
                return n, d
            # a zero denominator too: Fraction raises with its own message
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"{where.format(*at) if at else where}: "
                                f"not a rational: {s!r} ({exc})") from None
        return q.numerator, q.denominator
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise SpecFileError(
        f"{where.format(*at) if at else where}: expected a 'p/q' string or "
        f"integer, got {type(s).__name__}")


def dist_from_jsonable(doc) -> DiscreteDist:
    """The law of a distribution-file document, its atoms in file order;
    the only way a law file becomes a DiscreteDist.  Every rational is
    parsed once (_ratio), and the masses are summed in ints over the least
    common denominator."""
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
    masses = []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise SpecFileError(f"atoms[{i}]: expected an object with keys 'x' and 'p'")
        coords = entry["x"]
        if dim == 1 and not isinstance(coords, list):
            pt = (Fraction(*_ratio(coords, "atoms[{}].x", i)),)
        elif not isinstance(coords, list) or len(coords) != dim:
            raise SpecFileError(f"atoms[{i}].x: expected a list of {dim} coordinates")
        else:
            pt = tuple([Fraction(*_ratio(c, "atoms[{}].x[{}]", i, j))
                        for j, c in enumerate(coords)])
        n, d = _ratio(entry["p"], "atoms[{}].p", i)
        if n <= 0:
            raise SpecFileError(
                f"atoms[{i}].p: probability {Fraction(n, d)} is not positive")
        law[pt] = Fraction(n, d)
        if len(law) == i:   # pt was there already
            raise SpecFileError(f"atoms[{i}]: duplicate point {tuple(map(str, pt))}")
        masses.append((n, d))
    den = lcm(*[d for _, d in masses])
    total = sum([n * (den // d) for n, d in masses])
    if total != den:
        raise SpecFileError(
            f"atoms: probabilities sum to {Fraction(total, den)}, expected 1")
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
    from .reports import render   # reports renders a law through this module
    return render(dist) + "\n"


def save_dist(dist: DiscreteDist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_dist(dist))
