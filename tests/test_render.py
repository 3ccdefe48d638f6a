"""The one JSON renderer and the one argument parse of the CLI, each held
to what it replaced.

`reports.render` must give, byte for byte, json.dumps(jsonify(doc),
indent=2, sort_keys=True) (oracles.json_render) on any document: odd
strings in keys and values, empty containers, bools beside ints, floats
at their edges, rationals past the int string limit, enums, reports, laws
and named tuples.  `cli._parse` must give what the top-level parser's
parse_args gives: the same namespace, or the same output and exit status
on --help, --version and every usage error.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtails import cli, reports
from iidtails.checks import CLAIMS, claim_reports
from iidtails.corpus import CorpusConfig, run_corpus
from iidtails.counterexample import verify_counterexample
from iidtails.dists import DiscreteDist, Norm
from iidtails.reports import InequalityReport, Report, jsonify, render
from iidtails.specfile import dist_to_jsonable, dump_dist
from oracles import coin, json_render


class Pair(NamedTuple):
    left: object
    right: object


@dataclass(frozen=True)
class Hidden(Report):
    """A report with a field left out of its JSON."""
    shown: object
    hidden: object = field(default=None, metadata={"json": False})


@dataclass(frozen=True)
class Custom(Report):
    """A report that renders by its own to_jsonable."""
    value: object

    def to_jsonable(self) -> dict:
        return jsonify({"custom": self.value, "inf": math.inf})


# past the interpreter's 4300-digit limit on int to string conversion
HUGE = F(10 ** 4400 + 1, 3 ** 2000)
# long ints, past and under that limit, and rationals that share them as
# numerators and denominators (each reduced as it is)
LONG = (10 ** 4400 + 1, 2 ** 3000 + 1, 3 ** 2000)
SHARED = [F(s * n, d) for n in LONG for d in LONG + (1, 7) for s in (1, -1)]

ODD_TEXT = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "😀",
     "a\"b\\c", "", " ", "/", "<>&'"])
TEXT = ODD_TEXT | st.text(max_size=6)
LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
          | st.sampled_from([0, 1, True, False, -0.0, 0.0, 1e300, -1e-300,
                             math.nan, math.inf, -math.inf, 0.1,
                             F(-3, 4), F(7), Norm.ABS1D, Norm.EUCLIDEAN])
          | st.floats() | TEXT
          | st.integers(4400, 4402).map(lambda e: F(1 - 10 ** e, 3 ** 2000))
          | st.integers(0, len(SHARED) - 1).map(lambda i: SHARED[i])
          | st.builds(F, st.integers(-10 ** 20, 10 ** 20),
                      st.integers(1, 10 ** 20))
          | st.sampled_from([coin(), DiscreteDist(
              {(F(1, 3), F(-2)): F(1, 4), (F(0), F(5, 2)): F(3, 4)})]))
KEYS = TEXT | st.integers(-5, 5) | st.sampled_from([Norm.SUP, F(1, 2)])


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4)
            | st.builds(Pair, children, children)
            | st.builds(Hidden, children, children)
            | st.builds(Custom, children)
            | st.builds(InequalityReport, TEXT, children, children,
                        children, children, children, TEXT, children,
                        children))


DOCUMENTS = st.recursive(LEAVES, _containers, max_leaves=20)


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_render_is_json_dumps_of_jsonify(doc):
    assert render(doc) == json_render(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"": {}}, [[], {}], {"a": [], "b": ()},
    {1: "one", "1": "string one"}, {True: 1, None: 2, 2.5: 3},
    [True, 1, False, 0, None], [-0.0, 1e300, math.nan], HUGE,
    Pair(F(1, 2), Norm.SUP), coin(), SHARED, {"a": SHARED, "b": SHARED[::-1]},
])
def test_render_edges(doc):
    assert render(doc) == json_render(doc)


def test_render_refuses_what_json_refuses():
    for doc in (object(), {"x": [1, {2, 3}]}, b"bytes"):
        with pytest.raises(TypeError) as want:
            json_render(doc)
        with pytest.raises(TypeError) as got:
            render(doc)
        assert str(got.value) == str(want.value)


def _documents():
    """One document of each kind the CLI writes, built by the library."""
    x = DiscreteDist({F(-2): F(1, 3), F(1, 2): F(1, 6), F(3): F(1, 2)})
    reports = claim_reports(CLAIMS["theorem1"], [x], Norm.ABS1D,
                            {"j": 2, "k": 3})
    corpus = run_corpus(CorpusConfig(seed=3, count=4, max_k=3, dims=(1, 2),
                                     norms=(Norm.SUP, Norm.EUCLIDEAN)))
    manifest = {"subcommand": "verify", "params": {
        "norm": Norm.SUP, "c1": F(3), "weights": [F(-1), F(1, 2)],
        "dims": [1, 2], "norms": (Norm.SUP,), "json": True, "delta": 0.05,
        "out": None}, "input_digests": {"é.json": "0" * 64}}
    return {
        "verify": {"manifest": manifest,
                   "reports": [{"file": "x.json", "report": r}
                               for r in reports]},
        "corpus": {"manifest": manifest, "corpus": corpus},
        "counterexample": {"counterexample": verify_counterexample(3,
                                                                   M=20000)},
        "law": x,
    }


@pytest.mark.parametrize("name", ["verify", "corpus", "counterexample",
                                  "law"])
def test_render_of_cli_documents(name):
    doc = _documents()[name]
    assert render(doc) == json_render(doc)


def _conversions(monkeypatch) -> list:
    """The ints render converts to text from here on, in order."""
    seen, digits = [], reports._digits

    def spy(n):
        seen.append(n)
        return digits(n)

    monkeypatch.setattr(reports, "_digits", spy)
    return seen


def test_render_converts_each_int_once(monkeypatch):
    # the N = 3 report holds 12 rationals whose ints are long, of which
    # 7 are distinct; each int is converted once a document, and a second
    # render converts them all again: no memo outlives its call
    for rep in (verify_counterexample(3), verify_counterexample(3, M=20000)):
        doc = {"counterexample": rep, "again": [rep.p_centered, rep.law]}
        rationals = [rep.admissible_tail, rep.p_centered, rep.p_extended,
                     rep.bound_centered, rep.bound_extended,
                     *rep.law["Y"].values(),
                     *(v for v in rep.refutation.values() if type(v) is F)]
        ints = {n for q in rationals for n in (
            (q.numerator,) if q.denominator == 1 else
            (q.numerator, q.denominator))}
        seen = _conversions(monkeypatch)
        text = render(doc)
        assert sorted(seen) == sorted(ints)
        assert len([n for n in ints if n.bit_length() > 7000]) == 7
        render(doc)
        assert seen[len(ints):] == seen[:len(ints)]
        monkeypatch.undo()
        assert text == json_render(doc)


def test_ratio_text_alone_keeps_no_memo(monkeypatch):
    seen = _conversions(monkeypatch)
    for _ in range(2):
        assert reports.ratio_text(HUGE.numerator, 3) == \
            "1" + "0" * 4399 + "1/3"
    assert seen == [HUGE.numerator, 3] * 2


def test_dump_dist_is_the_file_layout():
    law = DiscreteDist({(F(1, 3), F(-2)): F(1, 4), (F(0), F(5, 2)): F(3, 4)})
    assert dump_dist(law) == json.dumps(dist_to_jsonable(law), indent=2,
                                        sort_keys=True) + "\n"


def _outcome(parse, argv):
    """(exit status or None, stdout, stderr, the namespace's items) of
    parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code, items = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            items = sorted((k, repr(v)) for k, v in vars(parse(argv)).items())
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), items


ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["--version", "verify"],
    ["frobnicate"], ["-x"], ["--", "verify"], ["verify"],
    ["verify", "-h"], ["verify", "--help"], ["verify", "--version"],
    ["verify", "--claim", "theorem1", "a.json"],
    ["verify", "--claim", "theorem1", "a.json", "--bogus"],
    ["verify", "--claim", "theorem1", "a.json", "--bogus", "1", "-z"],
    ["verify", "--claim", "theorem2", "a.json"],
    ["verify", "--claim", "theorem1", "--k", "x", "a.json"],
    ["verify", "--claim", "theorem1", "--", "a.json", "--k"],
    ["verify", "--cla", "lemma2", "--t", "1/2", "a.json", "b.json"],
    ["verify", "--c", "1", "a.json"],
    ["verify", "--claim=corollary5", "--weights=-1,1/2", "a.json"],
    ["corpus"], ["corpus", "extra"], ["corpus", "--count", "-1"],
    ["corpus", "--cou", "3", "--dims", "1,2", "--json"],
    ["search", "--j", "1"], ["search", "-h"],
    ["counterexample", "--N", "3", "--M", "4437"],
    ["counterexample", "--N"],
    ["mc", "--family", "gaussian", "--t", "1", "--t", "2"],
    ["mc", "--family", "nope"], ["mc", "-h"],
    ["show", "a.json", "--norm", "sup"], ["show"], ["show", "-h"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a) or "-")
def test_parse_is_parse_args(argv):
    """Each subcommand's arguments are read by its own parser alone, with
    every byte and exit status the top-level parse_args gives."""
    want = _outcome(cli.build_parser().parse_args, argv)
    assert _outcome(cli._parse, argv) == want
