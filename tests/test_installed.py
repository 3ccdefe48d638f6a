"""The CLI's contracts, each run as a user runs it: `python [-O] -m
iidtails.cli ARGV` in a fresh process and a fresh directory.

One row of CASES is one contract: the exit code, the exact stderr, the
stdout (as text or as JSON fields), the sha256 of every file written and
which of numpy and scipy the process loads.  A new CLI contract adds a row
here.  Rows under -O pin that no assert guards a step: the answers are the
same with asserts stripped.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import pytest

COIN = '{"dim": 1, "atoms": [{"x": "-1", "p": "1/2"}, {"x": "1", "p": "1/2"}]}'
Y = '{"dim": 1, "atoms": [{"x": "1", "p": "3/4"}, {"x": "5/2", "p": "1/4"}]}'
# the 1-D and 2-D laws of the verify_wide benchmark workload, whose walks
# fold on slots
WIDE = ('{"dim": 1, "atoms": ['
        + ", ".join(f'{{"x": "{x}", "p": "{p}/61"}}' for x, p in zip(
            ("-2", "-5/4", "-2/3", "1/6", "3/4", "3/2", "2"),
            (6, 3, 11, 23, 2, 4, 12))) + "]}")
PLANE = ('{"dim": 2, "atoms": ['
         + ", ".join(f'{{"x": ["{a}", "{b}"], "p": "{p}/61"}}'
                     for (a, b), p in zip(
                         ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, 2)),
                         (2, 6, 10, 9, 20, 14))) + "]}")
WEIGHTS = "--weights=-1,1,1/2,-1,1/4,1,-1/2,1/4"


@dataclass
class Case:
    argv: tuple
    code: int = 0
    files: dict = field(default_factory=dict)   # name: text, written first
    optimize: bool = False                      # run under python -O
    err: str = ""                               # stderr, exactly
    out: "str | None" = None                    # stdout, exactly
    fields: dict = field(default_factory=dict)  # dotted path in stdout's JSON
    digits: dict = field(default_factory=dict)  # path: digits of numerator
    wrote: dict = field(default_factory=dict)   # file written: its sha256
    loads: frozenset = frozenset()              # of numpy and scipy


def _counterexample(flags, M, **fields) -> Case:
    """counterexample FLAGS under -O: the M it reports, None for no M under
    the cap (exit 1), and these fields of its report."""
    return Case(("counterexample", *flags), 0 if M else 1, optimize=True,
                fields={f"counterexample.{path}": value
                        for path, value in {"M": M, **fields}.items()})


# the bounds and the refutation of a verified counterexample
VERIFIED = {"refutation.fails": True, "centered_holds": True,
            "extended_holds": True}


def _margin(argv, law, margin) -> Case:
    """verify under -O on a verify_wide law: it holds at this margin."""
    return Case(("verify", *argv, "law.json"), files={"law.json": law},
                optimize=True, fields={"reports.0.report.margin": margin,
                                       "reports.0.report.status": "holds"})


def _refused(argv, err) -> Case:
    """argv on a coin exits 2, printing exactly err."""
    return Case(argv, 2, files={"coin.json": COIN}, err=err)


CASES = {
    # the slot fold, the split running-max pass and the weighted walk
    "theorem1_slots_O": _margin(
        ("--claim", "theorem1", "--j", "20", "--k", "40"), WIDE,
        "517210680843808079161843846252952641982290481080568379662322665232613256/"
        "258936575725713381876605656162686020810913039245684608619946288452090401"),
    "theorem1_euclidean_slots_O": _margin(
        ("--claim", "theorem1", "--j", "3", "--k", "10", "--norm",
         "euclidean"), PLANE, "1423712767524579410/713342911662882601"),
    "corollary5_slots_O": _margin(
        ("--claim", "corollary5", WEIGHTS), WIDE,
        "1721456923452023/191707312997281"),
    "corollary4_split_pass_O": _margin(
        ("--claim", "corollary4", "--k", "8"), WIDE,
        "1529205553654664/191707312997281"),
    # find_M at eight (N, cap) pairs, and three reports
    "find_M_2_100_O": _counterexample(("--N", "2", "--cap", "100"), 8),
    "find_M_3_10000_O": _counterexample(("--N", "3", "--cap", "10000"), 4437),
    "find_M_3_4436_O": _counterexample(("--N", "3", "--cap", "4436"), None),
    "find_M_4_100000_O": _counterexample(("--N", "4", "--cap", "100000"),
                                         None),
    "find_M_5_100000_O": _counterexample(("--N", "5", "--cap", "100000"),
                                         None),
    "find_M_10_15000_O": _counterexample(("--N", "10", "--cap", "15000"),
                                         None),
    "find_M_10_100000_O": _counterexample(("--N", "10", "--cap", "100000"),
                                          None),
    "find_M_10_1e9_O": _counterexample(("--N", "10", "--cap", "1000000000"),
                                       None),
    "counterexample_N2_M8_O": _counterexample(
        ("--N", "2", "--M", "8"), 8, admissible_tail="37/128",
        p_centered="41/64", p_extended="57/128"),
    "counterexample_N3_M4437_O": _counterexample(
        ("--N", "3", "--M", "4437"), 4437, **VERIFIED),
    "counterexample_N3_O": _counterexample(("--N", "3"), 4437, **VERIFIED),
    # ratios past int's 4300-digit str limit render whole; the N = 4
    # horizon (about 2 s) renders past 100000 digits
    "counterexample_renders_past_4300_digits": Case(
        ("counterexample", "--N", "3", "--M", "20000"),
        digits={"counterexample.p_centered": 9541}),
    "counterexample_N4_horizon": Case(
        ("counterexample", "--N", "4", "--cap", "300000"),
        fields={"counterexample.M": 253742},
        digits={"counterexample.p_centered": 152767}),
    # the outcome contract: 1 on a violation, with its witness
    "theorem1_false_constants_exit_1": Case(
        ("verify", "--claim", "theorem1", "--c1", "1", "--c2", "1",
         "coin.json"), 1, files={"coin.json": COIN}, fields={
            "reports.0.report.status": "violated",
            "reports.0.report.worst_t": "1/2",
            "reports.0.report.lhs": "1", "reports.0.report.rhs": "1/2",
            "reports.0.report.witness": {"t": "1/2", "lhs": "1",
                                         "rhs": "1/2"}}),
    "corollary3_echoes_t": Case(
        ("verify", "--claim", "corollary3", "--t", "3/2", "coin.json"),
        files={"coin.json": COIN},
        fields={"reports.0.report.params": {"k": 3, "t": "3/2"}}),
    "lemma2_takes_a_second_law": Case(
        ("verify", "--claim", "lemma2", "--t", "1/2", "coin.json", "y.json"),
        files={"coin.json": COIN, "y.json": Y}, fields={
            "reports.0.file": "coin.json + y.json",
            "reports.0.report": {
                "claim_id": "lemma2", "lhs": None, "margin": None,
                "note": "empty concentration set for X, X+Y",
                "params": {"t": "1/2"}, "rhs": None, "status": "vacuous",
                "witness": None, "worst_t": "1/2"}}),
    # what the library refuses, with the flag in the parameter's place
    "lemma2_refuses_negative_t": _refused(
        ("verify", "--claim", "lemma2", "--t", "-1", "coin.json"),
        "error: t must be >= 0, got -1\n"),
    "lemma2_refuses_norm_sup": _refused(
        ("verify", "--claim", "lemma2", "--t", "1", "--norm", "sup",
         "coin.json"), "error: lemma2 does not take --norm sup\n"),
    "corollary5_needs_weights": _refused(
        ("verify", "--claim", "corollary5", "coin.json"),
        "error: corollary5 needs --weights\n"),
    "corollary5_k_is_the_weight_count": _refused(
        ("verify", "--claim", "corollary5", "--weights", "1,1", "--k", "3",
         "coin.json"),
        "error: corollary5 takes --k = 2, the number of weights, got --k=3\n"),
    "mc_corollary4_refuses_j": _refused(
        ("mc", "--claim", "corollary4", "--family", "gaussian", "--t", "1",
         "--n", "10", "--j", "2"), "error: corollary4 does not take --j\n"),
    # corpus bytes, drawn from the package's own Philox stream
    "corpus_seed7": Case(
        ("corpus", "--seed", "7", "--count", "20", "--out-dir", "out"),
        out="all hold (4536 checks); instances=20 checks=4536 violations=0 "
            "skipped=0\nwrote out/corpus.json\nwrote out/corpus.csv\n",
        wrote={"out/corpus.csv":
            "bbbce942e75e3f693aa409926fcaed80db35ddebdb6eb4d2f35f8230bc414d51"}),
    # vacuous lemma2 rows whose notes hold commas, so CSV quoting is read
    "corpus_csv_round_trip": Case(
        ("corpus", "--seed", "3", "--count", "30", "--claims",
         "lemma2,corollary3,theorem1", "--max-atoms", "2", "--max-k", "3",
         "--out-dir", "out"),
        out="all hold (464 checks); instances=30 checks=464 violations=0 "
            "skipped=0\nwrote out/corpus.json\nwrote out/corpus.csv\n",
        wrote={"out/corpus.csv":
            "3eab2cf640e1605afc59a8266c86dbfdf6c20ae966c15423c963c76ad00b4c63"}),
    # the acceptance config (seed 20260814, 500 instances, every claim;
    # about 2.5 s on a 2-core VM); its digest was recorded before the plan was laid out
    # once per run
    "corpus_acceptance_config": Case(
        ("corpus", "--seed", "20260814", "--count", "500", "--out-dir",
         "out"),
        out="all hold (113592 checks); instances=500 checks=113592 "
            "violations=0 skipped=0\nwrote out/corpus.json\n"
            "wrote out/corpus.csv\n",
        wrote={"out/corpus.csv":
            "bc2e8f22392c6a9d358c2cf972a3233ff445f2150b5f260ffdc2802e945ced42"}),
}


def _at(doc, path: str):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


@pytest.mark.parametrize("name", CASES)
def test_contract(fresh, tmp_path, name):
    case = CASES[name]
    ran = fresh(("-m", "iidtails.cli", *case.argv), case.files,
                case.optimize, tmp_path)
    assert (ran.code, ran.err) == (case.code, case.err)
    assert ran.loaded == case.loads
    if case.out is not None:
        assert ran.out == case.out
    doc = json.loads(ran.out) if case.fields or case.digits else None
    for path, want in case.fields.items():
        assert _at(doc, path) == want, path
    for path, want in case.digits.items():
        assert len(_at(doc, path).partition("/")[0]) == want, path
    for path, want in case.wrote.items():
        data = (tmp_path / path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, path
        # each file pinned is a corpus.csv, which reads back to its bytes
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        assert text.getvalue().encode() == data, path


def test_runner_passes_python_O(fresh, tmp_path):
    """The -O rows above run with asserts stripped."""
    ran = fresh(("debug.py",), {"debug.py": "print(__debug__)"}, True,
                tmp_path)
    assert (ran.code, ran.out, ran.loaded) == (0, "False\n", frozenset())
