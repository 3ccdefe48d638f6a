"""The five workloads: inputs from the seed, CLI calls, and verdict checks.

A workload is a fixed list of units built from the seed; a unit is a short
list of `iidtails` command lines, timed as one sample.  The harness runs
rounds over all units until the time is up.  After each call the workload
judges the output:

* `ops`: operations the call performed (the unit of ops_per_s);
* `content`: the call's decision content, {op key: decision}, compared
  with the stored reference for the default seed.  Decision content is
  which checks are violated plus the exact margin of every check whose
  lhs > 0; wording and layout are not compared;
* `bad`: keys of the ops that broke a seed-independent invariant.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 20260814

# exact strings longer than this are compared through a digest, so the
# reference file stays small (margins of S_k at large k run to hundreds
# of digits)
_LONG = 64


def exact(value):
    """Canonical form of an exact value for the reference."""
    if value is None:
        return None
    text = str(value)
    if len(text) <= _LONG:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Call:
    key: str
    argv: "tuple[str, ...]"
    expect_exit: int


@dataclass
class Outcome:
    ops: int
    content: dict
    bad: set
    problems: "list[str]" = field(default_factory=list)


def _positive(text) -> bool:
    return text not in (None, "") and Fraction(text) > 0


def _write_dist(path: Path, atoms: dict, dim: int) -> None:
    doc = {"dim": dim, "atoms": [
        {"x": [str(c) for c in pt], "p": str(p)}
        for pt, p in sorted(atoms.items())]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _probabilities(rng: random.Random, n: int, total: int) -> "list[Fraction]":
    """n positive masses w_i/total with sum 1 (a random composition)."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    bounds = [0] + cuts + [total]
    return [Fraction(b - a, total) for a, b in zip(bounds, bounds[1:])]


# --- corpus workloads ----------------------------------------------------

class CorpusWorkload:
    """`iidtails corpus` on the acceptance law generator, fixed inputs.

    The units are small corpora at generator seeds DEFAULT_SEED + i.  The
    workload seed is recorded and ignored: an instance's cost grows steeply
    with its atom count and spread, so random corpora that fit in one run
    differ in checks per second by up to 2x between seeds, far beyond any
    useful regression bound.
    """

    probe = "small_fractions"   # run.PROBES kernel of the same mix
    seeded = False
    ARGS = ("--max-atoms", "5", "--num-range", "8", "--denominator", "4")

    def __init__(self, name, claims, calls, per_call, max_k):
        self.name = name
        self.claims = claims
        self.calls = calls
        self.per_call = per_call
        self.max_k = max_k

    def sizes(self) -> dict:
        return {"calls": self.calls, "count_per_call": self.per_call,
                "generator_seeds": f"{DEFAULT_SEED}+i", "max_k": self.max_k,
                "max_atoms": 5, "num_range": 8, "denominator": 4,
                "claims": self.claims}

    def prepare(self, workdir: Path, seed: int) -> "list[list[Call]]":
        units = []
        for i in range(self.calls):
            key = f"corpus-{i:02d}"
            (workdir / key).mkdir(parents=True, exist_ok=True)
            argv = ("corpus", "--seed", str(DEFAULT_SEED + i),
                    "--count", str(self.per_call), "--claims", self.claims,
                    *self.ARGS, "--max-k", str(self.max_k),
                    "--out-dir", str(workdir / key))
            units.append([Call(key, argv, 0)])
        return units

    def judge(self, call: Call, stdout: str, workdir: Path) -> Outcome:
        out = workdir / call.key
        doc = json.loads((out / "corpus.json").read_text())["corpus"]
        content = {}
        bad = {f"skipped {s['instance']}" for s in doc["skipped"]}
        with open(out / "corpus.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                params = json.dumps(json.loads(row["params"]),
                                    sort_keys=True)
                key = f"{row['instance']}|{row['claim']}|{params}"
                violated = row["status"] == "violated"
                if violated:
                    bad.add(key)
                margin = exact(row["margin"]) if _positive(row["lhs"]) \
                    else None
                content[key] = [violated, margin]
        problems = [f"{call.key}: {len(bad)} checks violated or instances "
                    "skipped"] if bad else []
        if doc["total_checks"] != len(content):
            bad.add("corpus.json")
            problems.append(f"{call.key}: corpus.json and corpus.csv "
                            "disagree")
        return Outcome(len(content) + len(doc["skipped"]), content, bad,
                       problems)


# --- verify_wide ---------------------------------------------------------

class VerifyWideWorkload:
    """`iidtails verify` on large-support laws whose masses come from the
    seed."""

    name = "verify_wide"
    probe = "large_fractions"   # run.PROBES kernel of the same mix
    seeded = True
    # atom positions are fixed so that every seed convolves supports of the
    # same size; the seed draws the masses.  1-D: 7 atoms in [-2, 2] with
    # denominators 2, 3, 4 and 6, so every S_k lives on the 1/12 lattice
    POINTS_1D = ("-2", "-5/4", "-2/3", "1/6", "3/4", "3/2", "2")
    # 2-D: 6 integer atoms including the four axis extremes
    POINTS_2D = ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, 2))

    K_1D = 10          # theorem1 at j=6, k=K_1D; corollary6 at j=K_1D, k=6
    K_2D = 10          # theorem1 at j=3, k=K_2D under the euclidean norm
    # corollary5 weights, |alpha_i| <= 1
    WEIGHTS = ("-1", "1", "1/2", "-1", "1/4", "1", "-1/2", "1/4")

    def sizes(self) -> dict:
        return {"points_1d": list(self.POINTS_1D),
                "points_2d": [list(pt) for pt in self.POINTS_2D],
                "mass_denominator": 61, "k_1d": self.K_1D, "k_2d": self.K_2D,
                "weights": list(self.WEIGHTS)}

    @staticmethod
    def masses(rng: random.Random, n: int) -> "list[Fraction]":
        """n masses w/61 (61 is prime, so every mass has the same
        denominator whatever the seed)."""
        return _probabilities(rng, n, 61)

    def prepare(self, workdir: Path, seed: int) -> "list[list[Call]]":
        rng = random.Random(f"verify_wide:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        one, two = workdir / "law_1d.json", workdir / "law_2d.json"
        _write_dist(one, {(Fraction(x),): p for x, p in zip(
            self.POINTS_1D, self.masses(rng, len(self.POINTS_1D)))}, 1)
        _write_dist(two, {tuple(map(Fraction, pt)): p for pt, p in zip(
            self.POINTS_2D, self.masses(rng, len(self.POINTS_2D)))}, 2)
        weights = ",".join(self.WEIGHTS)
        k1, k2 = str(self.K_1D), str(self.K_2D)
        return [[call] for call in (
            Call("theorem1_1d", ("verify", "--claim", "theorem1", "--j", "6",
                                 "--k", k1, str(one)), 0),
            Call("corollary6_1d", ("verify", "--claim", "corollary6",
                                   "--j", k1, "--k", "6", str(one)), 0),
            # "--weights=" form: a list that starts with "-" would
            # otherwise parse as an option
            Call("corollary5_1d", ("verify", "--claim", "corollary5",
                                   f"--weights={weights}", str(one)), 0),
            Call("theorem1_2d", ("verify", "--claim", "theorem1", "--j", "3",
                                 "--k", k2, "--norm", "euclidean",
                                 str(two)), 0),
        )]

    def judge(self, call: Call, stdout: str, workdir: Path) -> Outcome:
        reports = [r["report"] for r in json.loads(stdout)["reports"]]
        content = {}
        bad = set()
        for i, rep in enumerate(reports):
            key = f"{call.key}#{i}"
            if rep["status"] != "holds":
                bad.add(key)
            margin = exact(rep["margin"]) if _positive(rep["lhs"]) else None
            content[key] = [rep["status"] == "violated", margin]
        problems = [f"{call.key}: {len(bad)} reports do not hold"] \
            if bad else []
        return Outcome(len(reports), content, bad, problems)


# --- search_extremal -----------------------------------------------------

def _law_sum(atoms: dict, n: int) -> dict:
    out = {Fraction(0): Fraction(1)}
    for _ in range(n):
        nxt = {}
        for s, p in out.items():
            for x, q in atoms.items():
                nxt[s + x] = nxt.get(s + x, 0) + p * q
        out = nxt
    return out


def ratio_oracle(atoms: dict, j: int, k: int, c2: Fraction):
    """sup_{t>0} P(|S_j| > t) / P(|S_k| > t/c2) for a 1-D law, by brute
    force; independent of iidtails.  Returns a Fraction or "inf"."""
    lhs, rhs = _law_sum(atoms, j), _law_sum(atoms, k)
    jumps = {abs(s) for s in lhs} | {c2 * abs(s) for s in rhs}
    pos = sorted(q for q in jumps if q > 0)
    best = Fraction(0)
    # both sides are constant on [q, next q) and on (0, first q)
    for t in ([pos[0] / 2] + pos) if pos else [Fraction(1)]:
        num = sum((p for s, p in lhs.items() if abs(s) > t), Fraction(0))
        if num == 0:
            continue
        den = sum((p for s, p in rhs.items() if abs(s) > t / c2),
                  Fraction(0))
        if den == 0:
            return "inf"
        best = max(best, num / den)
    return best


class SearchWorkload:
    """`iidtails search` at fixed budgets; the seed drives the optimizer.

    The cost of an evaluation depends on the laws a trajectory visits, so
    a run spreads its budget over many short searches with independent
    seeds rather than one long one."""

    name = "search_extremal"
    probe = "small_fractions"   # run.PROBES kernel of the same mix
    seeded = True
    # (atoms, j, k, c2, budget, searches): criterion 3's space, then one
    # with c2 >= 10 so the soundness guard applies
    SPACES = ((3, 1, 2, "1", 300, 5), (4, 2, 4, "10", 80, 3))

    def sizes(self) -> dict:
        keys = ("atoms", "j", "k", "c2", "budget", "searches")
        return {"spaces": [dict(zip(keys, s)) for s in self.SPACES]}

    def prepare(self, workdir: Path, seed: int) -> "list[list[Call]]":
        units = []
        for atoms, j, k, c2, budget, searches in self.SPACES:
            for _ in range(searches):
                i = len(units)
                argv = ("search", "--atoms", str(atoms), "--j", str(j),
                        "--k", str(k), "--c2", c2, "--budget", str(budget),
                        "--seed", str(seed * 100 + i))
                units.append([Call(f"search-{i}", argv, 0)])
        return units

    def judge(self, call: Call, stdout: str, workdir: Path) -> Outcome:
        res = json.loads(stdout)["result"]
        argv = call.argv
        j = int(argv[argv.index("--j") + 1])
        k = int(argv[argv.index("--k") + 1])
        c2 = Fraction(argv[argv.index("--c2") + 1])
        atoms = {Fraction(a["x"][0]): Fraction(a["p"])
                 for a in res["best_dist"]["atoms"]}
        rescored = str(ratio_oracle(atoms, j, k, c2))
        problems = []
        if rescored != res["achieved_ratio"]:
            problems.append(f"achieved_ratio {res['achieved_ratio']} but "
                            f"re-scored {rescored}")
        content = {call.key: [exact(res["achieved_ratio"]),
                              res["evaluations"]]}
        bad = {call.key} if problems else set()
        return Outcome(res["evaluations"], content, bad, problems)


# --- counterexample_scan -------------------------------------------------

class CounterexampleWorkload:
    """`iidtails counterexample`; no randomness, the seed is ignored."""

    name = "counterexample_scan"
    probe = "big_integers"      # run.PROBES kernel of the same mix
    seeded = False
    CAP_10 = 15_000

    def sizes(self) -> dict:
        return {"N": [10, 3, 2], "cap_N10": self.CAP_10}

    def prepare(self, workdir: Path, seed: int) -> "list[list[Call]]":
        return [[call] for call in (
            Call("N10", ("counterexample", "--N", "10",
                         "--cap", str(self.CAP_10)), 1),
            Call("N3", ("counterexample", "--N", "3"), 0),
            Call("N2", ("counterexample", "--N", "2"), 0),
        )]

    def judge(self, call: Call, stdout: str, workdir: Path) -> Outcome:
        rep = json.loads(stdout)["counterexample"]
        ref = rep["refutation"] or {}
        verified = bool(rep["centered_holds"] and rep["extended_holds"]
                        and ref.get("fails"))
        if call.key == "N10":
            ok = rep["found"] is False
        elif call.key == "N3":
            ok = rep["M"] == 4437 and verified
        else:
            ok = (rep["M"] == 8 and rep["admissible_tail"] == "37/128"
                  and verified)
        content = {call.key: [rep["found"], rep["M"],
                              exact(rep["admissible_tail"]),
                              rep["centered_holds"], rep["extended_holds"],
                              ref.get("fails")]}
        if ok:
            return Outcome(1, content, set())
        return Outcome(1, content, {call.key},
                       [f"{call.key}: unexpected outcome"])


WORKLOADS = {w.name: w for w in (
    CorpusWorkload("corpus_sums",
                   "theorem1,latala_sharp,corollary5,corollary6,lemma2,"
                   "corollary3", calls=10, per_call=3, max_k=6),
    CorpusWorkload("corpus_maxima", "levy_ottaviani,corollary4",
                   calls=6, per_call=3, max_k=8),
    VerifyWideWorkload(),
    SearchWorkload(),
    CounterexampleWorkload(),
)}
