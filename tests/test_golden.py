"""Golden bytes: sha256 of corpus artifacts, verify and counterexample
reports.

The digests pin every verdict, margin, witness, parameter echo and note the
CLI and the corpus runner emit on fixed inputs, so a refactor of the claim
dispatch must reproduce them byte for byte.  Manifests (wall clock, echoed
paths) are excluded.  To see what changed after a deliberate change, run
`PYTHONPATH=src python tests/test_golden.py`, which prints the current
digests and marks those that differ.
"""

import csv
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from iidtails.cli import main
from iidtails.corpus import CorpusConfig, run_corpus, write_csv
from iidtails.dists import DiscreteDist, Norm
from iidtails.specfile import save_dist
from oracles import dist1d

CORPUS_ARGS = ("corpus", "--seed", "7", "--count", "20", "--max-k", "4",
               "--dims", "1,2", "--norms", "abs1d,sup,euclidean")

# running-max claims under a small support cap: seven instances pass it and
# are skipped whole, so the digests pin that a skipped instance gives no row
CAPPED_ARGS = ("corpus", "--seed", "7", "--count", "20", "--max-k", "6",
               "--dims", "1,2", "--norms", "abs1d,sup,euclidean",
               "--claims", "levy_ottaviani,corollary4", "--cap", "150")

# the same corpus with theorem1 beside corollary4: the running max and S_k
# share one pass, so these digests pin that a state cap hit by the running
# max skips the instance's theorem1 rows too, as verify reports a claim
# all or nothing
CAPPED_MIXED_ARGS = CAPPED_ARGS[:-4] + ("--claims", "theorem1,corollary4",
                                        "--cap", "150")

# all nine claims over dims 1 and 2 and every norm, three drawn weight
# vectors per instance: corollary5's draws sit between index claims in the
# plan, so these digests pin that every Philox draw keeps its place
MIXED_ARGS = ("corpus", "--seed", "11", "--count", "12", "--max-k", "4",
              "--dims", "1,2", "--norms", "abs1d,sup,euclidean",
              "--weight-vectors", "3")
MIXED_CONFIG = CorpusConfig(seed=11, count=12, max_k=4, dims=(1, 2),
                            norms=tuple(Norm), weight_vectors=3)
MIXED_OVERRIDES = {"theorem1": {"c1": 1, "c2": 1},
                   "corollary5": {"c1": 1, "c2": 1}}

LAW_1D = dist1d([(-1, F(1, 4)), (F(1, 2), F(1, 4)), (2, F(1, 2))])
LAW_2D = DiscreteDist({(F(0), F(1)): F(1, 3), (F(1), F(-1)): F(1, 6),
                       (F(-2), F(0)): F(1, 2)})

# `counterexample` runs: a scan with no hit under its cap (N = 10), scans that
# find M (N = 3, N = 2), an explicit M and a cap just above N^3
COUNTEREXAMPLE_CASES = (
    ("N10_cap15000", ("--N", "10", "--cap", "15000")),
    ("N3", ("--N", "3")),
    ("N2", ("--N", "2")),
    ("N2_M5", ("--N", "2", "--M", "5")),
    ("N4_cap64", ("--N", "4", "--cap", "64")),
)

# (case name, verify flags, laws it runs on); every --claim value appears
VERIFY_CASES = (
    ("theorem1", ("--claim", "theorem1", "--j", "1", "--k", "3"), "12"),
    ("theorem1_false", ("--claim", "theorem1", "--c1", "1", "--c2", "1"),
     "12"),
    ("theorem1_mixed", ("--claim", "theorem1", "--lhs-mode", "weak",
                        "--rhs-mode", "strict"), "12"),
    ("levy_ottaviani", ("--claim", "levy_ottaviani", "--k", "3"), "12"),
    ("levy", ("--claim", "levy",), "12"),
    ("corollary4", ("--claim", "corollary4", "--k", "3"), "12"),
    ("corollary5", ("--claim", "corollary5", "--weights=-1,1/2,1/4"), "12"),
    ("corollary6", ("--claim", "corollary6", "--j", "3", "--k", "2"), "12"),
    ("latala_sharp", ("--claim", "latala_sharp",), "12"),
    ("latala", ("--claim", "latala", "--lhs-mode", "weak"), "12"),
    ("latala_alt", ("--claim", "latala_alt", "--j", "2", "--k", "3"), "12"),
    ("lemma2", ("--claim", "lemma2", "--t", "1/2"), "1"),
    ("corollary3", ("--claim", "corollary3", "--k", "3", "--t", "3/2"), "1"),
)

GOLDEN = {
    "corpus.csv":
        "682f65127f7b1f70a01490294df9bbae137446a48582a2c20bdd5c4c31088628",
    "corpus.json":
        "6920a74fc7b972f40ab28dc1a746a54c2eb70ecf1596c06c14ad164e2ec83209",
    "capped.csv":
        "ab32660dc3be242c88301e1f2b4f2d25819b8d44c68ac0ad1c369a8bcd505926",
    "capped.json":
        "877e0063205bafaf67d0e5f93a8e248bc6e888d8c1ec74572352f16f56d7aee2",
    "capped_mixed.csv":
        "6990e2fc8402aa717bd9af4fd2ab35e5db88d09cfb38b4156359ce144b2b1475",
    "capped_mixed.json":
        "2860213315235558ad6cdca054e02c3704431131ed34e599cccef4e73812d42d",
    "overrides":
        "1b69cd5ae4e84766c03f790529988013fe389700aa33954383334bbb230d6014",
    "overrides.csv":
        "34c208c249670fc2be3856e7219635b79c9519cbe83fda7418c4b0ff59ce9564",
    "mixed.csv":
        "1133413e5afd1a9a06377b69340546bf68ac6c644b7c37e888f912b34a0a38f8",
    "mixed.json":
        "e4b1842eb455e9ae85863b821c9479799695e078e886840458bbb50c0d1dc5ab",
    "mixed_overrides":
        "f746c5fb91d793a10b4e6a7bb259e75972e72050064ad408dd8b532ba2ec138e",
    "mixed_overrides.csv":
        "900217fe5865e86db94f2dd7855963b42f97f790f35127f9664ca7320fb46ad6",
    "verify:theorem1":
        "388a428a32efe968170de1011004825fd71fa944f35d74a0fa2778575361702b",
    "verify:theorem1_false":
        "230f10caab89784f3eeda444580c232a0d21c0de0fe26fe219fae2566b0c5c24",
    "verify:theorem1_mixed":
        "573d0b51c0034aa7c065c7c463618359dcc1c95f4189c0099941969c08e03c20",
    "verify:levy_ottaviani":
        "61ec1968434fd2bfb8c9e762b77e6eb6cd07c9a41d11820cff11c3604475eb9d",
    "verify:levy":
        "cfad3b246155a9e9c34a557c9e456cc32af9303bfbf5d22f3ac658163a8fd65b",
    "verify:corollary4":
        "4b6c4093e09ea26ca0d8638d16e0b2d79cf979018504b8674eb39fb8730f6432",
    "verify:corollary5":
        "a9b9a76a5b00571cba5e307ccec3a707a41ba3c74f43688041f2ba50155ceca4",
    "verify:corollary6":
        "64ed2fec343ad36b27326109dd7c0d32083d5283665a07754144104a11fbde73",
    "verify:latala_sharp":
        "95426cab71361b9a96251654e65ff788cb23063c77a15d711e78f522708329be",
    "verify:latala":
        "f8cbe16db1317e048268e7b57a8955ebb8b869b379ebfca67a58eb5e97518cfb",
    "verify:latala_alt":
        "5e784d95827c9883b8cd67661c8688e6ab042e4f1d89c4d3b47b478bd172aaf5",
    "verify:lemma2":
        "3c2638893306cd88e6340019a83c97c07632bda941b3cf6a3ef1168e7eefc433",
    "verify:corollary3":
        "6e6545334ff161a1504abbe0ede928f0c00a9e0167fb263af53f2dd153966a37",
    "counterexample:N10_cap15000":
        "83309ccfd8212c0bb9fba2f9fd9d62ab6262ac8a55dfcec7457c0a164a5b1de0",
    "counterexample:N3":
        "b4f70a19b2fe5f404ef77bef4ee03f237b240a8309e47faae5464759430ca956",
    "counterexample:N2":
        "1b69d32d37835fa7d760946e7d201b709d5fd485eed9f0211a8c9e121dcb91a8",
    "counterexample:N2_M5":
        "b7e5105e9558da61b60793c964878bcd2787968a615df35305cb378db82945c7",
    "counterexample:N4_cap64":
        "4bba3827ff236f8a72d4746ec1212c376e376accef2fa09ea2a64b9e6b9a3b62",
    "sums:corollary3":
        "7a13b21c6614c5304ca0321269a36499ba9c2daa54bd738791c03d1c4f199ce4",
    "sums:theorem1,corollary3":
        "f0070ac524064f768c9ad1d7c50e4b4e88a286fa557caf3401c05dcc18175eb5",
    "sums:theorem1,lemma2,corollary3":
        "0a2f96ef9f885920b5df7b490082bb90acadfae536ac5c04b5bb1852dc0c4c32",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _quiet_main(argv):
    """Run the CLI with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def corpus_digests(workdir: Path, args=CORPUS_ARGS,
                   prefix: str = "corpus") -> dict:
    code, _ = _quiet_main(args + ("--out-dir", str(workdir)))
    assert code == 0
    doc = json.loads((workdir / "corpus.json").read_text())
    return {f"{prefix}.csv": _sha((workdir / "corpus.csv").read_bytes()),
            f"{prefix}.json": _sha(_canonical(doc["corpus"]))}


def sums_corpus(claims: str) -> "tuple[str, int]":
    """(digest of the report and rows, walks of S_1, S_2, ... built) of a
    corpus of 30 one-dimensional instances at max_k 6 on the claims."""
    from iidtails import dists
    walks = []
    build = dists._Walk.__init__

    def counted(self, *args):
        walks.append(self)
        build(self, *args)

    dists._Walk.__init__ = counted
    try:
        rep = run_corpus(CorpusConfig(seed=20260814, count=30, max_k=6),
                         claims.split(","))
    finally:
        dists._Walk.__init__ = build
    return (_sha(_canonical({"report": rep.to_jsonable(),
                             "rows": rep.rows})), len(walks))


def overrides_digests(workdir: Path) -> dict:
    """Digests of the report and of the CSV of theorem1 at c1 = c2 = 1: the
    one golden corpus whose rows hold negative margins."""
    rep = run_corpus(CorpusConfig(seed=7, count=10, max_k=3), ["theorem1"],
                     overrides={"theorem1": {"c1": 1, "c2": 1}})
    assert rep.violated > 0
    write_csv(rep, workdir / "overrides.csv")
    return {"overrides": _sha(_canonical(rep.to_jsonable())),
            "overrides.csv": _sha((workdir / "overrides.csv").read_bytes())}


def mixed_overrides_digests(workdir: Path) -> dict:
    """Digests of the report and of the CSV of the mixed corpus with
    theorem1 and corollary5 at c1 = c2 = 1."""
    rep = run_corpus(MIXED_CONFIG, overrides=MIXED_OVERRIDES)
    assert rep.violated > 0
    write_csv(rep, workdir / "mixed_overrides.csv")
    return {"mixed_overrides": _sha(_canonical(rep.to_jsonable())),
            "mixed_overrides.csv":
                _sha((workdir / "mixed_overrides.csv").read_bytes())}


def law_files(workdir: Path) -> dict:
    files = {"1": workdir / "law_1d.json", "2": workdir / "law_2d.json"}
    save_dist(LAW_1D, files["1"])
    save_dist(LAW_2D, files["2"])
    return files


def verify_digest(files: dict, flags, dims: str) -> str:
    """Digest of the `reports` of `verify FLAGS FILE` over the given laws."""
    reports = []
    for dim in dims:
        code, stdout = _quiet_main(("verify",) + flags + (str(files[dim]),))
        assert code in (0, 1), (flags, dim)
        for entry in json.loads(stdout)["reports"]:
            reports.append({"dim": dim, "report": entry["report"]})
    return _sha(_canonical(reports))


def counterexample_digest(flags) -> str:
    """Digest of exit code, outcome and report of `counterexample FLAGS`
    (the rest of the manifest echoes the run, not the result)."""
    code, stdout = _quiet_main(("counterexample",) + flags)
    doc = json.loads(stdout)
    return _sha(_canonical({"exit": code,
                            "outcome": doc["manifest"]["outcome"],
                            "counterexample": doc["counterexample"]}))


def all_digests(workdir: Path) -> dict:
    out = corpus_digests(workdir)
    out.update(corpus_digests(workdir, CAPPED_ARGS, "capped"))
    out.update(corpus_digests(workdir, CAPPED_MIXED_ARGS, "capped_mixed"))
    out.update(overrides_digests(workdir))
    out.update(corpus_digests(workdir, MIXED_ARGS, "mixed"))
    out.update(mixed_overrides_digests(workdir))
    files = law_files(workdir)
    for name, flags, dims in VERIFY_CASES:
        out[f"verify:{name}"] = verify_digest(files, flags, dims)
    for name, flags in COUNTEREXAMPLE_CASES:
        out[f"counterexample:{name}"] = counterexample_digest(flags)
    for claims in ("corollary3", "theorem1,corollary3",
                   "theorem1,lemma2,corollary3"):
        out[f"sums:{claims}"] = sums_corpus(claims)[0]
    return out


def test_corpus_bytes(tmp_path):
    got = corpus_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_capped_corpus_bytes(tmp_path):
    got = corpus_digests(tmp_path, CAPPED_ARGS, "capped")
    assert got == {k: GOLDEN[k] for k in got}
    doc = json.loads((tmp_path / "corpus.json").read_text())["corpus"]
    assert (doc["total_checks"], len(doc["skipped"])) == (312, 7)
    with open(tmp_path / "corpus.csv", newline="", encoding="utf-8") as fh:
        kept = {int(row["instance"]) for row in csv.DictReader(fh)}
    assert kept.isdisjoint(s["instance"] for s in doc["skipped"])


def test_capped_mixed_corpus_bytes(tmp_path):
    got = corpus_digests(tmp_path, CAPPED_MIXED_ARGS, "capped_mixed")
    assert got == {k: GOLDEN[k] for k in got}
    doc = json.loads((tmp_path / "corpus.json").read_text())["corpus"]
    assert (doc["total_checks"], len(doc["skipped"])) == (702, 7)


def test_each_check_is_tallied_once_by_status(tmp_path):
    """holds + violated + vacuous is the sum of the per_claim counts and the
    number of rows, on the capped corpus (seven instances skipped) and on
    a corpus with violated and vacuous rows."""
    statuses = ("holds", "violated", "vacuous")
    corpus_digests(tmp_path, CAPPED_MIXED_ARGS, "capped_mixed")
    doc = json.loads((tmp_path / "corpus.json").read_text())["corpus"]
    with open(tmp_path / "corpus.csv", newline="", encoding="utf-8") as fh:
        capped = (doc, list(csv.DictReader(fh)))
    rep = run_corpus(CorpusConfig(seed=7, count=10, max_k=3),
                     ["theorem1", "corollary3"],
                     overrides={"theorem1": {"c1": 1, "c2": 1}})
    for doc, rows in (capped, (rep.to_jsonable(), rep.rows)):
        per_claim = doc["per_claim"].values()
        assert sum(doc[s] for s in statuses) == doc["total_checks"] \
            == sum(c["checks"] for c in per_claim) == len(rows)
        for s in statuses:
            assert doc[s] == sum(c[s] for c in per_claim) \
                == sum(row["status"] == s for row in rows)
    assert rep.violated and rep.vacuous and rep.holds


def test_mixed_corpus_bytes(tmp_path):
    """Every claim over dims 1 and 2, every norm and three weight vectors,
    as the CLI writes it and, with false constants, as run_corpus and
    write_csv give it."""
    got = corpus_digests(tmp_path, MIXED_ARGS, "mixed")
    got.update(mixed_overrides_digests(tmp_path))
    assert got == {k: GOLDEN[k] for k in got}


def test_corpus_override_violations(tmp_path):
    got = overrides_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


@pytest.mark.parametrize("name, flags, dims", VERIFY_CASES,
                         ids=[case[0] for case in VERIFY_CASES])
def test_verify_reports(tmp_path, name, flags, dims):
    assert verify_digest(law_files(tmp_path), flags, dims) == \
        GOLDEN[f"verify:{name}"]


@pytest.mark.parametrize("name, flags", COUNTEREXAMPLE_CASES,
                         ids=[case[0] for case in COUNTEREXAMPLE_CASES])
def test_counterexample_reports(name, flags):
    assert counterexample_digest(flags) == GOLDEN[f"counterexample:{name}"]


@pytest.mark.parametrize("claims, walks", [
    ("corollary3", 30), ("theorem1,corollary3", 30),
    ("theorem1,lemma2,corollary3", 30)])
def test_corollary3_reads_the_instance_sums(claims, walks):
    """corollary3 reads S_1..S_k, and lemma2 with Y = X reads S_1 and S_2,
    from the instance's walk: one walk per instance, whatever other claims
    read from it, not one per threshold."""
    digest, built = sums_corpus(claims)
    assert digest == GOLDEN[f"sums:{claims}"]
    assert built <= walks


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in all_digests(Path(tmp)).items():
            mark = "" if GOLDEN.get(key) == value else "   <- differs"
            print(f'    "{key}": "{value}",{mark}')
    sys.exit(0)
