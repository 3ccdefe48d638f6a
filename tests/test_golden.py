"""Golden bytes: sha256 of corpus artifacts and verify reports.

The digests pin every verdict, margin, witness, parameter echo and note the
CLI and the corpus runner emit on fixed inputs, so a refactor of the claim
dispatch must reproduce them byte for byte.  Manifests (wall clock, echoed
paths) are excluded.  To see what changed after a deliberate change, run
`PYTHONPATH=src python tests/test_golden.py`, which prints the current
digests and marks those that differ.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from iidtails.cli import main
from iidtails.corpus import CorpusConfig, run_corpus
from iidtails.dists import DiscreteDist
from iidtails.specfile import save_dist
from oracles import dist1d

CORPUS_ARGS = ("corpus", "--seed", "7", "--count", "20", "--max-k", "4",
               "--dims", "1,2", "--norms", "abs1d,sup,euclidean")

LAW_1D = dist1d([(-1, F(1, 4)), (F(1, 2), F(1, 4)), (2, F(1, 2))])
LAW_2D = DiscreteDist({(F(0), F(1)): F(1, 3), (F(1), F(-1)): F(1, 6),
                       (F(-2), F(0)): F(1, 2)})

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
    "overrides":
        "1b69cd5ae4e84766c03f790529988013fe389700aa33954383334bbb230d6014",
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


def corpus_digests(workdir: Path) -> dict:
    code, _ = _quiet_main(CORPUS_ARGS + ("--out-dir", str(workdir)))
    assert code == 0
    doc = json.loads((workdir / "corpus.json").read_text())
    return {"corpus.csv": _sha((workdir / "corpus.csv").read_bytes()),
            "corpus.json": _sha(_canonical(doc["corpus"]))}


def overrides_digest() -> str:
    rep = run_corpus(CorpusConfig(seed=7, count=10, max_k=3), ["theorem1"],
                     overrides={"theorem1": {"c1": 1, "c2": 1}})
    assert rep.violated > 0
    return _sha(_canonical(rep.to_jsonable()))


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


def all_digests(workdir: Path) -> dict:
    out = corpus_digests(workdir)
    out["overrides"] = overrides_digest()
    files = law_files(workdir)
    for name, flags, dims in VERIFY_CASES:
        out[f"verify:{name}"] = verify_digest(files, flags, dims)
    return out


def test_corpus_bytes(tmp_path):
    got = corpus_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_corpus_override_violations():
    assert overrides_digest() == GOLDEN["overrides"]


@pytest.mark.parametrize("name, flags, dims", VERIFY_CASES,
                         ids=[case[0] for case in VERIFY_CASES])
def test_verify_reports(tmp_path, name, flags, dims):
    assert verify_digest(law_files(tmp_path), flags, dims) == \
        GOLDEN[f"verify:{name}"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in all_digests(Path(tmp)).items():
            mark = "" if GOLDEN.get(key) == value else "   <- differs"
            print(f'    "{key}": "{value}",{mark}')
    sys.exit(0)
