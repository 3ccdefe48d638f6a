import hashlib
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import pytest

from iidtails.cli import main
from iidtails.dists import DiscreteDist
from iidtails.search import SoundnessViolation
from iidtails.specfile import dump_dist, save_dist
from oracles import coin, dist1d

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    save_dist(coin(), path)
    return str(path)


@pytest.fixture
def rare_file(tmp_path):
    path = tmp_path / "rare.json"
    save_dist(dist1d([(0, F(99, 100)), (1, F(1, 100))]), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out)


class TestVerify:
    def test_theorem1_holds_exit_zero(self, capsys, coin_file):
        code, out, _ = run(capsys, "verify", "--claim", "theorem1",
                           "--c1", "3", "--c2", "10", "--j", "1", "--k", "2",
                           coin_file)
        assert code == 0
        doc = last_json(out)
        assert doc["reports"][0]["report"]["status"] == "holds"
        assert doc["manifest"]["outcome"] == "all hold"
        assert coin_file in doc["manifest"]["input_digests"]

    def test_false_constants_exit_one_with_witness(self, capsys, coin_file):
        code, out, _ = run(capsys, "verify", "--claim", "theorem1",
                           "--c1", "1", "--c2", "1", "--j", "1", "--k", "2",
                           coin_file)
        assert code == 1
        rep = last_json(out)["reports"][0]["report"]
        assert rep["status"] == "violated"
        assert rep["witness"]["t"] is not None

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--claim", "theorem1",
                           str(tmp_path / "missing.json"))
        assert code == 2
        assert "error" in err

    def test_unparseable_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "atoms": [')
        code, _, err = run(capsys, "verify", "--claim", "theorem1", str(bad))
        assert code == 2
        assert "line" in err

    def test_unknown_claim_exit_two(self, capsys, coin_file):
        code, _, err = run(capsys, "verify", "--claim", "theorem2", coin_file)
        assert code == 2

    def test_bad_rational_flag_exit_two(self, capsys, coin_file):
        code, _, _ = run(capsys, "verify", "--claim", "theorem1",
                         "--c1", "0.5x", coin_file)
        assert code == 2

    def test_latala_sharp_rejects_constant_override(self, capsys, coin_file):
        code, _, err = run(capsys, "verify", "--claim", "latala_sharp",
                           "--c1", "3", coin_file)
        assert code == 2
        assert "fixed constants" in err

    def test_latala_alias(self, capsys, coin_file):
        code, out, _ = run(capsys, "verify", "--claim", "latala", coin_file)
        assert code == 0
        rep = last_json(out)["reports"][0]["report"]
        assert rep["claim_id"] == "latala_sharp"
        assert rep["margin"] == "0"

    def test_latala_alt_runs_four_reports(self, capsys, coin_file):
        code, out, _ = run(capsys, "verify", "--claim", "latala_alt",
                           coin_file)
        assert code == 0
        reports = last_json(out)["reports"]
        assert len(reports) == 4
        assert {r["report"]["claim_id"] for r in reports} == {"latala_alt"}

    def test_corollary5_needs_weights(self, capsys, coin_file):
        code, _, err = run(capsys, "verify", "--claim", "corollary5",
                           coin_file)
        assert code == 2
        assert "weights" in err
        code, out, _ = run(capsys, "verify", "--claim", "corollary5",
                           "--weights", "1,1/2", coin_file)
        assert code == 0

    @pytest.mark.parametrize("form", [("--weights", "-1,1/2"),
                                      ("--weights=-1,1/2",)])
    def test_corollary5_leading_negative_weight(self, capsys, coin_file,
                                                form):
        code, out, err = run(capsys, "verify", "--claim", "corollary5",
                             *form, coin_file)
        assert code == 0, err
        rep = last_json(out)["reports"][0]["report"]
        assert rep["params"]["alphas"] == ["-1", "1/2"]

    def test_lemma2_single_file_self_pair(self, capsys, rare_file):
        code, out, _ = run(capsys, "verify", "--claim", "lemma2",
                           "--t", "1/2", rare_file)
        assert code == 0
        doc = last_json(out)
        assert doc["reports"][0]["report"]["claim_id"] == "lemma2"

    def test_lemma2_requires_t(self, capsys, rare_file):
        code, _, err = run(capsys, "verify", "--claim", "lemma2", rare_file)
        assert code == 2
        assert "--t" in err

    def test_corollary3_requires_t(self, capsys, rare_file):
        code, _, err = run(capsys, "verify", "--claim", "corollary3",
                           rare_file)
        assert code == 2

    def test_multiple_files(self, capsys, coin_file, rare_file):
        code, out, _ = run(capsys, "verify", "--claim", "theorem1",
                           coin_file, rare_file)
        assert code == 0
        assert len(last_json(out)["reports"]) == 2

    def test_out_flag_writes_report(self, capsys, coin_file, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--claim", "theorem1",
                         "--out", str(target), coin_file)
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["manifest"]["subcommand"] == "verify"


    @pytest.mark.parametrize("claim, flags, named", [
        ("latala_sharp", ("--j", "5", "--k", "9"), "--j"),
        ("latala_sharp", ("--k", "9"), "--k"),
        ("theorem1", ("--weights", "1,1"), "--weights"),
        ("theorem1", ("--t", "3"), "--t"),
        ("levy_ottaviani", ("--j", "2"), "--j"),
        ("corollary4", ("--t", "1"), "--t"),
        ("corollary5", ("--weights", "1,1/2", "--j", "1"), "--j"),
        ("corollary5", ("--weights", "1,1/2", "--k", "3"), "--k"),
        ("corollary6", ("--weights", "1"), "--weights"),
        ("latala_alt", ("--t", "1"), "--t"),
        ("latala_alt", ("--c2", "3"), "--c2"),
        ("lemma2", ("--t", "1/2", "--k", "2"), "--k"),
        ("lemma2", ("--t", "1/2", "--c1", "2"), "--c1"),
        ("corollary3", ("--t", "1/2", "--j", "1"), "--j"),
        ("corollary3", ("--t", "1/2", "--c2", "2"), "--c2"),
    ])
    def test_rejects_flags_the_claim_does_not_take(self, capsys, coin_file,
                                                   claim, flags, named):
        code, out, err = run(capsys, "verify", "--claim", claim, *flags,
                             coin_file)
        assert code == 2 and not out
        assert named in err and claim in err

    def test_corollary5_k_restates_the_weight_count(self, capsys, coin_file):
        code, out, err = run(capsys, "verify", "--claim", "corollary5",
                             "--k", "3", "--weights", "-1,1/2,1/4", coin_file)
        assert code == 0, err
        assert last_json(out)["reports"][0]["report"]["params"]["k"] == 3


class TestManifestDigests:
    @pytest.mark.parametrize("flags", [("--claim", "theorem1"),
                                       ("--claim", "lemma2", "--t", "1/2")])
    def test_digest_is_of_the_bytes_read_from_a_fifo(self, tmp_path, flags):
        # a FIFO can be read once: re-reading it to hash it would block
        text = dump_dist(coin())
        fifo = tmp_path / "coin.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "iidtails.cli", "verify", *flags,
             str(fifo)], env=env, capture_output=True, text=True, timeout=60)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert proc.returncode == 0, proc.stderr
        digests = json.loads(proc.stdout)["manifest"]["input_digests"]
        assert digests == {str(fifo): hashlib.sha256(text.encode()).hexdigest()}


class TestReproducibility:
    def test_identical_runs_byte_identical_apart_from_wall_clock(
            self, capsys, coin_file):
        _, out1, _ = run(capsys, "verify", "--claim", "theorem1", coin_file)
        _, out2, _ = run(capsys, "verify", "--claim", "theorem1", coin_file)
        a, b = last_json(out1), last_json(out2)
        ta = a["manifest"].pop("wall_clock")
        tb = b["manifest"].pop("wall_clock")
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_search_reports_reproducible(self, capsys):
        args = ("search", "--j", "1", "--k", "2", "--c2", "2",
                "--atoms", "2", "--budget", "300", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        a, b = last_json(out1), last_json(out2)
        a["manifest"].pop("wall_clock")
        b["manifest"].pop("wall_clock")
        assert a == b


class TestCorpus:
    def test_smoke_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--seed", "7", "--count", "5",
                           "--claims", "theorem1,latala_sharp,levy",
                           "--max-k", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert "all hold" in out
        doc = json.loads((tmp_path / "corpus.json").read_text())
        assert doc["corpus"]["violated"] == 0
        assert doc["manifest"]["subcommand"] == "corpus"
        header = (tmp_path / "corpus.csv").read_text().splitlines()[0]
        assert header.startswith("instance,claim,params")

    def test_count_zero_ok(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--count", "0",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "checks=0" in out

    def test_unknown_claim_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "--count", "1",
                           "--claims", "nonsense", "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown claim" in err

    def test_bad_lattice_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "corpus", "--count", "1",
                         "--denominator", "0", "--out-dir", str(tmp_path))
        assert code == 2

    def test_json_only_toggle(self, capsys, tmp_path):
        code, _, _ = run(capsys, "corpus", "--count", "2", "--json",
                         "--claims", "theorem1", "--max-k", "2",
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "corpus.json").exists()
        assert not (tmp_path / "corpus.csv").exists()


class TestSearchCmd:
    def test_reports_ratio(self, capsys):
        code, out, _ = run(capsys, "search", "--j", "1", "--k", "2",
                           "--c2", "1", "--atoms", "2", "--budget", "500",
                           "--seed", "1")
        assert code == 0
        doc = last_json(out)
        assert "achieved_ratio" in doc["result"]
        assert doc["manifest"]["outcome"].startswith("achieved_ratio=")

    def test_guard_trips_exit_three(self, capsys, monkeypatch):
        def boom(*a, **kw):
            raise SoundnessViolation("forged")
        monkeypatch.setattr("iidtails.cli.search", boom)
        code, _, err = run(capsys, "search", "--j", "1", "--k", "2",
                           "--c2", "10", "--budget", "10")
        assert code == 3
        assert "soundness guard" in err

    def test_bad_space_exit_two(self, capsys):
        code, _, _ = run(capsys, "search", "--j", "2", "--k", "1",
                         "--c2", "1")
        assert code == 2


class TestCounterexampleCmd:
    def test_N2_verifies(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--N", "2")
        assert code == 0
        doc = last_json(out)
        assert doc["counterexample"]["M"] == 8
        assert doc["counterexample"]["refutation"]["fails"] is True
        assert doc["manifest"]["outcome"] == "counterexample verified"

    def test_cap_too_small_exit_one(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--N", "3",
                           "--cap", "100")
        assert code == 1
        doc = last_json(out)
        assert doc["counterexample"]["found"] is False
        assert doc["manifest"]["outcome"] == "no admissible M under cap"

    def test_invalid_N_exit_two(self, capsys):
        code, _, _ = run(capsys, "counterexample", "--N", "1")
        assert code == 2


class TestMcCmd:
    def test_gaussian_threshold_zero(self, capsys):
        code, out, _ = run(capsys, "mc", "--family", "gaussian", "--k", "4",
                           "--t", "0", "--n", "1000", "--seed", "1")
        assert code == 0
        doc = last_json(out)
        assert doc["estimates"][0]["estimate"]["estimate"] == 1.0

    def test_claim_check_exit_codes(self, capsys):
        code, out, _ = run(capsys, "mc", "--claim", "theorem1",
                           "--family", "two_point", "--a", "-1", "--b", "1",
                           "--p", "1/2", "--j", "1", "--k", "2",
                           "--t", "1/2", "--c1", "1", "--c2", "1",
                           "--n", "40000", "--seed", "1")
        assert code == 1
        assert last_json(out)["check"]["status"] == "violated"

    def test_discrete_needs_dist_file(self, capsys):
        code, _, err = run(capsys, "mc", "--family", "discrete", "--t", "1")
        assert code == 2
        assert "--dist" in err

    def test_discrete_from_file(self, capsys, coin_file):
        code, out, _ = run(capsys, "mc", "--family", "discrete",
                           "--dist", coin_file, "--k", "2", "--t", "1",
                           "--n", "20000", "--seed", "2")
        assert code == 0
        doc = last_json(out)
        est = doc["estimates"][0]["estimate"]
        assert abs(est["estimate"] - 0.5) < 0.02
        assert coin_file in doc["manifest"]["input_digests"]

    def test_two_point_requires_all_params(self, capsys):
        code, _, err = run(capsys, "mc", "--family", "two_point",
                           "--a", "-1", "--t", "1")
        assert code == 2


class TestShow:
    def test_prints_atoms_and_curve(self, capsys, coin_file):
        code, out, _ = run(capsys, "show", coin_file)
        assert code == 0
        assert "P(X = -1) = 1/2" in out
        assert "tail curve" in out

    def test_euclidean_notes_squared_thresholds(self, capsys, tmp_path):
        d2 = DiscreteDist({(F(3, 5), F(4, 5)): F(1)})
        path = tmp_path / "unit.json"
        save_dist(d2, path)
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0
        assert "||x||^2" in out

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "show", str(tmp_path / "nope.json"))
        assert code == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_no_subcommand_exit_two(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2
