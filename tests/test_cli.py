import hashlib
import json
import os
import threading
from decimal import Decimal
from fractions import Fraction as F

import pytest

from iidtails import checks
from iidtails.cli import build_parser, main
from iidtails.concentration import check_corollary3, check_lemma2
from iidtails.counterexample import verify_counterexample
from iidtails.dists import DiscreteDist, Norm, iid_sum, tail
from iidtails.montecarlo import MC_CLAIMS, SamplerSpec, mc_check
from iidtails.reports import jsonify
from iidtails.search import SoundnessViolation
from iidtails.specfile import dump_dist, save_dist
from oracles import coin, dist1d


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


# the flag of each parameter the library may refuse, in verify and mc
FLAG = {"j": "--j", "k": "--k", "t": "--t", "alphas": "--weights",
        "c1": "--c1", "c2": "--c2", "norm": "--norm",
        "lhs_mode": "--lhs-mode", "rhs_mode": "--rhs-mode"}
# each verify input, alone: (flag, its text, the library's name, value)
INPUTS = [("--j", "2", "j", 2), ("--k", "3", "k", 3),
          ("--t", "1/2", "t", F(1, 2)),
          ("--weights", "1,-1/2", "alphas", [F(1), F(-1, 2)]),
          ("--c1", "5", "c1", F(5)), ("--c2", "7", "c2", F(7)),
          ("--norm", "sup", "norm", Norm.SUP),
          ("--norm", "abs1d", "norm", Norm.ABS1D),
          ("--lhs-mode", "weak", "lhs_mode", "weak"),
          ("--rhs-mode", "strict", "rhs_mode", "strict")]
# the input each claim needs, where it has no default
NEEDS = {"corollary5": INPUTS[3], "lemma2": INPUTS[2],
         "corollary3": INPUTS[2]}


def judged_alike(want, code: int, out: str, err: str) -> bool:
    """Whether a run of verify or mc was judged as the library judged it,
    want being its result or the ValueError it raised: Refused exits 2
    with its template, the flag in the name's place, and any other
    ValueError as is.  True when the library refused nothing, and the
    run exited 0 or 1 with no error; the caller compares the output."""
    if isinstance(want, checks.Refused):
        assert want.name in FLAG and (code, out) == (2, "")
        assert err == "error: " + want.template.replace(
            "{name}", FLAG[want.name]) + "\n"
        return False
    if isinstance(want, ValueError):
        assert (code, out, err) == (2, "", f"error: {want}\n")
        return False
    assert code in (0, 1) and not err, err
    return True


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

    def test_support_cap_exit_two(self, capsys, coin_file):
        code, _, err = run(capsys, "verify", "--claim", "theorem1", "--cap",
                           "2", str(coin_file))
        assert code == 2
        assert err.strip() == "error: support size 3 exceeds cap 2"

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

    @pytest.mark.parametrize("weights, position", [
        ("1,,1/2", 2), ("1,1/2,", 3), (",1", 1), ("", 1)])
    def test_empty_weight_entry_exit_two(self, capsys, coin_file, weights,
                                         position):
        code, out, err = run(capsys, "verify", "--claim", "corollary5",
                             f"--weights={weights}", coin_file)
        assert code == 2 and out == ""
        assert "--weights" in err
        assert f"empty entry at position {position}" in err

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

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_corollary3_needs_a_positive_k(self, capsys, rare_file, k):
        code, out, err = run(capsys, "verify", "--claim", "corollary3",
                             "--k", k, "--t", "1", rare_file)
        assert code == 2 and not out
        assert err.strip() == f"error: need k >= 1, got j=None, k={k}"

    def test_lemma2_reads_the_instance_sums_or_a_second_law(
            self, capsys, coin_file, rare_file):
        """One file pairs X with itself from the instance's walk; two files
        check X against Y; both agree with check_lemma2."""
        from iidtails import check_lemma2
        from iidtails.reports import jsonify
        x, y = coin(), dist1d([(0, F(99, 100)), (1, F(1, 100))])
        t = F(1, 2)
        for files, want, empty in (
                ((coin_file,), check_lemma2(x, x, t), "X, Y, X+Y"),
                ((coin_file, rare_file), check_lemma2(x, y, t), "X, X+Y")):
            code, out, _ = run(capsys, "verify", "--claim", "lemma2",
                               "--t", str(t), *files)
            assert code == 0
            rep = last_json(out)["reports"][0]["report"]
            assert rep == jsonify(want.to_jsonable())
            assert rep["note"].endswith(empty)

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

    def test_a_claim_takes_the_indices_it_fixes(self, capsys, coin_file):
        """latala_sharp takes --j 1 --k 2, the indices it fixes, by the
        library's rule (checks._indices): verify's report is the one without
        them, and mc takes --j 1 but not --j 2."""
        reports = []
        for flags in ((), ("--j", "1", "--k", "2")):
            code, out, _ = run(capsys, "verify", "--claim", "latala_sharp",
                               *flags, coin_file)
            assert code == 0
            reports.append(last_json(out)["reports"])
        assert reports[0] == reports[1]
        mc = ("mc", "--claim", "latala_sharp", "--family", "gaussian",
              "--t", "1", "--n", "10", "--j")
        code, out, _ = run(capsys, *mc, "1")
        assert code == 0 and last_json(out)["check"]["params"]["j"] == 1
        code, out, err = run(capsys, *mc, "2")
        assert code == 2 and not out and "does not take --j" in err
        code, out, err = run(capsys, *mc[:-1], "--weights", "1,1")
        assert code == 2 and not out and "does not take --weights" in err

    @pytest.mark.parametrize("claim, flags", [
        ("lemma2", ("--t", "1/2")), ("corollary3", ("--t", "1/2"))])
    @pytest.mark.parametrize("flag, value", [
        ("--norm", "sup"), ("--lhs-mode", "weak"), ("--rhs-mode", "strict")])
    def test_concentration_claims_reject_norm_and_modes(
            self, capsys, coin_file, claim, flags, flag, value):
        code, out, err = run(capsys, "verify", "--claim", claim, *flags,
                             flag, value, coin_file)
        assert code == 2 and not out
        assert flag in err and claim in err

    def test_manifest_echoes_the_default_lhs_mode(self, capsys, coin_file):
        for claim, flags in (("theorem1", ()), ("lemma2", ("--t", "1/2"))):
            code, out, _ = run(capsys, "verify", "--claim", claim, *flags,
                               coin_file)
            assert code == 0
            assert last_json(out)["manifest"]["params"]["lhs_mode"] == \
                "strict"

    def test_corollary5_k_restates_the_weight_count(self, capsys, coin_file):
        code, out, err = run(capsys, "verify", "--claim", "corollary5",
                             "--k", "3", "--weights", "-1,1/2,1/4", coin_file)
        assert code == 0, err
        assert last_json(out)["reports"][0]["report"]["params"]["k"] == 3

    @pytest.mark.parametrize("claim", checks.CLAIMS)
    def test_verify_and_the_library_judge_alike(self, capsys, coin_file,
                                                claim):
        """verify on one law is claim_reports on it at the same inputs:
        each verify input given alone on top of what the claim needs, and
        each needed input left out.  Where the library raises Refused,
        verify exits 2 with its template, the flag in the name's place;
        any other ValueError it prints as is; otherwise the reports are
        the library's."""
        needs = [] if claim not in NEEDS else [NEEDS[claim]]
        cases = [needs + [one] for one in INPUTS] + ([[]] if needs else [])
        for case in cases:
            given = {"j": None, "k": None, "t": None, "alphas": None}
            kw = {}
            for _, _, name, value in case:
                (given if name in given else kw)[name] = value
            try:
                want = checks.claim_reports(checks.CLAIMS[claim], [coin()],
                                            given=given, **kw)
            except ValueError as exc:
                want = exc
            argv = [arg for flag, text, _, _ in case for arg in (flag, text)]
            code, out, err = run(capsys, "verify", "--claim", claim, *argv,
                                 coin_file)
            if judged_alike(want, code, out, err):
                assert last_json(out)["reports"] == json.loads(json.dumps(
                    jsonify([{"file": coin_file, "report": rep}
                             for rep in want])))

    def test_a_plane_law_reaches_the_dimension_rule(self, capsys, tmp_path,
                                                    coin_file):
        """Without --norm an evaluated claim judges no default norm: a 2-D
        law under lemma2 or corollary3 exits 2 with the dimension rule of
        the concentration sets, and check_lemma2 and check_corollary3 keep
        the reports verify gives on a 1-D law."""
        plane = tmp_path / "plane.json"
        save_dist(DiscreteDist({(0, 0): F(1, 2), (1, 1): F(1, 2)}), plane)
        for claim in ("lemma2", "corollary3"):
            code, out, err = run(capsys, "verify", "--claim", claim, "--t",
                                 "1", str(plane))
            assert (code, out) == (2, "")
            assert err == "error: concentration_set requires dimension 1\n"
        for claim, rep in (("lemma2", check_lemma2(coin(), coin(), 1)),
                           ("corollary3", check_corollary3(coin(), 3, 1))):
            code, out, _ = run(capsys, "verify", "--claim", claim, "--t",
                               "1", coin_file)
            assert code == 0 and last_json(out)["reports"] == json.loads(
                json.dumps(jsonify([{"file": coin_file, "report": rep}])))


class TestManifestDigests:
    @pytest.mark.parametrize("flags", [("--claim", "theorem1"),
                                       ("--claim", "lemma2", "--t", "1/2")])
    def test_digest_is_of_the_bytes_read_from_a_fifo(self, fresh, tmp_path,
                                                     flags):
        # a FIFO can be read once: re-reading it to hash it would block
        text = dump_dist(coin())
        fifo = tmp_path / "coin.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        ran = fresh(("-m", "iidtails.cli", "verify", *flags, fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert ran.code == 0, ran.err
        digests = json.loads(ran.out)["manifest"]["input_digests"]
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

    def test_max_k_one_with_default_claims(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "--count", "3", "--max-k", "1",
                           "--out-dir", str(tmp_path))
        assert code == 0, err
        doc = json.loads((tmp_path / "corpus.json").read_text())
        assert doc["corpus"]["per_claim"]["corollary5"]["checks"] > 0
        assert doc["corpus"]["per_claim"]["latala_sharp"]["checks"] > 0

    def test_negative_weight_vectors_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "--count", "1",
                           "--weight-vectors", "-2", "--out-dir",
                           str(tmp_path))
        assert code == 2
        assert "argument --weight-vectors: must be a nonnegative integer, " \
               "got '-2'" in err

    def test_more_atoms_than_lattice_points_exit_two(self, capsys,
                                                     tmp_path):
        code, out, err = run(capsys, "corpus", "--count", "50",
                             "--max-atoms", "5", "--num-range", "1",
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2 and not out
        assert "max_atoms 5 exceeds" in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_dir_fails_before_the_run(self, capsys, tmp_path,
                                                     monkeypatch):
        from iidtails import corpus

        def never(*args, **kwargs):
            raise AssertionError("run_corpus ran")

        monkeypatch.setattr(corpus, "run_corpus", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub"
        code, out, err = run(capsys, "corpus", "--count", "2", "--claims",
                             "theorem1", "--out-dir", str(target))
        assert code == 2 and out == ""
        assert f"error: cannot write --out-dir {target}: " in err

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

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_restarts_below_one_exit_two(self, capsys, value):
        code, out, err = run(capsys, "search", "--j", "1", "--k", "2",
                             "--c2", "1", "--budget", "10",
                             "--restarts", value)
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"argument --restarts: must be a positive integer, got " \
               f"{value!r}" in err

    @pytest.mark.parametrize("subcommand, limit", [("search", 128),
                                                   ("corpus", 64)])
    def test_seed_outside_the_key_range_exit_two(self, capsys, tmp_path,
                                                  subcommand, limit):
        """search keys Philox with the seed, corpus with the seed above 64
        bits of instance index; a seed outside either range is refused
        with a message that names --seed."""
        argv = (["search", "--j", "1", "--k", "2", "--c2", "1",
                 "--budget", "5", "--restarts", "1"]
                if subcommand == "search" else
                ["corpus", "--count", "1", "--claims", "theorem1",
                 "--max-k", "2", "--out-dir", str(tmp_path)])
        for seed in ("-1", str(2 ** limit)):
            code, out, err = run(capsys, *argv, "--seed", seed)
            assert code == 2 and out == "" and "Traceback" not in err
            assert f"argument --seed: must be an integer in " \
                   f"[0, 2**{limit}), got {seed!r}" in err
        code, _, _ = run(capsys, *argv, "--seed", str(2 ** limit - 1))
        assert code == 0

    @pytest.mark.parametrize("flag", ["--lattice-denominator",
                                      "--prob-denominator"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_denominator_below_one_exit_two(self, capsys, flag, value):
        code, out, err = run(capsys, "search", "--j", "1", "--k", "2",
                             "--c2", "1", "--budget", "10", flag, value)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert f"argument {flag}: must be a positive integer, got " \
               f"{value!r}" in err

    @pytest.mark.parametrize("edge", ["--value-lo=-1e400", "--value-hi=1e400",
                                      "--value-lo=1e-400"])
    def test_box_edges_outside_the_floats_exit_two(self, capsys, edge):
        code, out, err = run(capsys, "search", "--j", "1", "--k", "2",
                             "--c2", "1", "--budget", "5", edge)
        flag = edge.split("=")[0][2:].replace("-", "_")
        assert code == 2 and not out
        assert err.startswith(f"error: {flag} is too ")


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

    def test_tails_past_the_int_string_limit(self, capsys):
        """At N = 3, M = 20000 the exact tails have numerators past the
        interpreter's 4300-digit limit on int to string conversion; the
        report still renders, and its text reads back (through Decimal,
        which int() and Fraction() of a str cannot) as the exact tail."""
        code, out, _ = run(capsys, "counterexample", "--N", "3", "--M",
                           "20000")
        assert code == 0
        num, den = last_json(out)["counterexample"]["p_centered"].split("/")
        assert len(num) > 4300
        assert F(int(Decimal(num)), int(Decimal(den))) == \
            verify_counterexample(3, M=20000).p_centered

    def test_invalid_N_exit_two(self, capsys):
        code, _, _ = run(capsys, "counterexample", "--N", "1")
        assert code == 2

    def test_cap_with_M_exit_two(self, capsys):
        code, out, err = run(capsys, "counterexample", "--N", "2",
                             "--M", "5", "--cap", "3")
        assert code == 2
        assert "--cap" in err and "--M" in err
        assert out == ""

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "counterexample", "--N", "2",
                             "--out", str(target))
        assert code == 2
        assert "--out" in err and str(target) in err
        assert out == "" and not target.exists()


class TestCorpusNorms:
    def test_norms_without_a_norm_in_some_dim_exit_two(self, capsys,
                                                       tmp_path):
        """corpus checks and reports only norms --norms lists: a list with
        no norm defined in one of --dims exits 2 naming --norms."""
        base = ("corpus", "--count", "2", "--claims", "theorem1",
                "--max-k", "2", "--out-dir", str(tmp_path), "--json")
        for dims in ("2", "1,2"):
            code, out, err = run(capsys, *base, "--dims", dims,
                                 "--norms", "abs1d")
            assert code == 2 and not out
            assert "--norms abs1d" in err and "--dims 2" in err
            assert not (tmp_path / "corpus.json").exists()
        code, _, _ = run(capsys, *base, "--dims", "2", "--norms", "sup")
        assert code == 0
        doc = json.loads((tmp_path / "corpus.json").read_text())
        assert doc["corpus"]["config"]["norms"] == ["sup"]

    @pytest.mark.parametrize("dims, norms", [("2", ["sup"]),
                                             ("1,2", ["sup"]),
                                             ("1", ["abs1d"])])
    def test_unset_norms_take_the_config_rule(self, capsys, tmp_path, dims,
                                              norms):
        """Without --norms the corpus takes CorpusConfig's norms, abs1d
        when every dimension is 1 and sup otherwise: corpus.json states
        them, and the manifest echoes the unset flag as null."""
        code, _, err = run(capsys, "corpus", "--count", "2", "--max-k", "2",
                           "--dims", dims, "--out-dir", str(tmp_path),
                           "--json")
        assert code == 0, err
        doc = json.loads((tmp_path / "corpus.json").read_text())
        assert doc["corpus"]["config"]["norms"] == norms
        assert doc["manifest"]["params"]["norms"] is None

    @pytest.mark.parametrize("claim", ["lemma2", "corollary3"])
    def test_claims_of_one_dimension_on_a_plane_corpus(self, capsys,
                                                      tmp_path, claim):
        """lemma2 and corollary3 judge only 1-D laws: on a corpus of
        dimension 2 they give no checks and the run exits 0."""
        code, out, err = run(capsys, "corpus", "--count", "3", "--claims",
                             claim, "--dims", "2", "--norms", "sup",
                             "--out-dir", str(tmp_path))
        assert code == 0, err
        assert "checks=0" in out

    def test_a_dimension_below_one_exits_two_naming_dims(self, capsys,
                                                          tmp_path):
        """--dims 0 is refused as a dimension, not as a --norms list with
        no norm in dimension 0."""
        for dims in ("0", "1,0", "1.5"):
            code, out, err = run(capsys, "corpus", "--count", "1", "--dims",
                                 dims, "--out-dir", str(tmp_path))
            assert code == 2 and not out
            assert err.splitlines()[-1].endswith(
                f"argument --dims: must be a positive integer, got "
                f"'{dims.split(',')[-1]}'")
            assert not (tmp_path / "corpus.json").exists()


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

    def test_fixed_constants_exit_two(self, capsys):
        code, out, err = run(capsys, "mc", "--claim", "latala_sharp",
                             "--family", "two_point", "--a", "-1", "--b", "1",
                             "--p", "1/2", "--t", "1/2", "--c1", "1",
                             "--c2", "1", "--n", "2000")
        assert code == 2 and not out
        assert "latala_sharp" in err and "fixed constants" in err

    def test_j_only_for_a_claim_that_takes_it(self, capsys):
        """As in verify, --j is refused where the claim takes none (or no
        claim is checked), with exit 2 naming --j; there is no default j
        to echo."""
        gauss = ("mc", "--family", "gaussian", "--n", "100", "--t", "1")
        for argv in (("--claim", "corollary4"),
                     ("--claim", "corollary5", "--weights", "1,1/2"), ()):
            code, out, err = run(capsys, *gauss, *argv, "--j", "7")
            assert code == 2 and not out
            assert "does not take --j" in err
        code, out, _ = run(capsys, *gauss, "--claim", "corollary4")
        doc = last_json(out)
        assert code in (0, 1) and doc["manifest"]["params"]["j"] is None
        assert "j" not in doc["check"]["params"]
        code, out, _ = run(capsys, *gauss, "--claim", "theorem1")
        assert code in (0, 1) and last_json(out)["check"]["params"]["j"] == 1

    def test_corollary5_takes_k_from_the_weights(self, capsys):
        """As in verify, corollary5 without --k reads k from --weights; a
        --k that disagrees is still refused, and without a weighted claim
        k stays 2."""
        gauss = ("mc", "--family", "gaussian", "--n", "100")
        code, out, _ = run(capsys, *gauss, "--claim", "corollary5",
                           "--weights", "1,1/2,1/4")
        doc = last_json(out)
        assert code in (0, 1)
        assert doc["check"]["params"]["k"] == 3
        assert doc["manifest"]["params"]["k"] == 3
        code, out, err = run(capsys, *gauss, "--claim", "corollary5",
                             "--weights", "1,1/2,1/4", "--k", "2")
        assert code == 2 and not out
        assert err == ("error: corollary5 takes --k = 3, the number of "
                       "weights, got --k=2\n")
        code, out, _ = run(capsys, *gauss, "--claim", "theorem1", "--t", "1")
        assert code in (0, 1)
        assert last_json(out)["manifest"]["params"]["k"] == 2

    def test_a_claim_takes_its_default_indices_as_in_verify(self, capsys,
                                                            coin_file):
        """Without --j and --k, mc checks a claim at the indices verify
        checks it at (corollary4 at k = 4, corollary6 at (j, k) = (2, 1))
        and echoes them in the check; the manifest echoes the k checked."""
        gauss = ("mc", "--family", "gaussian", "--t", "1", "--n", "10")
        for claim, j, k in (("corollary4", None, 4), ("corollary6", 2, 1),
                            ("theorem1", 1, 2), ("latala_sharp", 1, 2)):
            code, out, _ = run(capsys, *gauss, "--claim", claim)
            doc = last_json(out)
            assert code in (0, 1)
            assert (doc["check"]["params"].get("j"),
                    doc["check"]["params"]["k"]) == (j, k)
            assert doc["manifest"]["params"]["k"] == k
            code, out, _ = run(capsys, "verify", "--claim", claim, coin_file)
            params = last_json(out)["reports"][0]["report"]["params"]
            assert (params.get("j"), params["k"]) == (j, k)

    @pytest.mark.parametrize("claim", MC_CLAIMS)
    def test_mc_and_mc_check_judge_alike(self, capsys, claim):
        """mc --claim is mc_check at the same inputs: each of --j, --k,
        --weights, --c1, --c2 and --norm alone on top of what the claim
        needs, and the claim alone.  Where mc_check raises Refused, mc
        exits 2 with its template, the flag in the name's place; any other
        ValueError it prints as is; otherwise the check is mc_check's."""
        needs = [] if claim not in NEEDS else [NEEDS[claim]]
        ones = [one for one in INPUTS if one[2] not in ("t", "lhs_mode",
                                                        "rhs_mode")]
        for case in [needs + [one] for one in ones] + [needs]:
            kw = {"j": None, "k": None}
            for _, _, name, value in case:
                kw["weights" if name == "alphas" else name] = value
            try:
                want = mc_check(claim, SamplerSpec("gaussian", {}),
                                t_grid=[F(1)], n_samples=10, **kw)
            except ValueError as exc:
                want = exc
            argv = [arg for flag, text, _, _ in case for arg in (flag, text)]
            code, out, err = run(capsys, "mc", "--family", "gaussian",
                                 "--t", "1", "--n", "10", "--claim", claim,
                                 *argv)
            if judged_alike(want, code, out, err):
                assert last_json(out)["check"] == json.loads(
                    json.dumps(jsonify(want)))

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

    def test_discrete_fractional_atoms(self, capsys, tmp_path):
        # dist_to_jsonable writes the atoms as "p/q" text
        law = dist1d([(F(-1, 2), F(1, 3)), (F(3, 2), F(2, 3))])
        path = tmp_path / "halves.json"
        save_dist(law, path)
        code, out, _ = run(capsys, "mc", "--family", "discrete",
                           "--dist", str(path), "--k", "2", "--t", "1",
                           "--n", "20000", "--seed", "2")
        assert code == 0
        est = last_json(out)["estimates"][0]["estimate"]
        exact = tail(iid_sum(law, 2), Norm.ABS1D, 1)     # Pr(S_2 = 3) = 4/9
        assert exact == F(4, 9)
        assert est["lo"] <= exact <= est["hi"]

    def test_one_dimensional_families_refuse_dim(self, capsys):
        """two_point and shifted_pareto draw in dimension 1 only: --dim 2
        exits 2, where it once drew in 1-D and echoed dim 2."""
        for family in (("two_point", "--a", "1", "--b", "-1", "--p", "1/2"),
                       ("shifted_pareto",)):
            code, out, err = run(capsys, "mc", "--family", *family, "--dim",
                                 "2", "--t", "1", "--n", "10")
            assert code == 2 and not out
            assert f"{family[0]} family is one-dimensional" in err

    def test_abs1d_refused_above_dimension_one(self, capsys):
        gauss = ("mc", "--family", "gaussian", "--dim", "2", "--norm",
                 "abs1d", "--t", "1")
        for argv in (("--n", "1000"), ("--claim", "theorem1", "--n", "0")):
            code, out, err = run(capsys, *gauss, *argv)
            assert code == 2 and not out
            assert "abs1d norm requires dimension 1" in err

    def test_two_point_requires_all_params(self, capsys):
        code, _, err = run(capsys, "mc", "--family", "two_point",
                           "--a", "-1", "--t", "1")
        assert code == 2 and "two_point b is required" in err

    def test_family_table_judges_the_flags_given(self, capsys, coin_file):
        """mc passes only the flags that were set, so the family table
        refuses a parameter its family does not read and a --dim that the
        --dist file's points do not have, each exit 2 naming it."""
        gauss = ("mc", "--family", "gaussian", "--t", "1", "--n", "100")
        for argv, message in (
                (("--alpha", "3"), "gaussian alpha is unknown"),
                (("--alpha", "3", "--a", "2"), "gaussian a is unknown"),
                (("--dist", coin_file), "gaussian atoms is unknown"),
                (("--mu", "1/0"), "argument --mu: not a rational")):
            code, out, err = run(capsys, *gauss, *argv)
            assert code == 2 and not out and message in err
        code, out, err = run(capsys, "mc", "--family", "discrete", "--dist",
                             coin_file, "--dim", "2", "--t", "1", "--n",
                             "100")
        assert code == 2 and not out
        assert "discrete atoms hold ['-1'], not a point of dim 2" in err

    def test_parameters_are_exact_rationals(self, capsys):
        """Every family flag takes a rational such as 1/2, drawn as the
        float it rounds to; the manifest echoes the flags as given."""
        code, out, _ = run(capsys, "mc", "--family", "gaussian", "--sigma",
                           "1/2", "--t", "1", "--n", "1000", "--seed", "3")
        doc = last_json(out)
        assert code == 0 and doc["manifest"]["params"]["sigma"] == "1/2"
        code, out, _ = run(capsys, "mc", "--family", "gaussian", "--sigma",
                           "0.5", "--t", "1", "--n", "1000", "--seed", "3")
        assert last_json(out)["estimates"] == doc["estimates"]

    def test_a_plane_law_draws_in_its_own_dimension(self, capsys, tmp_path):
        """Without --dim a --dist law draws in its file's dimension, and the
        manifest echoes no --dim: every point (3, 4) or (0, 0) summed twice
        lies at radius 0, 5 or 10."""
        plane = tmp_path / "plane.json"
        save_dist(DiscreteDist({(3, 4): F(1, 2), (0, 0): F(1, 2)}), plane)
        radii = []
        for t in ("4", "9"):
            code, out, _ = run(capsys, "mc", "--family", "discrete", "--dist",
                               str(plane), "--norm", "euclidean", "--t", t,
                               "--n", "4000", "--seed", "1")
            doc = last_json(out)
            assert code == 0 and doc["manifest"]["params"]["dim"] is None
            radii.append(doc["estimates"][0]["estimate"]["estimate"])
        assert abs(radii[0] - 3 / 4) < 0.03 and abs(radii[1] - 1 / 4) < 0.03

    def test_a_number_past_the_float_range_exits_two(self, capsys):
        for argv in (("--mu", "1e400", "--t", "1"), ("--t", "1e400")):
            code, out, err = run(capsys, "mc", "--family", "gaussian",
                                 "--n", "10", *argv)
            assert code == 2 and not out and "too large" in err

    @pytest.mark.parametrize("argv, name", [
        (("--claim", "theorem1", "--c2", "1e-400", "--t", "1"), "t / c2"),
        (("--claim", "corollary6", "--c2", "1e400", "--t", "1"), "t / c2"),
        (("--claim", "theorem1", "--c1", "1e400", "--t", "1"), "c1"),
        (("--claim", "theorem1", "--t", "1e-400"), "t"),
        (("--t", "1e400"), "t"),
        (("--mu", "1e400", "--t", "1"), "gaussian mu"),
        (("--family", "two_point", "--a", "1e400", "--b", "0", "--p", "1/2",
          "--t", "1"), "two_point a"),
        (("--family", "shifted_pareto", "--alpha", "1e-400", "--t", "1"),
         "shifted_pareto alpha"),
    ], ids=["c2_tiny", "c2_huge", "c1", "t_tiny", "t", "mu", "a", "alpha"])
    def test_a_number_outside_the_floats_exits_two_naming_it(
            self, capsys, argv, name):
        """A number whose float is infinite, or 0 though it is not, exits
        2 with a message that names it; the right side's threshold t / c2
        is read exactly before it is rounded, so a tiny c2 is no division
        by zero (exit 1, the violation code, with a traceback)."""
        family = () if "--family" in argv else ("--family", "gaussian")
        code, out, err = run(capsys, "mc", *family, "--n", "10", *argv)
        assert code == 2 and not out
        assert err.startswith(f"error: {name} is too ")
        assert err.rstrip().endswith(" for a float")

    def test_seed_range(self, capsys):
        """--seed keys Philox words: outside [0, 2**64), or past it at some
        threshold row, it exits 2 naming --seed, with no traceback."""
        gauss = ("mc", "--family", "gaussian", "--n", "100")
        top = str(2 ** 64 - 1)
        for seed in ("-1", str(2 ** 64)):
            code, out, err = run(capsys, *gauss, "--seed", seed, "--t", "1")
            assert code == 2 and not out
            assert "argument --seed" in err and "2**64" in err
        code, out, err = run(capsys, *gauss, "--seed", top, "--t", "1")
        assert code == 0 and not err
        assert last_json(out)["manifest"]["seed"] == 2 ** 64 - 1
        code, out, err = run(capsys, *gauss, "--seed", top, "--t", "1",
                             "--t", "2")
        assert code == 2 and not out and "--seed" in err
        claim = ("--claim", "theorem1", "--t", "1/2")
        limit = (2 ** 64 - 2) // 1_000_003 + 1
        code, out, err = run(capsys, *gauss, *claim, "--seed", str(limit))
        assert code == 2 and not out and "--seed" in err
        code, _, _ = run(capsys, *gauss, *claim, "--seed", str(limit - 1))
        assert code in (0, 1)


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

    @pytest.mark.parametrize("cap", ["0", "-3", "abc"])
    @pytest.mark.parametrize("argv", [
        ("verify", "--claim", "theorem1", "COIN"),
        ("corpus", "--count", "1"),
        ("search", "--j", "1", "--k", "2", "--c2", "1", "--budget", "10"),
    ], ids=["verify", "corpus", "search"])
    def test_cap_below_one_exit_two(self, capsys, coin_file, tmp_path, argv,
                                    cap):
        """--cap bounds a support size, so a cap below 1 is refused before
        anything runs, with a message that names the flag."""
        argv = [coin_file if a == "COIN" else a for a in argv]
        code, out, err = run(capsys, *argv, f"--cap={cap}",
                             *(["--out-dir", str(tmp_path)]
                               if argv[0] == "corpus" else []))
        assert code == 2 and not out
        assert f"argument --cap: must be a positive integer, got {cap!r}" \
            in err

    @pytest.mark.parametrize("argv, message", [
        (("corpus", "--count=-1"), "--count: must be a nonnegative integer"),
        (("corpus", "--max-atoms=0"), "--max-atoms: must be a positive"),
        (("corpus", "--max-k=0", "--count=1"), "--max-k: must be a positive"),
        (("corpus", "--num-range=x"), "--num-range: must be a positive"),
        (("corpus", "--denominator=0"), "--denominator: must be a positive"),
        (("search", "--atoms=9"), "--atoms: invalid choice: 9"),
        (("search", "--atoms=1"), "--atoms: invalid choice: 1"),
        (("search", "--budget=0"), "--budget: must be a positive"),
        (("mc", "--n=-5"), "--n: must be a nonnegative integer"),
    ])
    def test_integer_flags_exit_two_naming_the_flag(self, capsys, tmp_path,
                                                     argv, message):
        """Every integer flag is judged as it is parsed, so a value below
        its least exits 2 naming the flag, not the field it fills (the
        --weight-vectors and search denominator tests above check the
        rest)."""
        rest = {"corpus": ("--out-dir", str(tmp_path)),
                "search": ("--j", "1", "--k", "2", "--c2", "1"),
                "mc": ("--family", "gaussian", "--t", "1")}[argv[0]]
        code, out, err = run(capsys, *argv, *rest)
        assert code == 2 and not out
        assert f"argument {message}" in err
        assert not (tmp_path / "corpus.json").exists()

    def test_zero_counts_run(self, capsys, tmp_path):
        """--count, --weight-vectors and mc --n may be 0."""
        assert run(capsys, "corpus", "--count", "0", "--weight-vectors",
                   "0", "--out-dir", str(tmp_path))[0] == 0
        code, out, _ = run(capsys, "mc", "--family", "gaussian", "--claim",
                           "theorem1", "--t", "1", "--n", "0")
        assert code == 0
        assert last_json(out)["check"]["status"] == "inconclusive"

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--claim", "theorem1", "--norm", "l2", "COIN"),
         "unknown norm 'l2'"),
        (("corpus", "--seed", "abc"), "argument --seed: must be an integer"),
        (("verify", "--claim", "lemma2", "--t", "1", "COIN", "COIN", "COIN"),
         "lemma2 takes one file (Y = X) or two"),
    ], ids=["norm", "seed", "lemma2-files"])
    def test_malformed_flags_exit_two(self, capsys, coin_file, argv,
                                      message):
        code, out, err = run(capsys, *[coin_file if a == "COIN" else a
                                       for a in argv])
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--claim", "theorem1", "BAD"),
        ("verify", "--claim", "lemma2", "--t", "1", "COIN", "BAD"),
        ("show", "BAD"),
        ("mc", "--family", "discrete", "--dist", "BAD", "--t", "1"),
    ], ids=["verify", "lemma2-second-file", "show", "mc-dist"])
    def test_non_utf8_law_file_exit_two_naming_it(self, capsys, coin_file,
                                                  tmp_path, argv):
        """A law file that is not UTF-8 is refused where it is read, with
        the file and the offset of its first bad byte."""
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"dim": 1, "atoms": [{"x": "1", "p": "1"}]}\xff')
        code, out, err = run(capsys, *[
            {"COIN": coin_file, "BAD": str(bad)}.get(a, a) for a in argv])
        assert code == 2 and not out
        assert f"error: {bad}: not UTF-8 at byte 43" in err

    def test_no_subcommand_exit_two(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_one_parser_per_process(self, capsys, tmp_path):
        """main reuses one parser; a corpus run leaves the --dims and
        --norms defaults it shares with later calls as they were."""
        parser = build_parser()
        assert run(capsys, "corpus", "--count", "2", "--max-k", "2",
                   "--out-dir", str(tmp_path))[0] == 0
        assert build_parser() is parser
        args = parser.parse_args(["corpus"])
        assert (args.dims, args.norms) == ([1], None)


def test_import_loads_no_scipy(fresh):
    """verify, corpus and search never touch scipy, so importing the
    package and its CLI must not load it; only the Monte Carlo intervals
    import it when they run."""
    ran = fresh(("-m", "iidtails.cli", "--version"))
    assert ran.code == 0, ran.err
    assert "scipy" not in ran.loaded


def _loads(fresh, *argvs) -> "tuple[list[int], list[str]]":
    """(exit codes, which of numpy and scipy got imported by any) of the
    CLI run on each argv in its own fresh process."""
    runs = [fresh(("-m", "iidtails.cli", *argv)) for argv in argvs]
    return ([ran.code for ran in runs],
            sorted(frozenset().union(*(ran.loaded for ran in runs))))


def test_exact_subcommands_load_no_numpy(fresh, coin_file, tmp_path):
    """verify and counterexample are exact, so a process that runs them
    (1-D, 2-D under the euclidean norm, and the N = 2 counterexample)
    never loads numpy or scipy; a corpus draws from the package's own
    Philox stream, so it loads neither either."""
    plane = tmp_path / "plane.json"
    save_dist(DiscreteDist({(0, 1): F(1, 3), (2, -1): F(2, 3)}, dim=2),
              plane)
    codes, loaded = _loads(
        fresh,
        ["verify", "--claim", "theorem1", "--j", "1", "--k", "3", coin_file],
        ["verify", "--claim", "theorem1", "--norm", "euclidean", str(plane)],
        ["counterexample", "--N", "2"],
        ["corpus", "--count", "1", "--out-dir", str(tmp_path)])
    assert codes == [0, 0, 0, 0] and loaded == []


def test_search_loads_numpy_alone(fresh):
    """A search draws its starts and kicks with numpy and runs its own
    Nelder-Mead, so it never loads scipy."""
    codes, loaded = _loads(fresh, ["search", "--j", "1", "--k", "2",
                                   "--c2", "1", "--budget", "20"])
    assert codes == [0] and loaded == ["numpy"]
