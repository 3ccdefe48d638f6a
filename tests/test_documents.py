"""The whole JSON documents of `iidtails search` and `iidtails mc`.

test_golden.py pins the corpus, verify and counterexample reports; these
pin the keys and values of the search result, the Monte Carlo check and
the plain estimate run, manifests included (the wall clock apart).  Every
value is exact but the Clopper-Pearson bounds, which come from scipy's
beta quantiles and are compared to 1e-9.
"""

import json

import pytest

from iidtails import __version__
from iidtails.cli import main


def document(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"].pop("wall_clock")
    return doc


def interval(count, n_samples, seed, lo, hi) -> dict:
    return {"count": count, "estimate": count / n_samples,
            "lo": pytest.approx(lo, rel=1e-9, abs=1e-12),
            "hi": pytest.approx(hi, rel=1e-9, abs=1e-12),
            "n_samples": n_samples, "seed": seed}


MC_PARAMS = {
    "a": None, "alpha": None, "b": None, "c1": None, "c2": None,
    "claim": None, "delta": 0.05, "dim": None, "dist": None, "family": None,
    "j": None, "k": 2, "mu": None, "n": 2000, "norm": None, "out": None,
    "p": None, "seed": None, "shift": None, "sigma": None, "subcommand": "mc",
    "t": None, "weights": None,
}


def test_search_document(capsys):
    doc = document(capsys, "search", "--j", "1", "--k", "2", "--c2", "1",
                   "--budget", "60", "--restarts", "2", "--seed", "3")
    assert doc == {
        "manifest": {
            "input_digests": {},
            "outcome": "achieved_ratio=29282/14657",
            "params": {
                "atoms": 3, "budget": 60, "c2": "1", "cap": 2000000, "j": 1,
                "k": 2, "lattice_denominator": 16, "norm": "abs1d",
                "out": None, "prob_denominator": 64, "restarts": 2,
                "seed": 3, "subcommand": "search", "value_hi": "4",
                "value_lo": "-4",
            },
            "seed": 3,
            "subcommand": "search",
            "version": __version__,
        },
        "result": {
            "achieved_ratio": "29282/14657",
            "best_dist": {
                "atoms": [{"p": "125/242", "x": ["-39/16"]},
                          {"p": "53/242", "x": ["29/16"]},
                          {"p": "32/121", "x": ["47/16"]}],
                "dim": 1,
            },
            "best_t": "5/8",
            "evaluations": 60,
            "seed": 3,
            "trace": [[0, 29282 / 14657], [1, 29282 / 14657]],
        },
    }


def test_mc_check_document(capsys):
    doc = document(capsys, "mc", "--claim", "theorem1", "--family",
                   "two_point", "--a", "1", "--b", "-1", "--p", "1/2",
                   "--c1", "2", "--c2", "3/2", "--n", "2000", "--seed", "5",
                   "--t", "1/2", "--t", "3/2")
    assert doc == {
        "check": {
            "claim_id": "theorem1",
            "params": {"c1": "2", "c2": "3/2", "delta": 0.05, "j": 1,
                       "k": 2, "n_samples": 2000, "norm": None, "seed": 5,
                       "weights": None},
            "rows": [
                {"factor": 2.0, "t": 0.5, "verdict": "inconclusive",
                 "lhs": interval(2000, 2000, 5000015,
                                 0.9978113852002937, 1.0),
                 "rhs": interval(1012, 2000, 5000016,
                                 0.48070028922690405, 0.5312773369155568)},
                {"factor": 2.0, "t": 1.5, "verdict": "holds",
                 "lhs": interval(0, 2000, 5000017,
                                 0.0, 0.0021886147997063833),
                 "rhs": interval(1022, 2000, 5000018,
                                 0.48569522102060564, 0.5362637601487739)},
            ],
            "status": "inconclusive",
        },
        "manifest": {
            "input_digests": {},
            "outcome": "inconclusive",
            "params": {**MC_PARAMS, "a": "1", "b": "-1", "c1": "2",
                       "c2": "3/2", "claim": "theorem1",
                       "family": "two_point", "p": "1/2", "seed": 5,
                       "t": ["1/2", "3/2"]},
            "seed": 5,
            "subcommand": "mc",
            "version": __version__,
        },
    }


def test_mc_estimate_document(capsys):
    doc = document(capsys, "mc", "--family", "gaussian", "--k", "3", "--n",
                   "2000", "--seed", "2", "--t", "1", "--t", "2")
    assert doc == {
        "estimates": [
            {"t": "1", "estimate": interval(1101, 2000, 2,
                                            0.5283883346677682,
                                            0.5724633992715087)},
            {"t": "2", "estimate": interval(503, 2000, 3,
                                            0.23261035306952074,
                                            0.27112081242359765)},
        ],
        "manifest": {
            "input_digests": {},
            "outcome": "2 estimates",
            "params": {**MC_PARAMS, "family": "gaussian", "k": 3, "seed": 2,
                       "t": ["1", "2"]},
            "seed": 2,
            "subcommand": "mc",
            "version": __version__,
        },
    }
