"""Floats are rejected everywhere: every exact public entry point raises
TypeError when a float stands where a rational is expected (`0.1` is not
`1/10`).  The Monte Carlo module is the one place floats belong and is not
listed here.  Booleans are refused the same way, although Python counts
them as ints: `True` is not the rational 1, in a call or in a law file.
The counterexample's integer arguments (N, M, the cap and icbrt's n), the
indices j and k of a check or a sum, and every count, seed and support cap
of the walk, the search, the corpus and Monte Carlo take only ints, by one
rule (dists._int): a bool, a float or a string there raises TypeError
naming the argument."""

import json
import re
from fractions import Fraction as F

import pytest

from iidtails import (
    DiscreteDist,
    Norm,
    TailCurve,
    affine,
    cbrt_combo_sign,
    centered_sum_tail,
    check_corollary3,
    check_corollary4,
    check_corollary5,
    check_corollary6,
    check_lemma2,
    check_levy_ottaviani,
    check_theorem1,
    classify_case,
    concentration_set,
    delta,
    extended_sum_tail,
    find_M,
    first_exceedance_probs,
    has_concentration_point,
    icbrt,
    iid_sum,
    normalized_sum_tail,
    path_max_tail,
    ratio_objective,
    ratio_objective_witness,
    refutes_constant,
    sweep_curves,
    tail,
    tail_curve,
    verify_counterexample,
    weighted_iid_sum,
    window_mass,
)
from iidtails.cli import main
from iidtails.corpus import CorpusConfig
from iidtails.dists import rat
from iidtails.montecarlo import SamplerSpec, estimate_tail, mc_check
from iidtails.search import SearchSpace, search
from iidtails.specfile import SpecFileError, parse_dist
from oracles import coin

X = coin()
CURVE = tail_curve(X, Norm.ABS1D)
SPACE = SearchSpace(n_atoms=2, j=1, k=2, c2=1)
GAUSS = SamplerSpec("gaussian", {})

FLOAT_CALLS = {
    "DiscreteDist.atom": lambda: DiscreteDist({0.5: F(1)}),
    "DiscreteDist.mass": lambda: DiscreteDist({0: 1.0}),
    "delta": lambda: delta(0.5),
    "affine.scale": lambda: affine(X, 0.5),
    "affine.shift": lambda: affine(X, 1, 0.5),
    "tail": lambda: tail(X, Norm.ABS1D, 0.5),
    "TailCurve.criticals":
        lambda: TailCurve(Norm.ABS1D, (0.5, 1.0), (F(1, 4), 0)),
    "TailCurve.values":
        lambda: TailCurve(Norm.ABS1D, (F(1, 2), 1), (0.25, 0)),
    "path_max_tail": lambda: path_max_tail(X, 2, Norm.ABS1D, 0.5),
    "first_exceedance_probs":
        lambda: first_exceedance_probs(X, 2, Norm.ABS1D, 0.5),
    "weighted_iid_sum": lambda: weighted_iid_sum(X, [0.5]),
    "check_theorem1.c1": lambda: check_theorem1(X, 1, 2, c1=0.5),
    "check_theorem1.c2": lambda: check_theorem1(X, 1, 2, c2=0.5),
    "check_levy_ottaviani": lambda: check_levy_ottaviani(X, 2, c1=0.5),
    "check_corollary4": lambda: check_corollary4(X, 2, c2=0.5),
    "check_corollary5": lambda: check_corollary5(X, [0.5]),
    "check_corollary6": lambda: check_corollary6(X, 2, 1, c1=0.5),
    "sweep_curves.factor": lambda: sweep_curves(CURVE, CURVE, 0.5, 1),
    "sweep_curves.scale": lambda: sweep_curves(CURVE, CURVE, 1, 0.5),
    "check_lemma2": lambda: check_lemma2(X, X, 0.5),
    "check_corollary3": lambda: check_corollary3(X, 3, 0.5),
    "classify_case": lambda: classify_case(X, 1, 2, 0.5),
    "concentration_set": lambda: concentration_set(X, 0.5),
    "has_concentration_point": lambda: has_concentration_point(X, 0.5),
    "window_mass.x": lambda: window_mass(X, 0.5, 1),
    "window_mass.t": lambda: window_mass(X, 0, 0.5),
    "ratio_objective": lambda: ratio_objective(X, 1, 2, 0.5),
    "ratio_objective_witness": lambda: ratio_objective_witness(X, 1, 2, 0.5),
    "cbrt_combo_sign.a": lambda: cbrt_combo_sign(0.5, 0, 0, 2),
    "cbrt_combo_sign.b": lambda: cbrt_combo_sign(0, 0.5, 0, 2),
    "cbrt_combo_sign.c": lambda: cbrt_combo_sign(0, 0, 0.5, 2),
    "centered_sum_tail": lambda: centered_sum_tail(2, 8, 0.5),
    "normalized_sum_tail": lambda: normalized_sum_tail(2, 8, 0.5),
    "extended_sum_tail": lambda: extended_sum_tail(2, 8, 0.5),
    "refutes_constant.c": lambda: refutes_constant(2, 8, 0.5, F(1, 2)),
    "refutes_constant.t": lambda: refutes_constant(2, 8, 1, 0.5),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS)
def test_float_is_refused(call):
    with pytest.raises(TypeError, match="float"):
        call()


BOOL_CALLS = {
    "rat": lambda: rat(True),
    "DiscreteDist.mass": lambda: DiscreteDist({0: True}),
    "check_theorem1.constants":
        lambda: check_theorem1(X, 1, 2, c1=True, c2=True),
    "tail": lambda: tail(X, Norm.ABS1D, False),
}


@pytest.mark.parametrize("call", BOOL_CALLS.values(), ids=BOOL_CALLS)
def test_bool_is_refused(call):
    with pytest.raises(TypeError, match="bool"):
        call()


INT_CALLS = {
    "verify_counterexample.N.bool": ("N", lambda: verify_counterexample(True)),
    "verify_counterexample.N.float": ("N", lambda: verify_counterexample(3.0)),
    "verify_counterexample.M.bool":
        ("M", lambda: verify_counterexample(3, M=True)),
    "verify_counterexample.M.float":
        ("M", lambda: verify_counterexample(3, M=2.0)),
    "verify_counterexample.cap.bool":
        ("cap", lambda: verify_counterexample(3, cap=True)),
    "verify_counterexample.cap.float":
        ("cap", lambda: verify_counterexample(3, cap=1e5)),
    "find_M.N.bool": ("N", lambda: find_M(True, 100)),
    "find_M.N.float": ("N", lambda: find_M(3.0, 100)),
    "find_M.M_cap.float": ("M_cap", lambda: find_M(3, 1e5)),
    "find_M.M_cap.bool": ("M_cap", lambda: find_M(2, True)),
    "find_M.M_cap.str": ("M_cap", lambda: find_M(3, "100")),
    "centered_sum_tail.N": ("N", lambda: centered_sum_tail(2.0, 8, 1)),
    "centered_sum_tail.M": ("M", lambda: centered_sum_tail(2, True, 1)),
    "normalized_sum_tail.M": ("M", lambda: normalized_sum_tail(2, 8.0, 1)),
    "extended_sum_tail.N": ("N", lambda: extended_sum_tail(True, 8, 1)),
    "refutes_constant.M": ("M", lambda: refutes_constant(2, 8.0, 1, 1)),
    "cbrt_combo_sign.M": ("M", lambda: cbrt_combo_sign(0, 0, 0, 2.0)),
    "icbrt.n": ("n", lambda: icbrt(8.0)),
    "check_theorem1.j.bool": ("j", lambda: check_theorem1(X, True, 2)),
    "check_theorem1.j.float": ("j", lambda: check_theorem1(X, 1.5, 2)),
    "check_theorem1.j.whole_float": ("j", lambda: check_theorem1(X, 1.0, 2)),
    "check_theorem1.k.float": ("k", lambda: check_theorem1(X, 1, 2.0)),
    "check_corollary6.k.bool":
        ("k", lambda: check_corollary6(X, 2, True)),
    "iid_sum.k.float": ("k", lambda: iid_sum(X, 2.0)),
    "iid_sum.k.bool": ("k", lambda: iid_sum(X, True)),
    "iid_sum.cap.float": ("cap", lambda: iid_sum(X, 3, cap=2.5)),
    "check_levy_ottaviani.k.float":
        ("k", lambda: check_levy_ottaviani(X, 2.0)),
    "search.budget.float": ("budget", lambda: search(SPACE, budget=2.5)),
    "search.restarts.float": ("restarts", lambda: search(SPACE, restarts=1.5)),
    "search.seed.float": ("seed", lambda: search(SPACE, seed=1.5)),
    "SearchSpace.n_atoms.float":
        ("n_atoms", lambda: SearchSpace(n_atoms=2.5, j=1, k=2, c2=1)),
    "SearchSpace.prob_denominator.float": ("prob_denominator", lambda:
        SearchSpace(n_atoms=2, j=1, k=2, c2=1, prob_denominator=8.0)),
    "SamplerSpec.dim.float":
        ("dim", lambda: SamplerSpec("gaussian", {}, dim=1.5)),
    "estimate_tail.k.float": ("k", lambda: estimate_tail(GAUSS, 2.5, 1)),
    "estimate_tail.n_samples.float":
        ("n_samples", lambda: estimate_tail(GAUSS, 2, 1, n_samples=10.5)),
    "estimate_tail.seed.bool":
        ("seed", lambda: estimate_tail(GAUSS, 2, 1, n_samples=1, seed=True)),
    "mc_check.n_samples.float": ("n_samples", lambda: mc_check(
        "theorem1", GAUSS, None, 2, [1], n_samples=1.5)),
    "mc_check.seed.float": ("seed", lambda: mc_check(
        "theorem1", GAUSS, None, 2, [1], n_samples=1, seed=0.0)),
    "CorpusConfig.seed.bool": ("seed", lambda: CorpusConfig(True, 1)),
    "CorpusConfig.count.float": ("count", lambda: CorpusConfig(0, 2.5)),
    "CorpusConfig.max_atoms.float":
        ("max_atoms", lambda: CorpusConfig(0, 2, max_atoms=2.0)),
    "CorpusConfig.num_range.float":
        ("num_range", lambda: CorpusConfig(0, 2, num_range=8.0)),
    "CorpusConfig.denominator.float":
        ("denominator", lambda: CorpusConfig(0, 2, denominator=2.5)),
    "CorpusConfig.max_k.float":
        ("max_k", lambda: CorpusConfig(0, 2, max_k=2.0)),
    "CorpusConfig.weight_vectors.float":
        ("weight_vectors", lambda: CorpusConfig(0, 2, weight_vectors=1.0)),
    "CorpusConfig.dims.float":
        ("dimension", lambda: CorpusConfig(0, 2, dims=(1, 1.5))),
}


@pytest.mark.parametrize("name, call", INT_CALLS.values(), ids=INT_CALLS)
def test_non_int_argument_is_refused(name, call):
    with pytest.raises(TypeError, match=f"^{name} must be an int, not "):
        call()


LAW = {"dim": 1, "atoms": [{"x": "-1", "p": "1/2"}, {"x": "1", "p": "1/2"}]}


@pytest.mark.parametrize("path, where", [
    (("atoms", 0, "x"), "atoms[0].x"),
    (("atoms", 1, "p"), "atoms[1].p"),
    (("dim",), "dim"),
], ids=["x", "p", "dim"])
def test_bool_in_a_law_file_is_refused(tmp_path, capsys, path, where):
    """A JSON true in a law file is a located error, exit 2, not the 1 that
    Python's bool would pass for."""
    doc = json.loads(json.dumps(LAW))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    with pytest.raises(SpecFileError, match=re.escape(where)):
        parse_dist(json.dumps(doc))
    law = tmp_path / "law.json"
    law.write_text(json.dumps(doc))
    assert main(["verify", "--claim", "theorem1", str(law)]) == 2
    assert f"{law}: {where}: " in capsys.readouterr().err
