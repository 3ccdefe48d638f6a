"""The benchmark's declared shape: command, workloads and metrics.

`BENCHMARK.json` at the repository root is generated from this file by
`python3 perfbench/spec.py --write`; run.py and summary.py read the names
from here and selftest.py checks that the file is up to date, so the
harness and the committed declaration cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 12

WORKLOADS = (
    ("corpus_sums",
     "corpus sweep of sum claims: many small exact checks, so the sweep "
     "and per-check report assembly dominate and the running-max DP never runs"),
    ("corpus_maxima",
     "corpus sweep of running-max claims at k<=8, so the running-max "
     "path DP dominates"),
    ("verify_wide",
     "verify on wide mixed-denominator 1-D and 2-D euclidean laws at large "
     "k, so convolution and support size dominate"),
    ("search_extremal",
     "extremal search: thousands of exact objectives on 2-4 atom laws, so "
     "per-call overhead of search, curve and sweep code dominates"),
    ("counterexample_scan",
     "weighted-sum counterexample at N=10 (no M under the cap), N=3 and N=2: "
     "big-integer binomial scan and cube-root sign rule only"),
)

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better); counts and times are per round over the units
PER_LAYER = (
    ("dists.convolve.calls", "count", "lower"),
    ("dists.convolve.self_s", "s", "lower"),
    ("dists.convolve.pairs", "count", "lower"),
    ("dists.convolve.atoms_out", "count", "lower"),
    ("dists.convolve.ns_per_pair", "ns", "lower"),
    ("dists.iid_sum.calls", "count", "lower"),
    ("dists.weighted_iid_sum.calls", "count", "lower"),
    ("dists.tail_curve.calls", "count", "lower"),
    ("dists.tail_curve.self_s", "s", "lower"),
    ("dists.path_max_curve.calls", "count", "lower"),
    ("dists.path_max_curve.self_s", "s", "lower"),
    ("dists.path_max_curve.steps", "count", "lower"),
    ("dists.path_max_curve.step_efficiency", "ratio", "higher"),
    ("dists.support_headroom", "ratio", "lower"),
    ("checks.sweep_curves.calls", "count", "lower"),
    ("checks.sweep_curves.self_s", "s", "lower"),
    ("checks.threshold_candidates.self_s", "s", "lower"),
    ("checks.sweep_curves.candidates", "count", "lower"),
    ("checks.sweep_curves.ns_per_candidate", "ns", "lower"),
    ("checks.sweep_curves.distinct_pair_frac", "ratio", "higher"),
    ("checks.upper_envelope.calls", "count", "lower"),
    ("checks.upper_envelope.self_s", "s", "lower"),
    ("checks.check.self_s", "s", "lower"),
    ("concentration.concentration_set.calls", "count", "lower"),
    ("concentration.concentration_set.self_s", "s", "lower"),
    ("concentration.check_lemma2.self_s", "s", "lower"),
    ("concentration.check_corollary3.self_s", "s", "lower"),
    ("corpus.run_corpus.self_s", "s", "lower"),
    ("corpus.write_csv.self_s", "s", "lower"),
    ("corpus.checks", "count", "higher"),
    ("corpus.skipped", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("reports.jsonify.self_s", "s", "lower"),
    ("specfile.load_dist.self_s", "s", "lower"),
    ("search.search.self_s", "s", "lower"),
    ("search.ratio_objective_witness.calls", "count", "lower"),
    ("search.ratio_objective_witness.self_s", "s", "lower"),
    ("search.ratio_objective_witness.ms_p50", "ms", "lower"),
    ("search.ratio_objective_witness.ms_p99", "ms", "lower"),
    ("search.snap_to_space.self_s", "s", "lower"),
    ("counterexample.find_M.self_s", "s", "lower"),
    ("counterexample.find_M.M_scanned", "count", "lower"),
    ("counterexample.find_M.us_per_M", "us", "lower"),
    ("counterexample.centered_sum_tail.self_s", "s", "lower"),
    ("counterexample.normalized_sum_tail.self_s", "s", "lower"),
    ("counterexample.extended_sum_tail.self_s", "s", "lower"),
    ("counterexample.cbrt_combo_sign.calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(spec(), indent=2) + "\n"


def main(argv) -> int:
    if argv != ["--write"]:
        print("usage: spec.py --write", file=sys.stderr)
        return 2
    SPEC_PATH.write_text(render())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
