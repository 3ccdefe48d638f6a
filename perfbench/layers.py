"""Outside-in layer tracing: wrap public iidtails functions, record spans.

The tracer replaces each traced function at every module binding it is
called through (the package re-exports names and several modules import
by name), records one span per call, and restores the originals on
uninstall.  A span is (span id, name, start, end, parent span id, op id);
spans stay in memory and are written as JSON when the run ends.

A layer's self time is its span's duration minus the time covered by its
child spans.  Counts are taken from arguments and return values at the
wrapper.  Nothing inside the package changes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from statistics import quantiles
from time import perf_counter

from spec import PER_LAYER

DEFAULT_CAP = 2_000_000

# (module, function, kind): "span" records a span; "count" only counts
# calls (hot helpers where a span would cost more than the call)
TARGETS = (
    ("cli", "main", "span"),
    ("reports", "jsonify", "top"),
    ("specfile", "load_dist", "span"),
    ("dists", "convolve", "span"),
    ("dists", "iid_sum", "span"),
    ("dists", "weighted_iid_sum", "span"),
    ("dists", "tail_curve", "span"),
    ("dists", "path_max_curve", "span"),
    ("checks", "sweep_curves", "span"),
    ("checks", "threshold_candidates", "span"),
    ("checks", "upper_envelope", "span"),
    ("checks", "check_theorem1", "span"),
    ("checks", "check_latala_sharp", "span"),
    ("checks", "check_levy_ottaviani", "span"),
    ("checks", "check_corollary4", "span"),
    ("checks", "check_corollary5", "span"),
    ("checks", "check_corollary6", "span"),
    ("concentration", "concentration_set", "span"),
    ("concentration", "check_lemma2", "span"),
    ("concentration", "check_corollary3", "span"),
    ("corpus", "generate_corpus", "span"),
    ("corpus", "run_corpus", "span"),
    ("corpus", "write_csv", "span"),
    ("search", "search", "span"),
    ("search", "snap_to_space", "span"),
    ("search", "ratio_objective_witness", "span"),
    ("counterexample", "verify_counterexample", "span"),
    ("counterexample", "find_M", "span"),
    ("counterexample", "centered_sum_tail", "span"),
    ("counterexample", "normalized_sum_tail", "span"),
    ("counterexample", "extended_sum_tail", "span"),
    ("counterexample", "cbrt_combo_sign", "count"),
)

CHECK_ENTRY_POINTS = tuple(f"checks.{f}" for m, f, _ in TARGETS
                           if m == "checks" and f.startswith("check_"))


def _cap(args, kwargs, index):
    if "cap" in kwargs:
        return kwargs["cap"]
    return args[index] if len(args) > index else DEFAULT_CAP


class Tracer:
    """Spans and counters for one run; install() and uninstall() swap the
    wrappers in and out so untraced runs use the original code."""

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._stack = []          # [span id, child time, name] per open span
        self._next_id = 0
        self._bindings = []       # (module, attribute, original)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(int)
        self.headroom = 0.0
        self._path_max_k = {}     # id(law) -> (law, largest k)
        self._pairs = {}          # (id(lhs), id(rhs)) -> (lhs, rhs)

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None
                and (name == "iidtails" or name.startswith("iidtails."))}
        for modname, func, kind in TARGETS:
            # iidtails.search is the re-exported function, not the module
            home = sys.modules[f"iidtails.{modname}"]
            orig = getattr(home, func)
            wrapper = self._wrap(f"{modname}.{func}", orig, kind, home, func)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._bindings.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._bindings.clear()

    def _wrap(self, name, orig, kind, home, func):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        calls = self.calls
        if kind == "count":
            def counting(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return counting

        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        durations = self.durations
        top_only = kind == "top"

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, name]
            stack.append(frame)
            if top_only:
                # recursion goes through the module global: send it to the
                # original so only top-level call sites are spans
                setattr(home, func, orig)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                if top_only:
                    setattr(home, func, wrapper)
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, name, start, end, parent, self.op_id))
                calls[name] += 1
                self_s[name] += dur - frame[1]
                durations[name].append(dur)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counts from arguments and results --------------------------------

    def _law_size(self, law, cap) -> None:
        self.headroom = max(self.headroom, len(law) / cap)

    def _after_dists_convolve(self, args, kwargs, result):
        self.counts["convolve.pairs"] += len(args[0]) * len(args[1])
        self.counts["convolve.atoms_out"] += len(result)
        self._law_size(result, _cap(args, kwargs, 2))

    def _after_dists_iid_sum(self, args, kwargs, result):
        self._law_size(result, _cap(args, kwargs, 2))

    _after_dists_weighted_iid_sum = _after_dists_iid_sum

    def _after_dists_path_max_curve(self, args, kwargs, result):
        law, k = args[0], args[1]
        self.counts["path_max_curve.steps"] += k
        seen = self._path_max_k.get(id(law))
        if seen is None or k > seen[1]:
            self._path_max_k[id(law)] = (law, k)

    def _after_checks_sweep_curves(self, args, kwargs, result):
        lhs, rhs = args[0], args[1]
        self._pairs.setdefault((id(lhs), id(rhs)), (lhs, rhs))

    def _after_checks_threshold_candidates(self, args, kwargs, result):
        # the wrapper has popped its own frame: the top is the caller
        if self._stack and self._stack[-1][2] == "checks.sweep_curves":
            self.counts["sweep_curves.candidates"] += len(result)

    def _after_corpus_run_corpus(self, args, kwargs, result):
        self.counts["corpus.checks"] += result.total_checks
        self.counts["corpus.skipped"] += len(result.skipped)

    def _after_counterexample_find_M(self, args, kwargs, result):
        N, cap = args[0], args[1]
        last = cap if result is None else result
        self.counts["find_M.M_scanned"] += last - N ** 3 + 1

    # -- results ----------------------------------------------------------

    def metrics(self, rounds: int, overhead_frac: float) -> dict:
        """Every per-layer metric; counts and times are per round (one
        traced run of every unit; rounds repeat the same inputs, so counts
        are exact).  A ratio whose base is zero (the layer never ran)
        reads 0."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        n = max(rounds, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        convolve_s = self_s["dists.convolve"]
        sweeps = calls["checks.sweep_curves"]
        steps = counts["path_max_curve.steps"]
        scanned = counts["find_M.M_scanned"]
        witness = self.durations["search.ratio_objective_witness"]
        p50 = p99 = 0.0
        if len(witness) >= 2:
            cuts = quantiles(witness, n=100, method="inclusive")
            p50, p99 = cuts[49] * 1e3, cuts[98] * 1e3
        out = {
            "dists.convolve.calls": calls["dists.convolve"] / n,
            "dists.convolve.self_s": convolve_s / n,
            "dists.convolve.pairs": counts["convolve.pairs"] / n,
            "dists.convolve.atoms_out": counts["convolve.atoms_out"] / n,
            "dists.convolve.ns_per_pair":
                ratio(convolve_s * 1e9, counts["convolve.pairs"]),
            "dists.iid_sum.calls": calls["dists.iid_sum"] / n,
            "dists.weighted_iid_sum.calls":
                calls["dists.weighted_iid_sum"] / n,
            "dists.tail_curve.calls": calls["dists.tail_curve"] / n,
            "dists.tail_curve.self_s": self_s["dists.tail_curve"] / n,
            "dists.path_max_curve.calls": calls["dists.path_max_curve"] / n,
            "dists.path_max_curve.self_s":
                self_s["dists.path_max_curve"] / n,
            "dists.path_max_curve.steps": steps / n,
            "dists.path_max_curve.step_efficiency":
                ratio(sum(k for _, k in self._path_max_k.values()), steps),
            "dists.support_headroom": self.headroom,
            "checks.sweep_curves.calls": sweeps / n,
            "checks.sweep_curves.self_s": self_s["checks.sweep_curves"] / n,
            "checks.threshold_candidates.self_s":
                self_s["checks.threshold_candidates"] / n,
            "checks.sweep_curves.candidates":
                counts["sweep_curves.candidates"] / n,
            "checks.sweep_curves.ns_per_candidate":
                ratio(self_s["checks.sweep_curves"] * 1e9,
                      counts["sweep_curves.candidates"]),
            "checks.sweep_curves.distinct_pair_frac":
                ratio(len(self._pairs), sweeps),
            "checks.upper_envelope.calls": calls["checks.upper_envelope"] / n,
            "checks.upper_envelope.self_s":
                self_s["checks.upper_envelope"] / n,
            "checks.check.self_s":
                sum(self_s[name] for name in CHECK_ENTRY_POINTS) / n,
            "concentration.concentration_set.calls":
                calls["concentration.concentration_set"] / n,
            "concentration.concentration_set.self_s":
                self_s["concentration.concentration_set"] / n,
            "concentration.check_lemma2.self_s":
                self_s["concentration.check_lemma2"] / n,
            "concentration.check_corollary3.self_s":
                self_s["concentration.check_corollary3"] / n,
            "corpus.run_corpus.self_s": self_s["corpus.run_corpus"] / n,
            "corpus.write_csv.self_s": self_s["corpus.write_csv"] / n,
            "corpus.checks": counts["corpus.checks"] / n,
            "corpus.skipped": counts["corpus.skipped"] / n,
            "cli.main.self_s": self_s["cli.main"] / n,
            "reports.jsonify.self_s": self_s["reports.jsonify"] / n,
            "specfile.load_dist.self_s": self_s["specfile.load_dist"] / n,
            "search.search.self_s": self_s["search.search"] / n,
            "search.ratio_objective_witness.calls":
                calls["search.ratio_objective_witness"] / n,
            "search.ratio_objective_witness.self_s":
                self_s["search.ratio_objective_witness"] / n,
            "search.ratio_objective_witness.ms_p50": p50,
            "search.ratio_objective_witness.ms_p99": p99,
            "search.snap_to_space.self_s": self_s["search.snap_to_space"] / n,
            "counterexample.find_M.self_s":
                self_s["counterexample.find_M"] / n,
            "counterexample.find_M.M_scanned": scanned / n,
            "counterexample.find_M.us_per_M":
                ratio(self_s["counterexample.find_M"] * 1e6, scanned),
            "counterexample.centered_sum_tail.self_s":
                self_s["counterexample.centered_sum_tail"] / n,
            "counterexample.normalized_sum_tail.self_s":
                self_s["counterexample.normalized_sum_tail"] / n,
            "counterexample.extended_sum_tail.self_s":
                self_s["counterexample.extended_sum_tail"] / n,
            "counterexample.cbrt_combo_sign.calls":
                calls["counterexample.cbrt_combo_sign"] / n,
            "trace.overhead_frac": overhead_frac,
        }
        if list(out) != [name for name, _, _ in PER_LAYER]:
            raise RuntimeError("per-layer metrics differ from spec.py")
        return out

    def shares(self) -> "dict[str, float]":
        """Self-time share of each span name in the traced op time."""
        total = sum(self.self_s.values())
        return {name: s / total for name, s in self.self_s.items()} \
            if total else {}

    def spans_jsonable(self) -> dict:
        return {"fields": ["span", "name", "start_s", "end_s", "parent",
                           "op"],
                "spans": self.spans}
