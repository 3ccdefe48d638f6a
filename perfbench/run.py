"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus_sums --seed 7 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from
`src/` next to this directory, in this process, through the public CLI
entry point `iidtails.cli.main`.  One process with one thread is one
caller in a closed loop: each call starts when the previous one returns.

A run generates the workload's inputs from the seed, makes rounds over
the workload's units until `--seconds` have elapsed, judges every output
(invariants that hold for any seed, the stored reference verdicts, and
agreement between repeated runs of a unit), and prints as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of spec.END_TO_END, `--trace 1`
the per-layer metrics of spec.PER_LAYER, running every unit untraced and
then traced.  A run record (machine, versions, sizes, per-unit numbers)
goes to `.perfbench_out/`.  `--write-reference` regenerates the stored
reference verdicts for the default seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from statistics import median
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from spec import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 4

# the CPUs this process may run on, before pin_quietest_cpu narrows them
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else []

# the layer each workload is built to stress, checked against the trace
PREDICTIONS = {
    "corpus_sums": "checks.sweep_curves + checks.threshold_candidates "
                   "larger than any other layer",
    "corpus_maxima": "dists.path_max_curve is the largest layer",
    "verify_wide": "dists.convolve is the largest layer",
    "search_extremal": "search.* and dists.* both present, neither "
                       "above 60%",
    "counterexample_scan": "counterexample.* above 50%",
}


def _prediction_holds(workload, shares, groups) -> bool:
    top = max(shares, key=shares.get) if shares else None
    if workload == "corpus_sums":
        sweep = shares.get("checks.sweep_curves", 0) + \
            shares.get("checks.threshold_candidates", 0)
        others = [s for n, s in shares.items() if n not in (
            "checks.sweep_curves", "checks.threshold_candidates")]
        return sweep > max(others, default=0)
    if workload == "corpus_maxima":
        return top == "dists.path_max_curve"
    if workload == "verify_wide":
        return top == "dists.convolve"
    if workload == "search_extremal":
        s, d = groups.get("search", 0), groups.get("dists", 0)
        return 0 < s <= 0.6 and 0 < d <= 0.6
    return groups.get("counterexample", 0) > 0.5


# --- importing the program -----------------------------------------------

def import_cli():
    sys.path.insert(0, str(SRC))
    import iidtails.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "iidtails":
        raise RuntimeError(f"imported iidtails from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


def setup_child(workload, seed: int) -> int:
    """Child side of a setup sample: import, make inputs, say ready."""
    import_cli()
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        workload.prepare(workdir, seed)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_sample(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready:
    importing iidtails.cli (numpy, scipy) and generating the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup sample failed (exit {proc.returncode})")
    return elapsed


# --- units ---------------------------------------------------------------

class UnitRun:
    """One execution of one unit of a workload."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.probe_s = 0.0          # speed probe around the run, its CPU
        self.quiet_s = 0.0          # the same probe on a quiet machine
        self.ops = 0
        self.seconds = 0.0          # time inside iidtails.cli.main only
        self.content = {}           # call key -> {op key: decision}
        self.bad = {}               # call key -> op keys breaking invariants
        self.problems = []

    @property
    def quiet_seconds(self) -> float:
        """The run's time scaled to a quiet machine by the speed probe."""
        return self.seconds * self.quiet_s / self.probe_s


# --- machine speed ----------------------------------------------------------

PROBE_LAW = {Fraction(x, 12): Fraction(w, 61) for x, w in
             zip((-24, -15, -8, 2, 9, 18, 24), (5, 9, 13, 7, 11, 8, 8))}


def _convolve(a: dict, b: dict) -> dict:
    out = {}
    for x, p in a.items():
        for y, q in b.items():
            out[x + y] = out.get(x + y, 0) + p * q
    return out


@functools.cache
def _probe_power(n: int) -> dict:
    return PROBE_LAW if n == 1 else _convolve(_probe_power(n - 1), PROBE_LAW)


def _small_fractions():
    law = PROBE_LAW
    for _ in range(3):
        law = _convolve(law, PROBE_LAW)


def _large_fractions():
    _convolve(_probe_power(6), PROBE_LAW)


def _big_integers():
    m = 4437
    for b in range(0, m, 120):
        comb(m, b) * 2 ** (m - b)


# kernels of the instruction mix of the workloads (small Fractions and
# dicts; large Fractions; binomials of thousands of bits), and their time on
# a quiet 2-core Intel Xeon VM: a busy neighbour slows interpreter-bound
# code by up to 1.8x but big-integer arithmetic by only about 1.25x, so
# each workload is scaled by a kernel that slows like it
PROBES = {
    "small_fractions": (_small_fractions, 0.0053),
    "large_fractions": (_large_fractions, 0.0138),
    "big_integers": (_big_integers, 0.0101),
}


def speed_probe(kind: str) -> float:
    """Fastest of two runs of a fixed kernel, in seconds.  The kernels
    share no code with iidtails, so they measure the machine, not the
    program."""
    kernel = PROBES[kind][0]
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def pin_quietest_cpu(kind: str) -> "tuple[float, float]":
    """Probe every allowed CPU, pin this process to the fastest, and return
    its probe time with the probe's time on a quiet machine.

    On a shared VM each virtual CPU slows by up to 1.8x, independently and
    in phases from under a second to longer than a run, while other tenants
    load the machine.  Only this process's affinity changes."""
    if len(CPUS) < 2:
        return speed_probe(kind), PROBES[kind][1]
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probe_s = speed_probe(kind)
        if best is None or probe_s < best[0]:
            best = (probe_s, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0], PROBES[kind][1]


def run_unit(cli, workload, index, calls, workdir, tracer=None,
             probe_kind=None) -> UnitRun:
    """Run the unit's calls and judge them.  With `probe_kind`, first move
    to the quietest CPU, and record the mean of the speed probes taken just
    before and just after the calls."""
    result = UnitRun(index, tracer is not None)
    if probe_kind is not None:
        before, result.quiet_s = pin_quietest_cpu(probe_kind)
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id += 1
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(call.argv))
        except Exception as exc:  # a crash is a failed op, not a dead run
            code = f"exception {exc!r}"
        result.seconds += perf_counter() - start
        outcome = judge(workload, call, code, out.getvalue(), err.getvalue(),
                        workdir)
        result.ops += outcome.ops
        result.content[call.key] = outcome.content
        result.bad[call.key] = outcome.bad
        result.problems.extend(outcome.problems)
    if probe_kind is not None:
        result.probe_s = (before + speed_probe(probe_kind)) / 2
    return result


def judge(workload, call, code, stdout, stderr, workdir) -> Outcome:
    if code != call.expect_exit:
        where = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(1, {}, {call.key}, [
            f"{call.key}: exit {code}, expected {call.expect_exit} "
            f"{where[0]}"])
    try:
        return workload.judge(call, stdout, workdir)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(1, {}, {call.key},
                       [f"{call.key}: unreadable output ({exc!r})"])


def digest(op_key: str, decision) -> str:
    text = f"{op_key}\0{json.dumps(decision)}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def tally(runs, expected) -> "tuple[int, int, list[str]]":
    """(attempted, failed, problems) over all unit executions.

    `expected` maps a call key to the digests of its decisions; a call
    missing from it learns them from its first execution, so repeated
    executions must agree.  An op fails when it breaks an invariant or its
    decision is not among the expected ones; expected decisions that no op
    produced count as attempted and failed."""
    attempted = failed = 0
    problems = []
    for run in runs:
        attempted += run.ops
        for key, content in run.content.items():
            got = {k: digest(k, v) for k, v in content.items()}
            want = expected.setdefault(key, set(got.values()))
            wrong = {k for k, d in got.items() if d not in want}
            missing = max(0, len(want - set(got.values())) - len(wrong))
            attempted += missing
            failed += len(run.bad[key] | wrong) + missing
            if wrong or missing:
                problems.append(f"{key}: {len(wrong) + missing} decisions "
                                "differ from the expected verdicts")
        problems.extend(run.problems)
    return attempted, failed, problems


def load_reference(name: str, workload) -> dict:
    path = REFERENCE / f"{name}.json"
    doc = json.loads(path.read_text())
    if doc["sizes"] != json.loads(json.dumps(workload.sizes())):
        raise RuntimeError(f"{path.name} was made for other sizes; "
                           "regenerate it with --write-reference")
    return {key: set(ds) for key, ds in doc["decisions"].items()}


# --- run record ------------------------------------------------------------

def _git(*args) -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _cpu_model() -> "str | None":
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_digest() -> str:
    """sha256 over the program's sources, so a record names the program
    version also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(name: str, seed: int, workload, seconds: float) -> dict:
    import numpy
    import scipy
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "sizes": workload.sizes(),
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- main --------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="store the default seed's verdicts as the reference")
    return p.parse_args(argv)


def timed_rounds(cli, workload, units, workdir, seconds, tracer):
    """Rounds over all units until `seconds` have elapsed; at least one.
    Every unit run is probed for machine speed.  With a tracer each unit
    runs untraced and then traced."""
    runs = []
    deadline = perf_counter() + seconds
    while True:
        for index, calls in enumerate(units):
            runs.append(run_unit(cli, workload, index, calls, workdir,
                                 probe_kind=workload.probe))
            if tracer is not None:
                tracer.install()
                try:
                    runs.append(run_unit(cli, workload, index, calls,
                                         workdir, tracer, workload.probe))
                finally:
                    tracer.uninstall()
        if perf_counter() >= deadline:
            return runs


def median_rate(runs, quiet=True) -> float:
    """Ops per second over all units, each unit timed by the median of its
    runs, each run scaled to a quiet machine by its speed probe.

    Slow phases of a shared machine last from under a second to longer
    than a run and slow some instruction mixes more than others; the probe
    of the unit's own mix around each run removes most of them, and the
    median the rest."""
    times = {}
    for r in runs:
        times.setdefault(r.index, (r.ops, []))[1].append(
            r.quiet_seconds if quiet else r.seconds)
    return sum(ops for ops, _ in times.values()) / \
        sum(median(ts) for _, ts in times.values())


def print_layers(name, tracer, rounds, overhead) -> None:
    shares = tracer.shares()
    groups = {}
    for layer, share in shares.items():
        module = layer.split(".")[0]
        groups[module] = groups.get(module, 0) + share
    print(f"{name}: self-time shares over {rounds} traced rounds")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {layer:42s} {share:7.1%}")
    print("  by module: " + ", ".join(
        f"{m} {s:.1%}" for m, s in sorted(groups.items(),
                                         key=lambda kv: -kv[1])))
    print(f"  trace.overhead_frac {overhead:.3f}")
    verdict = "confirmed" if _prediction_holds(name, shares, groups) \
        else "NOT confirmed"
    print(f"  predicted: {PREDICTIONS[name]} -> {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "iidtails" / "cli.py").is_file():
        print(f"error: no iidtails sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_child(workload, args.seed)

    # setup samples are split around the timed rounds, so that they see
    # more of the machine's slow and quiet phases
    setup = []
    sample_setup = not args.trace and not args.write_reference

    def take_setup_samples(n: int) -> None:
        for _ in range(n if sample_setup else 0):
            pin_quietest_cpu("small_fractions")  # inherited by the child
            setup.append(setup_sample(args.workload, args.seed))

    take_setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    cli = import_cli()
    seed = DEFAULT_SEED if args.write_reference else args.seed
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        units = workload.prepare(workdir, seed)
        if args.write_reference:
            runs = [run_unit(cli, workload, i, unit, workdir)
                    for i, unit in enumerate(units)]
        else:
            runs = timed_rounds(cli, workload, units, workdir,
                                args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    take_setup_samples(SETUP_SAMPLES // 2)

    if args.write_reference:
        return write_reference(args.workload, workload, runs)

    expected = load_reference(args.workload, workload) \
        if seed == DEFAULT_SEED or not workload.seeded else {}
    attempted, failed, problems = tally(runs, expected)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    plain = [r for r in runs if not r.traced]
    rounds = len(plain) // len(units)
    ops_per_s = median_rate(plain)
    wall_ops_per_s = median_rate(plain, quiet=False)
    print(f"{rounds} rounds over {len(units)} units, median run of each: "
          f"{ops_per_s:.5g} ops/s scaled to a quiet machine, "
          f"{wall_ops_per_s:.5g} by the wall clock")
    probes = sorted(r.probe_s for r in plain)
    print(f"{workload.probe} speed probe {probes[0] * 1e3:.2f} to "
          f"{probes[-1] * 1e3:.2f} ms")
    if args.trace:
        overhead = ops_per_s / median_rate([r for r in runs if r.traced]) - 1
        print_layers(args.workload, tracer, rounds, overhead)
        values = tracer.metrics(rounds, overhead)
        units_of = {n: u for n, u, _ in PER_LAYER}
    else:
        values = {"ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb,
                  "setup_s": median(setup)}
        units_of = {n: u for n, u, _, _ in END_TO_END}
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in units_of.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    record = run_record(args.workload, seed, workload, args.seconds)
    record.update({
        "setup_samples_s": setup,
        "wall_ops_per_s": wall_ops_per_s,
        "units": [{"unit": r.index, "traced": r.traced, "ops": r.ops,
                   "seconds": r.seconds, "probe_s": r.probe_s}
                  for r in runs],
        "result": result,
    })
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(
            json.dumps(tracer.spans_jsonable()) + "\n")
    print(f"run record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def write_reference(name, workload, runs) -> int:
    problems = [p for r in runs for p in r.problems]
    if problems:
        print("error: the reference runs break invariants: "
              + "; ".join(problems[:5]), file=sys.stderr)
        return 1
    decisions = {key: sorted(digest(k, v) for k, v in content.items())
                 for r in runs for key, content in r.content.items()}
    REFERENCE.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": DEFAULT_SEED, "sizes": workload.sizes(),
           "decisions": decisions}
    path = REFERENCE / f"{name}.json"
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: "
          f"{sum(len(d) for d in decisions.values())} decisions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
