"""Run the benchmark over several seeds and print one table per workload.

    python3 perfbench/summary.py                       # every workload, 10 seeds
    python3 perfbench/summary.py --workloads verify_wide --runs 5
    python3 perfbench/summary.py --trace 1 --runs 3    # per-layer metrics
    python3 perfbench/summary.py --out perfbench/baselines/seed.json

Each run is a fresh `python3 perfbench/run.py` process; the seeds are the
default seed followed by 1, 2, ...  For every end-to-end metric the table
gives the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound; failed_frac is failed ops over
attempted ops summed over the runs.  A run that exits non-zero or prints no
result stops the summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from spec import END_TO_END, PER_LAYER, RUN_SECONDS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINE_KEYS = ("git_sha", "git_dirty", "src_sha256", "python", "numpy",
                "scipy", "nproc", "cpu_model", "threads_env")


def run_once(workload: str, seed: int, trace: int) -> "tuple[dict, str]":
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), proc.stdout


def spread(values) -> "tuple[float, float, float, float]":
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return mid, q1, q3, (q3 - q1) / mid


def summarize(workload: str, results: "list[dict]", trace: int) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n{workload}: {len(results)} runs, "
          f"failed_frac {failed / attempted:.3g} ({failed}/{attempted} ops), "
          f"correct in {sum(r['correct'] for r in results)}")
    out = {"failed_frac": failed / attempted, "metrics": {}}
    if trace:
        for name, unit, _ in PER_LAYER:
            mid = median(r["metrics"][name]["value"] for r in results)
            out["metrics"][name] = {"median": mid, "unit": unit}
            print(f"  {name:44s} {mid:12.5g} {unit}")
        return out
    print(f"  {'metric':12s} {'unit':5s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name, unit, _, bound in END_TO_END:
        mid, q1, q3, sp = spread([r["metrics"][name]["value"]
                                  for r in results])
        verdict = ("steady" if sp < bound / 3 else
                   "within bound" if sp <= bound else "TOO WIDE")
        print(f"  {name:12s} {unit:5s} {mid:10.5g} {q1:10.5g} {q3:10.5g} "
              f"{sp:7.2%} {bound:6.2f}  {verdict}")
        out["metrics"][name] = {"median": mid, "q1": q1, "q3": q3,
                                "spread": sp, "unit": unit, "bound": bound}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="write every result and the summary as JSON here")
    args = p.parse_args(argv)
    seeds = [DEFAULT_SEED] + list(range(1, args.runs))
    report = {"run_seconds": RUN_SECONDS, "trace": args.trace,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, stdout = run_once(workload, seed, args.trace)
            results.append(result)
            if args.trace and len(results) == 1:
                # the dominant-layer printout of the first run
                print("".join(line + "\n" for line in
                              stdout.splitlines()[:-2]), end="")
        summary = summarize(workload, results, args.trace)
        record = json.loads((ROOT / ".perfbench_out" / (
            f"{workload}-seed{seeds[-1]}-trace{args.trace}.json"))
            .read_text())
        report.setdefault("machine", {k: record[k] for k in MACHINE_KEYS})
        report["workloads"][workload] = {"sizes": record["sizes"],
                                         "results": results, **summary}
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
