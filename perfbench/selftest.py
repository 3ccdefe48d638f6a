"""Self-tests of the benchmark harness (not of iidtails).

    python3 perfbench/selftest.py

Checks that
* BENCHMARK.json is what spec.py generates;
* every stored reference was made for the current workload sizes;
* the reference comparison counts a single perturbed margin as exactly one
  failed op, and the unperturbed reference as none;
* a traced and an untraced run of every unit give identical decisions, so
  tracing cannot change results;
* run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import spec
from layers import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_spec() -> None:
    text = spec.SPEC_PATH.read_text() if spec.SPEC_PATH.is_file() else ""
    check(text == spec.render(), "BENCHMARK.json matches spec.py")


def check_perturbed_reference(cli, workdir) -> None:
    workload = WORKLOADS["corpus_sums"]
    calls = workload.prepare(workdir, DEFAULT_SEED)[0]
    result = run.run_unit(cli, workload, 0, calls, workdir)
    (key, content), = result.content.items()
    stored = run.load_reference("corpus_sums", workload)
    attempted, failed, _ = run.tally([result], {key: stored[key]})
    check(failed == 0 and attempted == result.ops,
          f"corpus_sums {key}: {attempted} ops match the stored reference")

    op, (violated, margin) = next((k, v) for k, v in content.items()
                                  if v[1] is not None)
    perturbed = dict(content)
    perturbed[op] = [violated, str(Fraction(margin) + Fraction(1, 10**9))]
    want = {key: {run.digest(k, v) for k, v in perturbed.items()}}
    attempted, failed, problems = run.tally([result], want)
    check(failed == 1 and attempted == result.ops,
          f"one perturbed margin is one failed op (failed={failed})")


def check_tracing_is_transparent(cli, workdir) -> None:
    for name, workload in WORKLOADS.items():
        units = workload.prepare(workdir / name, DEFAULT_SEED)
        tracer = Tracer()
        same = True
        for i, calls in enumerate(units):
            plain = run.run_unit(cli, workload, i, calls, workdir / name)
            tracer.install()
            try:
                traced = run.run_unit(cli, workload, i, calls, workdir / name,
                                      tracer)
            finally:
                tracer.uninstall()
            same &= plain.content == traced.content and \
                not plain.problems and not traced.problems
        check(same and tracer.spans,
              f"{name}: traced and untraced decisions identical over "
              f"{len(units)} units ({len(tracer.spans)} spans)")


def check_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(spec.SPEC_PATH, bare / spec.SPEC_PATH.name)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "corpus_sums", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{")
                         for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          f"without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    check_spec()
    for name, workload in WORKLOADS.items():
        doc = json.loads((run.REFERENCE / f"{name}.json").read_text())
        check(doc["sizes"] == json.loads(json.dumps(workload.sizes())),
              f"reference/{name}.json matches the workload sizes")
    cli = run.import_cli()
    workdir = run.WORK / "selftest"
    try:
        check_perturbed_reference(cli, workdir / "perturbed")
        check_tracing_is_transparent(cli, workdir / "traced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
