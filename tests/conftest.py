import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(TESTS))

# Runs `-m MODULE ARGS` or `SCRIPT ARGS` as python itself would and then,
# however the program exits, writes which of numpy and scipy it loaded to
# the file named first.
_BOOT = """\
import os, runpy, sys
log, sys.argv = sys.argv[1], sys.argv[2:]
try:
    if sys.argv[0] == "-m":
        del sys.argv[0]
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = os.path.dirname(os.path.abspath(sys.argv[0]))
        runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    with open(log, "w") as fh:
        fh.write(" ".join(sorted({m.partition(".")[0] for m in sys.modules}
                                 & {"numpy", "scipy"})))
"""


class Ran(NamedTuple):
    code: int
    out: str
    err: str
    loaded: "frozenset | None"   # which of numpy and scipy were imported


def run_fresh(argv, files=None, optimize=False, cwd=None) -> Ran:
    """Run `python [-O] ARGV` (ARGV is `-m MODULE ...` or `SCRIPT ...`) in
    a fresh interpreter that imports iidtails from src/, in cwd, after
    writing files there (name: text or bytes).  loaded is None when the
    program never got to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, data in (files or {}).items():
        Path(cwd, name).write_bytes(
            data if isinstance(data, bytes) else data.encode())
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp, "loaded")
        proc = subprocess.run(
            [sys.executable, *(["-O"] if optimize else []), "-c", _BOOT,
             str(log), *map(str, argv)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        loaded = frozenset(log.read_text().split()) if log.exists() else None
    return Ran(proc.returncode, proc.stdout, proc.stderr, loaded)


@pytest.fixture
def fresh():
    """The one fresh-process runner of the suite (run_fresh)."""
    return run_fresh
