"""Smoke test: every demo script runs to completion and prints something."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(fresh, demo):
    ran = fresh((demo,), cwd=ROOT)
    assert ran.code == 0, ran.err
    assert ran.out.strip()
