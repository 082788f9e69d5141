"""Every demo must exit 0 and print the bytes recorded in ``tests/data/demos``.

Each ``demos/<name>.py`` runs in a fresh interpreter, with warnings turned
into errors, and its standard output is compared with
``tests/data/demos/<name>.txt``.  Re-record (only when an output change is
intended) from the repository root:

    for d in demos/*.py; do
        PYTHONPATH=src python "$d" > "tests/data/demos/$(basename "$d" .py).txt"
    done
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()
