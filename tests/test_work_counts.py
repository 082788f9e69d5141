"""Traced work counts: every benchmark workload must do the recorded work.

``tests/data/work_counts.json`` holds, for each workload of ``perfbench``
traced at seed 101, the ``verdicts:`` line and every metric whose unit is
``count`` (points scanned, oracle calls, enumeration fetches, ticks, ...).
The test reruns each traced workload in a fresh interpreter and compares
both, so a change that does more or less work, or answers differently,
shows up as a diff against the file.  Times are not compared.

Re-record (only when a change of work is intended) from the repository root:

    python tests/test_work_counts.py --record
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "data" / "work_counts.json"
WORKLOADS = ["probe-mock", "separate-mock", "decide-wide", "probe-halting"]
SEED = 101


def traced_counts(workload: str) -> dict:
    """The verdicts line and the count metrics of one traced run."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 0, done.stderr
    verdicts = next(line for line in lines if line.startswith("verdicts: "))
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    return {"verdicts": verdicts, "counts": dict(sorted(counts.items()))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_are_unchanged(workload):
    assert traced_counts(workload) == json.loads(RECORDED.read_text())[workload]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_work_counts.py --record")
    recorded = {workload: traced_counts(workload) for workload in WORKLOADS}
    RECORDED.write_text(json.dumps(recorded, indent=2) + "\n")
