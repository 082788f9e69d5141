"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload probe-mock --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it times a closed loop (one client, one thread, the next
operation starts when the previous one returns) for ``--seconds`` seconds
and prints the end-to-end metrics.  With ``--trace 1`` it runs the first
``TRACED_OPS`` operations of the same stream twice, untraced and then
traced, and prints the per-layer metrics.  Every result is checked against
the truth the workload knows by construction.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5  # setup_s is the median of this many fresh imports and builds
MIN_OPS = 200  # so that p95 has at least ten samples beyond it
MAX_MEASURE_S = 120  # hard stop for MIN_OPS on a slow machine
TRACED_OPS = 200

# A shared host's CPU speed can drift by up to 2x within minutes, so times are
# scaled to a nominal speed: before each operation (and around each set-up)
# the benchmark times a fixed reference loop, and a time t is reported as
# t * REF_NOMINAL_S / (local median of that loop's time).
REF_ITERS = 8_000
REF_NOMINAL_S = 2.0e-3
REF_WINDOW = 5  # reference samples on each side of an operation


def fresh_import() -> dict:
    """Drop every loaded ``wreathembed`` module and import the layers anew.

    A fresh import also resets the process-wide caches (the shared
    enumeration, the prime list) that a CLI user pays for on every call.
    """
    for name in [m for m in sys.modules if m == "wreathembed" or m.startswith("wreathembed.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"wreathembed.{layer}") for layer in LAYERS}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported wreathembed from {where}, not from {SRC}")
    return mods


def attempt(wl, op, record: Counter) -> tuple[float, bool]:
    """Time one operation and check it; returns (seconds, correct).

    An operation that raises, or whose check raises, counts as wrong and
    never stops the run.
    """
    t0 = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception:
        dt = time.perf_counter() - t0
        record["ERROR"] += 1
        if record["ERROR"] <= 3:
            traceback.print_exc()
        return dt, False
    dt = time.perf_counter() - t0
    return dt, judge(wl, op, result, record)


def judge(wl, op, result, record: Counter) -> bool:
    try:
        record[wl.verdict(result)] += 1
        ok = bool(wl.check(op, result))
    except Exception:
        traceback.print_exc()
        return False
    if not ok:
        print(f"wrong result for {op!r}: {result!r}", file=sys.stderr)
    return ok


def reference() -> float:
    """Seconds taken by a fixed loop that touches nothing of the program.

    It fills a dict with tuples holding shifted big integers, the same kinds
    of work the layers do, so that it slows down under contention from other
    tenants about as much as the workloads do.
    """
    t0 = time.perf_counter()
    table = {}
    big = 1 << 200
    for i in range(REF_ITERS):
        table[(i * 2654435761) & 0xFFFF] = (big >> (i & 63), i)
    return time.perf_counter() - t0


def scaled(durations: list[float], refs: list[float]) -> list[float]:
    """Each duration at the nominal speed, from the reference samples taken
    nearest to it (``refs[i]`` was taken just before ``durations[i]``)."""
    out = []
    for i, dt in enumerate(durations):
        local = refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]
        out.append(dt * REF_NOMINAL_S / statistics.median(local))
    return out


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)]


def timed_run(cls, seed: int, seconds: float, record: Counter) -> tuple[int, int, dict, dict]:
    """Returns attempted, failed, the metrics at nominal speed, and the raw
    (unscaled) times."""
    setups, setup_refs = [], [reference()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = cls(fresh_import(), seed)
        setups.append(time.perf_counter() - t0)
        setup_refs.append(reference())
    durations, refs, failed = [], [], 0
    stream = wl.ops()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(durations) >= MIN_OPS or elapsed >= MAX_MEASURE_S:
            break
        refs.append(reference())
        dt, ok = attempt(wl, next(stream), record)
        durations.append(dt)
        failed += not ok
    n = len(durations)
    setup_scale = REF_NOMINAL_S / statistics.median(setup_refs)
    times = {
        "ops_per_s": lambda d: n / sum(d),
        "op_p50_ms": lambda d: statistics.median(d) * 1e3,
        "op_p95_ms": lambda d: p95(d) * 1e3,
    }
    norm = scaled(durations, refs)
    metrics = {
        "ops_per_s": (times["ops_per_s"](norm), "1/s"),
        "op_p50_ms": (times["op_p50_ms"](norm), "ms"),
        "op_p95_ms": (times["op_p95_ms"](norm), "ms"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }
    raw = {k: f(durations) for k, f in times.items()}
    raw["setup_s"] = statistics.median(setups)
    raw["ref_ms"] = statistics.median(refs) * 1e3
    return n, failed, metrics, raw


def trace_ops(cls, seed: int, ops: list) -> tuple[Tracer, object, list, float]:
    """Run ``ops`` traced on a fresh import.

    Returns the tracer (already uninstalled), the workload, the results
    (an exception stands for an operation that raised) and the summed
    operation time at nominal speed.
    """
    mods = fresh_import()
    tracer = Tracer(mods)
    tracer.install()
    try:
        wl = cls(mods, seed, count_enum=tracer.count_enum)
        tracer.rec.clear()
        run = tracer.rec.wrap("bench", "op", wl.run)
        results, durations, refs = [], [], []
        for op in ops:
            refs.append(reference())
            t0 = time.perf_counter()
            try:
                results.append(run(op))
            except Exception as exc:
                traceback.print_exc()
                results.append(exc)
            durations.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    return tracer, wl, results, sum(scaled(durations, refs))


def traced_run(cls, name: str, seed: int, record: Counter) -> tuple[int, int, dict]:
    wl = cls(fresh_import(), seed)
    ops = list(islice(wl.ops(), TRACED_OPS))
    failed, durations, refs = 0, [], []
    for op in ops:
        refs.append(reference())
        dt, ok = attempt(wl, op, Counter())
        durations.append(dt)
        failed += not ok

    tracer, wl, results, traced_s = trace_ops(cls, seed, ops)
    metrics = tracer.metrics(traced_s, sum(scaled(durations, refs)))
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            record["ERROR"] += 1
            failed += 1
        else:
            failed += not judge(wl, op, result, record)
    OUT.mkdir(exist_ok=True)
    tracer.rec.dump(OUT / f"trace-{name}-{seed}.json")
    return len(ops), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wreathembed" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'wreathembed'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    record: Counter = Counter()
    if args.trace:
        attempted, failed, metrics = traced_run(cls, args.workload, args.seed, record)
    else:
        attempted, failed, metrics, raw = timed_run(cls, args.seed, args.seconds, record)
        print("raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print("verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(record.items())))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
