"""Tests of the benchmark's own code: inputs, ground truths, span arithmetic.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, DecideWide, spread_order, stratified  # noqa: E402


def _prefix(name: str, seed: int, n: int) -> list:
    return list(islice(WORKLOADS[name](run.fresh_import(), seed).ops(), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_are_deterministic(name):
    n = 450  # past the end of the first round, into the second
    first = _prefix(name, 7, n)
    assert first == _prefix(name, 7, n)
    assert first != _prefix(name, 8, n)


def test_spread_order_prefixes_cover_the_range():
    order = spread_order(300)
    assert sorted(order) == list(range(300))
    for k in (20, 75, 150):
        head = sorted(order[:k])
        # no gap between consecutive picked indices exceeds twice the average
        assert max(b - a for a, b in zip(head, head[1:])) <= 2 * 300 / k


def test_stratified_takes_from_every_block():
    import random

    picks = stratified(random.Random(3), 250, 5, 3)
    assert len(picks) == len(set(picks)) == 150
    assert all(sum(1 for p in picks if lo <= p < lo + 5) == 3 for lo in range(1, 251, 5))


def _scan(text: str):
    """Tail and per-point exponent vectors by direct ``value_at`` evaluation,
    over every point where a word of this workload can change value."""
    mods = run.fresh_import()
    from wreathembed.base_groups import exponent_vector
    from wreathembed.words import ZB_ALPHABET, parse_word

    a = mods["wreath"].from_word(parse_word(text, ZB_ALPHABET))
    reach = DecideWide.MAX_ETA + 3
    return a.tail, {
        nu: exponent_vector(mods["wreath"].value_at(a, nu)) for nu in range(-reach, reach + 1)
    }


def _vector_lt(u: dict, v: dict) -> bool:
    for key in sorted(set(u) | set(v)):
        if u.get(key, 0) != v.get(key, 0):
            return u.get(key, 0) < v.get(key, 0)
    return False


def test_decide_wide_truths_hold_under_direct_value_scan():
    wl = DecideWide(run.fresh_import(), 11)
    seen = set()
    for argv, expected in wl.first[:60]:
        kind = argv[0]
        seen.add(expected.split(" ")[0])
        if kind == "trivial":
            tail, values = _scan(argv[-1])
            trivial = tail == 0 and not any(values.values())
            assert trivial == (expected == "TRIVIAL"), argv
        elif kind == "member":
            tail, values = _scan(argv[-1])
            member = tail == 0 and not any(v for nu, v in values.items() if nu != 0)
            assert member == (expected == "MEMBER"), argv
        else:
            (tl, left), (tr, right) = _scan(argv[-2]), _scan(argv[-1])
            assert tl == tr == 0
            differ = [nu for nu in left if left[nu] != right[nu]]
            if not differ:
                assert expected == "EQ clause=equal", argv
                continue
            nu0 = differ[0]
            verdict = "LT" if _vector_lt(left[nu0], right[nu0]) else "GT"
            assert expected == f"{verdict} clause=value point={nu0}", argv
    assert seen == {"TRIVIAL", "NONTRIVIAL", "MEMBER", "NONMEMBER", "EQ", "LT", "GT"}


def test_self_times_on_hand_built_tree():
    tree = [
        ("bench.op", 0.0, 10.0, -1),
        ("twogen.semi_trivial", 1.0, 6.0, 0),
        ("wreath.semi_trivial", 2.0, 3.0, 1),
        ("wreath.semi_trivial", 4.0, 5.5, 1),
        ("base_groups.oracle", 7.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert spans.layer_self_times(tree) == pytest.approx(
        {"bench": 3.0, "twogen": 2.5, "wreath": 2.5, "base_groups": 2.0}
    )


def test_self_time_subtracts_child_coverage_not_child_sum():
    tree = [
        ("a.x", 0.0, 10.0, -1),
        ("b.y", 1.0, 5.0, 0),
        ("b.y", 3.0, 7.0, 0),  # overlaps its sibling: covered once
        ("b.y", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_tracer_restores_the_program():
    mods = run.fresh_import()
    before = {(layer, k): v for layer, m in mods.items() for k, v in vars(m).items()}
    enum_cls = mods["machines"].DovetailEnumeration
    halting = enum_cls.halting
    tracer = spans.Tracer(mods)
    tracer.install()
    assert mods["reductions"].merge_probe is not before[("reductions", "merge_probe")]
    assert mods["cli"].fs_compare is mods["orders"].fs_compare
    tracer.uninstall()
    after = {(layer, k): v for layer, m in mods.items() for k, v in vars(m).items()}
    assert after == before
    assert enum_cls.halting is halting


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_and_results_check(name):
    cls = WORKLOADS[name]
    ops = _prefix(name, 5, 12)
    runs = [run.trace_ops(cls, 5, ops) for _ in range(2)]
    for tracer, wl, results, _ in runs:
        assert all(wl.check(op, r) for op, r in zip(ops, results))
    (t1, *_), (t2, *_) = runs
    assert t1.rec.counts == t2.rec.counts
    m1, m2 = t1.metrics(1.0, 1.0), t2.metrics(1.0, 1.0)
    counted = [k for k, (_, unit) in m1.items() if unit == "count"]
    assert {k: m1[k] for k in counted} == {k: m2[k] for k in counted}
    assert len(t1.rec.spans()) == len(t2.rec.spans())


def test_times_scale_with_the_local_reference_speed():
    nominal = run.REF_NOMINAL_S
    durations = [0.010] * 30
    # the machine runs at half speed for the second half of the run
    refs = [nominal] * 15 + [2 * nominal] * 15
    out = run.scaled(durations, refs)
    assert out[:8] == pytest.approx([0.010] * 8)
    assert out[-8:] == pytest.approx([0.005] * 8)


def test_p95_leaves_ten_samples_beyond_it_at_200():
    values = list(range(200))
    assert run.p95(values) == 189
    assert sum(v > run.p95(values) for v in values) == 10
