"""Acceptance suite: ten exact-arithmetic criteria, one reported line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every check is exact (integer arithmetic throughout); the
stated sample sizes are minimums and the random generators are seeded, so
repeated runs are identical.
"""

import json
import random
import subprocess
import sys

from oracles import (
    check_order_axioms,
    free_abelian_trivial,
    fs_support_by_compare,
    insep_trivial,
    insep_trivial_bruteforce,
)
from wreathembed import machines, reductions, twogen, wreath
from wreathembed.base_groups import (
    exponent_vector,
    free_abelian_oracle,
    halting_pair,
    mock_pair,
)
from wreathembed.orders import (
    fs_compare,
    lex_order,
    lifted_order,
)
from wreathembed.twogen import FSElement
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Word,
    commutator,
    parse_word,
)
from wreathembed.wreath import ZBElement


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand_xword(rng: random.Random, max_letters: int = 12, max_index: int = 8) -> Word:
    runs = [
        ("x", rng.randint(1, max_index), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, max_letters // 2))
    ]
    return Word.make(X_ALPHABET, runs)


def _rand_fs_element(rng: random.Random, max_factors: int = 10) -> twogen.FSElement:
    factors = [
        (rng.randint(-16, 16), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        for _ in range(rng.randint(0, max_factors))
    ]
    return twogen.FSElement.make(factors, rng.randint(-5, 5))


def _rand_fsword(rng: random.Random, max_letters: int = 4) -> Word:
    runs = [
        (rng.choice("fs"), None, rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(1, max_letters))
    ]
    return Word.make(FS_ALPHABET, runs)


def test_criterion_1_generator_evaluation_grid():
    """Each embedded generator is supported exactly at 1, carrying [z, b_i]."""
    checks = failures = 0
    for i in range(1, 7):
        element = FSElement.from_word(twogen.generator_word(i))
        expected = ZBElement.from_word(parse_word(f"z b{i} z^-1 b{i}^-1", ZB_ALPHABET))
        for mu in range(-8, 9):
            checks += 1
            value = twogen.value_at(element, mu)
            want = expected if mu == 1 else wreath.ZBElement.make([], 0)
            if value != want:
                failures += 1
    _report(1, failures == 0, f"{checks - failures}/{checks} grid points, i <= 6, mu in [-8, 8]")


def test_criterion_2_triviality_transfer():
    """A base word dies under the embedding exactly when it dies in the base."""
    rng = random.Random(102)
    oracle = free_abelian_oracle()
    mismatches = total = 0
    for _ in range(500):
        u = _rand_xword(rng)
        for w in (u, u * ~u):
            total += 1
            embedded = twogen.is_trivial(twogen.encode_word(w), oracle)
            direct = free_abelian_trivial(w)
            if embedded != direct:
                mismatches += 1
    _report(2, total >= 1000 and mismatches == 0, f"{total} words, {mismatches} mismatches")


def test_criterion_3_homomorphism_and_group_axioms():
    """encode is multiplicative; normal forms satisfy the group laws."""
    rng = random.Random(103)
    hom_bad = 0
    for _ in range(1000):
        u, v = _rand_xword(rng), _rand_xword(rng)
        if twogen.encode_word(u * v) != twogen.encode_word(u) * twogen.encode_word(v):
            hom_bad += 1
    one = twogen.FSElement.make([], 0)
    law_bad = 0
    for _ in range(1000):
        a, b, c = (_rand_fs_element(rng) for _ in range(3))
        ok = (
            (a * b) * c == a * (b * c)
            and a * one == a == one * a
            and a * ~a == one == ~a * a
        )
        if not ok:
            law_bad += 1
    _report(
        3,
        hom_bad == 0 and law_bad == 0,
        f"1000 product pairs ({hom_bad} bad), 1000 axiom triples ({law_bad} bad)",
    )


def test_criterion_4_membership_and_decoding():
    """Images are recognized and decoded; near-misses are rejected."""
    rng = random.Random(104)
    oracle = free_abelian_oracle()
    bad = 0
    for _ in range(500):
        w = _rand_xword(rng)
        g = twogen.encode_word(w)
        if not twogen.in_image(g, oracle):
            bad += 1
            continue
        if exponent_vector(twogen.decode(g, oracle)) != exponent_vector(w):
            bad += 1
    s_conj = (
        FSElement.from_word(parse_word("s", FS_ALPHABET))
        * twogen.encode_word(parse_word("x1", X_ALPHABET))
        * FSElement.from_word(parse_word("s^-1", FS_ALPHABET))
    )
    rejects = [
        FSElement.from_word(parse_word("s^2", FS_ALPHABET)),
        FSElement.from_word(parse_word("s^-1", FS_ALPHABET)),
        FSElement.from_word(parse_word("f", FS_ALPHABET)),
        s_conj,
    ]
    rejected = sum(0 if twogen.in_image(g, oracle) else 1 for g in rejects)
    _report(
        4,
        bad == 0 and rejected == len(rejects),
        f"500 round trips ({bad} bad), {rejected}/{len(rejects)} impostors rejected",
    )


def test_criterion_5_solvability_laws():
    """Doubly iterated commutators survive; triply iterated ones all die."""
    rng = random.Random(105)
    oracle = free_abelian_oracle()
    P = lambda t: parse_word(t, FS_ALPHABET)
    witnesses = [
        commutator(commutator(P("s"), P("f")), commutator(P("s^3"), P("f"))),
        commutator(commutator(P("f"), P("s")), commutator(P("f"), P("s^2"))),
    ]
    found = sum(0 if twogen.is_trivial(FSElement.from_word(w), oracle) else 1 for w in witnesses)
    deep_bad = 0
    for _ in range(200):
        inner = [commutator(_rand_fsword(rng), _rand_fsword(rng)) for _ in range(4)]
        deep = commutator(commutator(inner[0], inner[1]), commutator(inner[2], inner[3]))
        if not twogen.is_trivial(FSElement.from_word(deep), oracle):
            deep_bad += 1
    _report(
        5,
        found >= 1 and deep_bad == 0,
        f"200 depth-3 commutators trivial ({deep_bad} bad), {found} depth-2 witnesses",
    )


def test_criterion_6_order_properties():
    """The lifted order is total, transitive, bi-invariant, and extends lex."""
    rng = random.Random(106)
    oracle = free_abelian_oracle()
    order = lex_order()

    def less(a, b):
        return fs_compare(a, b, order, oracle)[0] == "LT"

    total_bad = 0
    for k in range(1000):
        a, b = _rand_fs_element(rng), _rand_fs_element(rng)
        if k % 2:
            b = twogen.FSElement.make(b.factors, a.tail)
        verdict, _, _ = fs_compare(a, b, order, oracle)
        outcomes = (less(a, b), less(b, a), verdict == "EQ")
        if sum(outcomes) != 1 or (verdict == "EQ") != twogen.is_trivial(a * ~b, oracle):
            total_bad += 1
    trans_bad = trans_hits = 0
    for k in range(1000):
        tail = rng.randint(-2, 2) if k % 2 else None
        triple = []
        for _ in range(3):
            g = _rand_fs_element(rng, max_factors=4)
            triple.append(g if tail is None else twogen.FSElement.make(g.factors, tail))
        a, b, c = triple
        if less(a, b) and less(b, c):
            trans_hits += 1
            if not less(a, c):
                trans_bad += 1
    inv_bad = inv_hits = 0
    for _ in range(1000):
        a, b, c, d = (_rand_fs_element(rng, max_factors=4) for _ in range(4))
        if less(a, b):
            inv_hits += 1
            if not less(c * a * d, c * b * d):
                inv_bad += 1
    ext_bad = 0
    for _ in range(500):
        u, v = _rand_xword(rng), _rand_xword(rng)
        encoded = fs_compare(twogen.encode_word(u), twogen.encode_word(v), order, oracle)
        if order.compare(u, v) != encoded[0]:
            ext_bad += 1
    sample = [_rand_fs_element(rng, max_factors=3).to_word() for _ in range(40)]
    lifted = lifted_order(oracle, order)
    report = check_order_axioms(
        sample,
        lambda u, v: lifted.compare(u, v) == "LT",
        lambda w: twogen.is_trivial(FSElement.from_word(w), oracle),
    )
    ok = (
        total_bad == 0
        and trans_bad == 0
        and trans_hits >= 50
        and inv_bad == 0
        and inv_hits >= 100
        and ext_bad == 0
        and report.ok
    )
    _report(
        6,
        ok,
        "totality 1000 pairs, transitivity "
        f"{trans_hits} chains, bi-invariance {inv_hits} cases, 500 base pairs, "
        f"axiom report {report.checked} checks {len(report.violations)} violations",
    )


def test_criterion_7_pair_decider_matches_bruteforce():
    """The pair-by-pair ratio decider agrees with the adapted-basis rewrite."""
    rng = random.Random(107)
    pair = mock_pair()
    disagreements = 0
    for _ in range(1000):
        runs = [
            ("a", rng.randint(1, 20), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 13))
        ]
        w = Word.make(A_ALPHABET, runs)
        if insep_trivial(w, pair) != insep_trivial_bruteforce(w, pair):
            disagreements += 1
    _report(7, disagreements == 0, f"1000 words up to 40 letters, {disagreements} disagreements")


def test_criterion_8_separation_sweep():
    """Order-based separation classifies the first 50 indices with no errors."""
    entries = reductions.separation_report(mock_pair(), 50)
    sides_ok = all(
        entry.side == ("n" if entry.n % 2 else "m") and entry.separated == (entry.n % 2 == 1)
        for entry in entries
    )
    violations = sum(not entry.consistent for entry in entries)
    ok = len(entries) == 50 and not violations and sides_ok
    _report(8, ok, f"{len(entries)} entries, {violations} violations")


def test_criterion_9_probe_soundness_and_completeness():
    """Merge probes certify exactly the enumerated indices, never falsely."""
    pair = mock_pair()
    probes = false_pos = missed = unstable = 0
    for n in range(1, 251):
        first = reductions.merge_probe(n, pair.enum_n, 200)
        second = reductions.merge_probe(n, pair.enum_n, 400)
        probes += 2
        expected = n % 2 == 1
        if first.trivial and not expected:
            false_pos += 1
        if expected and not first.trivial:
            missed += 1
        if first.trivial and not second.trivial:
            unstable += 1
    hp = halting_pair()
    halting_known = [
        g
        for g in range(1, 41)
        if machines.run_status(machines.index_to_program(g), 100_000)[0] == "halt"
    ]
    cycling_known = [
        g
        for g in range(1, 41)
        if machines.run_status(machines.index_to_program(g), 100_000)[0] == "cycle"
    ]
    halt_missed = sum(
        0 if reductions.merge_probe(g, hp.enum_n, 10_000).trivial else 1 for g in halting_known
    )
    cycle_false = sum(
        1 if reductions.merge_probe(g, hp.enum_n, 2_000).trivial else 0 for g in cycling_known
    )
    ok = (
        false_pos == 0
        and missed == 0
        and unstable == 0
        and len(halting_known) >= 10
        and halt_missed == 0
        and cycle_false == 0
    )
    _report(
        9,
        ok,
        f"{probes} mock probes ({false_pos} false, {missed} missed), "
        f"{len(halting_known)} halting programs certified, "
        f"{len(cycling_known)} cycling programs still open",
    )


def test_criterion_10_determinism_and_support_scan():
    """CLI output is byte-stable; the lifted compare against the identity
    decides at the least support point a brute-force scan finds."""
    commands = [
        ("normalize", "--group", "G", "f s f s^-1"),
        ("demo", "theorem1", "--max-n", "8"),
        ("--output", "structured", "demo", "theorem2", "--max-n", "4", "--fuel", "8"),
    ]
    stable = True
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "wreathembed", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            stable = False
        for line in runs[0].stdout.splitlines():
            if line.startswith(b"{"):
                json.loads(line)
    rng = random.Random(110)
    oracle = free_abelian_oracle()
    scan_bad = 0
    for _ in range(200):
        factors = [
            (rng.randint(-8, 8), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 6))
        ]
        element = twogen.FSElement.make(factors, rng.randint(-2, 2))
        fast = fs_support_by_compare(element, oracle)
        slow = None
        for mu in range(-4096, 4097):
            if not wreath.is_trivial(twogen.value_at(element, mu), oracle):
                slow = mu
                break
        if fast != slow:
            scan_bad += 1
    _report(
        10,
        stable and scan_bad == 0,
        f"3 commands byte-stable, 200 support scans over [-4096, 4096] ({scan_bad} bad)",
    )
