import dataclasses
import json
import random
from collections import Counter

import pytest

import reference_scans
from oracles import norm_first_order
from wreathembed import cli, reductions, twogen
from wreathembed.base_groups import (
    TRIVIAL,
    UNKNOWN,
    halting_pair,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.machines import index_to_program, run_status
from wreathembed.orders import lifted_order, pair_adapted_order
from wreathembed.reductions import (
    SeparatorEntry,
    _sign,
    _signs,
    merge_probe,
    separation_report,
    separator,
)
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, FS_ALPHABET, Word, parse_word


def mock_order():
    pair = mock_pair()
    return lifted_order(insep_oracle(pair), pair_adapted_order(pair))


class TestSeparator:
    def test_alternates_with_mock_parity(self):
        order = mock_order()
        for n in range(1, 9):
            assert separator(n, order) == (n % 2 == 1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            separator(0, mock_order())

    def test_sign_costs_one_comparison(self):
        order = mock_order()
        calls = []

        def sign(a):
            calls.append(a)
            return order.sign(a)

        counted = dataclasses.replace(order, sign=sign)
        assert _sign(twogen.generator_word(4), counted) == "-"
        assert len(calls) == 1


FAR = 1 << 600


def random_class(rng: random.Random) -> int:
    # A small conjugating class, or one about 2**600 away on either side
    # that collides with some small class: 2**p - 2**q plus a small offset.
    if rng.random() < 0.5:
        return rng.randrange(-6, 7)
    far = (1 << rng.randrange(599, 602)) - (1 << rng.randrange(0, 3))
    return rng.choice([1, -1]) * far + rng.randrange(-2, 3)


def random_fs_sample(rng: random.Random) -> FSElement:
    """A random element: raw factors, a product of commutators of conjugates
    of ``f`` (every class sum zero), or the normal form of a random word."""
    kind = rng.randrange(3)
    if kind == 0:
        factors = [(random_class(rng), rng.randrange(-2, 3)) for _ in range(rng.randrange(7))]
        return FSElement.make(factors, rng.choice([0, 0, 0, 1, -1]))
    if kind == 1:
        out = FSElement.identity()
        for _ in range(rng.randrange(1, 4)):
            u = FSElement(((random_class(rng), rng.choice([1, -1])),))
            v = FSElement(((random_class(rng), rng.choice([1, -1])),))
            out = out * u * v * ~u * ~v
        return out
    runs: list = []
    for _ in range(rng.randrange(1, 6)):
        runs.append(("s", None, random_class(rng)))
        runs.append(("f", None, rng.choice([-2, -1, 1, 2])))
    runs.append(("s", None, -sum(e for letter, _, e in runs if letter == "s") + rng.choice([0, 0, 1])))
    return FSElement.from_word(Word.make(FS_ALPHABET, runs))


class TestReplacedRoutes:
    def test_sign_and_support_points_match_the_routes_they_replaced(self):
        # Read off the normal form of w, the sign agrees with the sign of
        # 1 * ~w as compare used to read it, and the support candidates agree
        # with the sorted route, on random elements and words with classes
        # near 2**600.
        order = mock_order()
        rng = random.Random(31)
        seen = Counter()
        for _ in range(300):
            a = random_fs_sample(rng)
            word = a.to_word()
            sign = _sign(word, order)
            assert sign == reference_scans.sign_by_compare(word, order), a
            points = twogen._support_points(a)
            assert points == reference_scans.support_points_by_sort(a), a
            far = any(abs(gamma) > FAR // 4 for gamma, _ in a.factors)
            seen[("tail" if a.tail else "value", sign, far)] += 1
            seen["far point"] += any(abs(mu) > FAR // 4 for mu in points)
        for sign in "+-":
            assert seen[("value", sign, True)] >= 10, seen
            assert seen[("tail", sign, True)] >= 5, seen
        assert seen[("value", "0", True)] >= 10 and seen["far point"] >= 50, seen

    def test_signs_match_the_route_through_compare(self):
        order = mock_order()
        for n in range(1, 61):
            words = [twogen.generator_word(i) for i in (2 * n - 1, 2 * n)]
            expected = tuple(reference_scans.sign_by_compare(w, order) for w in words)
            assert _signs(n, order) == expected == tuple(_sign(w, order) for w in words), n


class TestSeparationReport:
    def test_no_violations_on_mock(self):
        entries = separation_report(mock_pair(), 12)
        assert [e.n for e in entries] == list(range(1, 13))
        assert all(e.consistent for e in entries)
        assert [e.side for e in entries[:4]] == ["n", "m", "n", "m"]

    def test_signs(self):
        # Odd base generators embed positively; the even ones follow the
        # side of their relation.
        for e in separation_report(mock_pair(), 4):
            assert e.sign_lo == "+"
            assert e.sign_hi == ("+" if e.side == "n" else "-")

    def test_lines_format(self, capsys):
        assert cli.main(["demo", "theorem1", "--max-n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n=1 side=n separator=in sign_lo=+ sign_hi=+ ok=yes"
        assert lines[-3:] == ["pair=mock-odd-even", "entries=3", "violations=0"]

    @pytest.mark.parametrize("output", ["text", "structured"])
    def test_order_without_invariance_shows_violations(self, monkeypatch, capsys, output):
        # Negative control: under a sign rule that is not a cone both
        # embedded generators of every index are positive, so each M-side
        # index (n = 2, 4) lands on the N side and the sweep says so.
        monkeypatch.setattr(reductions, "pair_adapted_order", norm_first_order)
        assert cli.main(["--output", output, "demo", "theorem1", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        if output == "text":
            lines = out.splitlines()
            assert lines[1] == "n=2 side=m separator=in sign_lo=+ sign_hi=+ ok=NO"
            assert lines[3] == "n=4 side=m separator=in sign_lo=+ sign_hi=+ ok=NO"
            assert lines[-1] == "violations=2"
        else:
            records = [json.loads(line) for line in out.splitlines()]
            assert '"ok": false' in out
            assert [r["n"] for r in records[:-1] if not r["ok"]] == [2, 4]
            assert records[-1]["violations"] == 2

    def test_needs_hint(self):
        with pytest.raises(ValueError):
            separation_report(halting_pair(), 3)

    def test_free_side_is_always_consistent(self):
        # Neither N nor M constrains an index on the free side.
        for separated in (False, True):
            assert SeparatorEntry(1, "free", separated, "+", "-").consistent


class TestMergeProbe:
    def test_mock_member_confirmed_with_enough_fuel(self):
        enum = mock_pair().enum_n  # enumerates the odds: 1, 3, 5, ...
        assert merge_probe(1, enum, 0).unknown
        assert merge_probe(1, enum, 1).trivial
        assert merge_probe(5, enum, 2).unknown  # 5 is the third value
        assert merge_probe(5, enum, 3).trivial

    def test_mock_non_member_stays_unknown(self):
        enum = mock_pair().enum_n
        for fuel in (0, 1, 4, 32, 64):
            assert merge_probe(2, enum, fuel).unknown

    def test_trivial_verdict_persists_under_more_fuel(self):
        enum = mock_pair().enum_n
        for n in (1, 3, 7):
            fuel = (n + 1) // 2
            assert merge_probe(n, enum, fuel).trivial
            assert merge_probe(n, enum, 2 * fuel).trivial
            assert merge_probe(n, enum, 4 * fuel).trivial

    def test_halting_member_confirmed(self):
        pair = halting_pair()
        # Program number 1 (HALT) halts, so 1 is enumerated early.
        assert run_status(index_to_program(1), 100)[0] == "halt"
        assert merge_probe(1, pair.enum_n, 10).trivial

    def test_detected_diverging_index_stays_unknown(self):
        pair = halting_pair()
        # Program number 7 jumps to itself forever; it never halts, so its
        # index never enters the halting enumeration.
        assert run_status(index_to_program(7), 1000)[0] == "cycle"
        for fuel in (1, 10, 100):
            assert merge_probe(7, pair.enum_n, fuel).unknown

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            merge_probe(0, mock_pair().enum_n, 1)

    @pytest.mark.parametrize(
        "pair, max_n, fuels", [(mock_pair, 100, (0, 1, 50, 400)), (halting_pair, 40, (5000,))]
    )
    def test_matches_the_route_through_word_text(self, pair, max_n, fuels):
        # The probe builds its base word directly; parsing the text and
        # embedding it through generator words gives the same verdicts.
        enum_n = pair().enum_n
        seen = set()
        for fuel in fuels:
            for n in range(1, max_n + 1):
                word = parse_word(f"a{2 * n} a{2 * n - 1}^-1", A_ALPHABET)
                element = reference_scans.encode_word_by_words(word)
                by_text = twogen.semi_trivial(element, re_oracle(enum_n), fuel)
                assert merge_probe(n, enum_n, fuel) == by_text, (n, fuel)
                seen.add(by_text)
        assert seen == {TRIVIAL, UNKNOWN}
