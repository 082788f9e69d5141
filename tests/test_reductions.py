import dataclasses

import pytest

from wreathembed import twogen
from wreathembed.base_groups import halting_pair, insep_oracle, mock_pair
from wreathembed.machines import index_to_program, run_status
from wreathembed.orders import lifted_order, pair_adapted_order
from wreathembed.reductions import (
    _sign,
    merge_probe,
    report_lines,
    separation_report,
    separator,
)


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

        def compare(u, v):
            calls.append((u, v))
            return order.compare(u, v)

        counted = dataclasses.replace(order, compare=compare)
        assert _sign(twogen.generator_word(4), counted) == "-"
        assert len(calls) == 1


class TestSeparationReport:
    def test_no_violations_on_mock(self):
        report = separation_report(mock_pair(), 12)
        assert report.violations == ()
        assert [e.side for e in report.entries[:4]] == ["n", "m", "n", "m"]

    def test_signs(self):
        report = separation_report(mock_pair(), 4)
        # Odd base generators embed positively; the even ones follow the
        # side of their relation.
        for e in report.entries:
            assert e.sign_lo == "+"
            assert e.sign_hi == ("+" if e.side == "n" else "-")

    def test_lines_format(self):
        report = separation_report(mock_pair(), 3)
        lines = report_lines(report)
        assert lines[0] == "n=1 side=n separator=in sign_lo=+ sign_hi=+ ok=yes"
        assert lines[-3:] == ["pair=mock-odd-even", "entries=3", "violations=0"]

    def test_needs_hint(self):
        with pytest.raises(ValueError):
            separation_report(halting_pair(), 3)


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
