import doctest
import random
import tracemalloc
from pathlib import Path

import pytest

from wreathembed.machines import (
    DovetailEnumeration,
    _RunState,
    cantor_pair,
    cantor_unpair,
    index_to_program,
    parse_program,
    program_to_index,
    program_to_text,
    run_status,
    shared_enumeration,
    step,
)

from reference_scans import parse_program_by_checks


DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_register_machine_page_examples():
    # The page's examples, claims about the text format and the numbering.
    results = doctest.testfile(str(DOCS / "register_machine.md"), module_relative=False)
    assert results == (0, 10)


class TestText:
    def test_parse_roundtrip(self):
        text = "INC 0\nJZDEC 1 3\nHALT"
        assert program_to_text(parse_program(text)) == text

    def test_blank_lines_ignored(self):
        assert parse_program("\nHALT\n\n") == parse_program("HALT")

    def test_bad_register(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_program("INC 2")

    def test_bad_target(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_program("HALT\nJZDEC 0 0")

    def test_bad_opcode(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_program("NOP")

    # int() would read each of these, but not as text that program_to_text prints.
    @pytest.mark.parametrize(
        "text", ["INC 0_1", "INC +1", "JZDEC 0 \u0663", "INC 00", "JZDEC 0 03", "JZDEC 1 010"]
    )
    def test_operand_is_ascii_digits(self, text):
        with pytest.raises(ValueError, match="line 1: bad instruction"):
            parse_program(text)


# Pieces of random program lines: instruction words in either case, operands
# with leading zeros, signs and non-ASCII digits (Arabic-Indic three,
# fullwidth one, superscript one), and runs of ASCII and non-ASCII spaces.
OPS = ["HALT", "INC", "JZDEC"] * 8 + ["halt", "Inc", "jzDEC", "NOP", "HALT0", "INC0", "JZ"]
OPERANDS = ["0", "1"] * 8 + ["2", "3", "9", "10", "123", "00", "01", "007", "+1", "-1", "-0",
                             "1_0", "\u0663", "\uff11", "\u00b9", "1\u0663", "2\uff11", "1.0"]
SPACES = [" "] * 6 + ["  ", "\t", " \t ", "\u00a0", "\u2003", "\u3000"]
ARITY = {"HALT": 0, "INC": 1, "JZDEC": 2}


def _random_line(rng: random.Random) -> str:
    op = rng.choice(OPS)
    arity = max(0, ARITY.get(op, rng.randrange(3)) + rng.choice([0] * 8 + [-1, 1]))
    words = [op] + [rng.choice(OPERANDS) for _ in range(arity)]
    if op == "JZDEC" and arity == 2 and rng.random() < 0.3:
        words[2] = str(rng.randrange(1, 10**6))
    edge = ["", "", "", " ", "\t", "\u00a0"]
    return rng.choice(edge) + "".join(w + rng.choice(SPACES) for w in words).rstrip() + rng.choice(edge)


def _outcome(text: str):
    # The parsed program, or the error text.
    try:
        return parse_program(text)
    except ValueError as exc:
        return str(exc)


def _outcome_by_checks(text: str):
    try:
        return parse_program_by_checks(text)
    except ValueError as exc:
        return str(exc)


def test_parse_matches_check_by_check_parser():
    rng = random.Random("parse-program")
    kinds = {tuple: 0, str: 0}
    for _ in range(20_000):
        lines = [_random_line(rng) if rng.random() < 0.9 else "" for _ in range(rng.randrange(1, 4))]
        text = rng.choice(["\n", "\r\n", "\u2028"]).join(lines)
        got = _outcome(text)
        assert got == _outcome_by_checks(text), repr(text)
        kinds[type(got)] += 1
    # Both the programs and the errors are well represented.
    assert min(kinds.values()) > 4_000, kinds


def test_jump_target_digits_are_bounded(int_text_limit):
    # A jump target may have as many digits as an exponent, whatever Python's limit.
    target = "9" * 4300
    assert parse_program("JZDEC 1 " + target) == (2 + 2 * int(target),)
    with pytest.raises(ValueError, match="^line 2: bad instruction 'JZDEC 1 9"):
        parse_program("HALT\nJZDEC 1 9" + target)


def test_program_text_bounds_each_jump_target(int_text_limit):
    # The package's message, not Python's, for a target too long to print.
    target = 10**4300 - 1
    assert program_to_text((2 + 2 * target,)) == f"JZDEC 1 {'9' * 4300}"
    with pytest.raises(ValueError, match="^the result holds an integer of more than 4300 decimal"):
        program_to_text((10**5000,))


class TestNumbering:
    def test_pairing_roundtrip(self):
        for n in range(2000):
            a, b = cantor_unpair(n)
            assert cantor_pair(a, b) == n

    def test_program_bijection(self):
        for n in range(20_000):
            program = index_to_program(n)
            assert program_to_index(program) == n
            assert parse_program(program_to_text(program)) == program

    def test_known_small_indices(self):
        assert index_to_program(0) == ()
        assert program_to_text(index_to_program(1)) == "HALT"
        assert program_to_text(index_to_program(2)) == "INC 0"
        assert program_to_text(index_to_program(4)) == "INC 1"

    def test_index_of_text_program(self):
        assert program_to_index(parse_program("HALT")) == 1

    @pytest.mark.parametrize("n", [-1, -7, -(10**30)])
    def test_negative_index_rejected(self, n):
        # Every negative index used to give the empty program, index 0.
        with pytest.raises(ValueError, match=f"^program index must be >= 0, got {n}$"):
            index_to_program(n)

    @pytest.mark.parametrize(
        "convert",
        [program_to_index, program_to_text, lambda p: run_status(p, 5)],
        ids=["program_to_index", "program_to_text", "run_status"],
    )
    def test_negative_code_rejected(self, convert):
        # (-1,) used to get the index 1 of (0,), the text "INC -2", which
        # parse_program rejects, and the run ("halt", 2) of INC 1.
        with pytest.raises(ValueError, match="^instruction code must be >= 0, got -1$"):
            convert((-1,))


class TestSemantics:
    def test_empty_program_halts_immediately(self):
        assert step((), (1, 0, 0)) is None

    def test_inc_then_fall_off_end(self):
        prog = parse_program("INC 0")
        assert step(prog, (1, 0, 0)) == (2, 1, 0)
        assert step(prog, (2, 1, 0)) is None

    def test_jzdec_jump_on_zero(self):
        prog = parse_program("JZDEC 0 3\nINC 0\nHALT")
        assert step(prog, (1, 0, 0)) == (3, 0, 0)

    def test_jzdec_decrement_on_positive(self):
        prog = parse_program("JZDEC 1 1")
        assert step(prog, (1, 0, 5)) == (2, 0, 4)

    def test_run_status_halt(self):
        assert run_status(parse_program("HALT"), 100) == ("halt", 1)

    def test_run_status_detects_tight_loop(self):
        status, _ = run_status(parse_program("JZDEC 0 1"), 1000)
        assert status == "cycle"

    def test_run_status_growing_counter_stays_running(self):
        # INC 0; JZDEC 1 1 loops forever with c0 growing: no repeated config.
        prog = parse_program("INC 0\nJZDEC 1 1")
        assert run_status(prog, 5000) == ("running", 5000)

    def test_run_status_zero_steps(self):
        assert run_status(parse_program("HALT"), 0) == ("running", 0)

    @pytest.mark.parametrize("max_steps", [-1, -5])
    def test_run_status_rejects_negative_steps(self, max_steps):
        # A negative budget used to report ("running", max_steps).
        with pytest.raises(ValueError, match=f"^max_steps must be >= 0, got {max_steps}$"):
            run_status(parse_program("HALT"), max_steps)

    def test_jump_past_end_halts(self):
        prog = parse_program("JZDEC 0 9")
        assert run_status(prog, 100) == ("halt", 2)


class TestDovetail:
    def test_first_discoveries(self):
        enum = DovetailEnumeration()
        # Program 0 is empty and program 1 is HALT; both stop at once.
        assert enum.halting(1) == 0
        assert enum.halting(2) == 1

    def test_streams_are_injective_and_disjoint(self):
        enum = DovetailEnumeration()
        enum.halting(300)
        enum.cycling_at(100)
        assert len(set(enum.halted)) == len(enum.halted)
        assert len(set(enum.cycling)) == len(enum.cycling)
        assert not set(enum.halted) & set(enum.cycling)

    def test_streams_match_direct_simulation(self):
        enum = DovetailEnumeration()
        enum.halting(200)
        for g in enum.halted[:200]:
            assert run_status(index_to_program(g), 10_000)[0] == "halt"
        enum.cycling_at(50)
        for g in enum.cycling[:50]:
            assert run_status(index_to_program(g), 10_000)[0] == "cycle"

    def test_deterministic_across_instances(self):
        a = DovetailEnumeration()
        b = DovetailEnumeration()
        a.halting(150)
        b.halting(150)
        assert a.halted[:150] == b.halted[:150]
        assert a.cycling == b.cycling

    def test_every_small_halting_program_is_found(self):
        # Direct simulation marks halting programs below 60; each must show
        # up once enough of the enumeration is forced.
        direct = [g for g in range(60) if run_status(index_to_program(g), 200)[0] == "halt"]
        enum = DovetailEnumeration()
        enum.halting(600)
        assert set(direct) <= set(enum.halted)

    def test_streams_are_fates_in_tick_order_with_memory_for_live_runs(self):
        tracemalloc.start()
        enum = DovetailEnumeration()
        enum.cycling_at(600)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Reference: program g runs 8 * 2^k steps by tick (2g+1) * 2^k, so
        # one whose fate run_status finds at step t is decided at the first
        # such tick with 8 * 2^k >= t.  Both streams list the programs
        # decided by the last tick, in the order of those ticks.
        ticks = enum._tick
        fates: dict[str, list[tuple[int, int]]] = {"halt": [], "cycle": []}
        for g in range((ticks + 1) // 2):
            top = (ticks // (2 * g + 1)).bit_length() - 1
            fate, t = run_status(index_to_program(g), 8 << top)
            if fate != "running":
                fates[fate].append(((2 * g + 1) << ((t + 7) // 8 - 1).bit_length(), g))
        assert list(enum.halted) == [g for _, g in sorted(fates["halt"])]
        assert list(enum.cycling) == [g for _, g in sorted(fates["cycle"])]
        # Memory: the two streams plus the live runs, never the programs
        # already decided (about 380 bytes per stream entry if it were).
        # Streams and positions are arrays of 8-byte entries, about 17 bytes
        # per entry in all; lists of ints would take at least 32.
        entries = len(enum.halted) + len(enum.cycling)
        assert peak <= 16 * entries + 4096 * len(enum._states)

    def test_halting_positions_are_read_off_the_stream(self):
        # The position of the 100th halting program costs the ticks that
        # halting(100) costs, and no more once it is known.
        enum, twin = DovetailEnumeration(), DovetailEnumeration()
        g = twin.halting(100)
        assert enum.halting_position(g, 10**6) == 100
        assert enum._tick == twin._tick
        enum.halting(300)
        ticks = enum._tick
        assert [enum.halting_position(g, 300) for g in enum.halted] == list(range(1, 301))
        assert enum._tick == ticks
        assert enum.halting_position(enum.halted[150], 150) is None
        # A program never seen to halt walks the stream up to the limit.
        assert enum.halting_position(enum.cycling[0], 400) is None
        assert len(enum.halted) == 400
        with pytest.raises(ValueError, match="^program index must be >= 0, got -1$"):
            enum.halting_position(-1, 10)

    def test_streams_and_run_states_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            DovetailEnumeration(halted=[5])
        with pytest.raises(TypeError):
            _RunState((), (1, 0, 0))

    def test_shared_enumeration_is_memoized(self):
        assert shared_enumeration() is shared_enumeration()

    def test_halt_program_found_early(self):
        enum = DovetailEnumeration()
        found = [enum.halting(i) for i in range(1, 11)]
        assert 1 in found
