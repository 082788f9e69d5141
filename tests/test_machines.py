import doctest
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
        assert enum.halted == [g for _, g in sorted(fates["halt"])]
        assert enum.cycling == [g for _, g in sorted(fates["cycle"])]
        # Memory: the two streams plus the live runs, never the programs
        # already decided (about 380 bytes per stream entry if it were).
        entries = len(enum.halted) + len(enum.cycling)
        assert peak <= 64 * entries + 4096 * len(enum._states)

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
