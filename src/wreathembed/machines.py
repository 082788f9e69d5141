"""Two-counter register machines and behaviour enumerations.

Program text format: one instruction per line, blank lines ignored.

    INC r          increment counter r (r is 0 or 1), fall through
    JZDEC r l      if counter r is zero jump to line l, else decrement
                   and fall through (l is a 1-based line number)
    HALT           stop

Execution starts at line 1 with both counters zero and stops on HALT or when
control moves past the last line (a jump target beyond the program also
stops, one step later, when it is dispatched).

A program is the tuple of its instruction codes: ``HALT = 0``,
``INC r = 1 + r``, ``JZDEC r l = 3 + 2*(l-1) + r``, so a code ``c >= 3`` is
``JZDEC (c-3) % 2, (c-3) // 2 + 1``.  Programs are numbered by a bijection
with the naturals (including 0): tuples are coded by ``nil = 0``,
``cons(a, rest) = cantor_pair(a, rest) + 1``.

:class:`DovetailEnumeration` interleaves the runs of all programs and emits
two disjoint, duplicate-free streams: programs observed to halt, in order of
first observation, and programs whose configuration sequence is detected to
cycle (a sufficient, machine-checkable divergence certificate; diverging
programs with unboundedly growing counters are never emitted).
"""

from __future__ import annotations

import math
import re
import threading

from wreathembed.words import _at_least, _too_long, int_text

Program = tuple[int, ...]  # instruction codes, as in the module docstring


# A line's words joined by single spaces: the whole text of one instruction.
_INSTRUCTION = re.compile(r"HALT|INC ([01])|JZDEC ([01]) ([1-9][0-9]*)")


def parse_program(text: str) -> Program:
    """Parse program text; raises ValueError naming the offending line.

    The words of an instruction are separated by any run of whitespace.
    Operands are ASCII decimal digits without leading zeros, a jump target
    of at most ``words.max_digits()`` of them.
    """
    out: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _INSTRUCTION.fullmatch(" ".join(line.split()))
        if m is None or _too_long(m[3] or ""):
            raise ValueError(f"line {lineno}: bad instruction {line!r}")
        inc, reg, target = m.groups()  # INC fills inc, JZDEC reg and target
        out.append(1 + 2 * int(target) + int(reg) if target else 1 + int(inc) if inc else 0)
    return tuple(out)


def _checked(program: Program) -> Program:
    """``program``, once each of its instruction codes is checked to be >= 0."""
    for code in program:
        _at_least(code, 0, "instruction code")
    return program


def program_to_text(program: Program) -> str:
    lines = []
    for code in _checked(program):
        if code == 0:
            lines.append("HALT")
        elif code <= 2:
            lines.append(f"INC {code - 1}")
        else:
            lines.append(f"JZDEC {(code - 3) % 2} {int_text((code - 3) // 2 + 1)}")
    return "\n".join(lines)


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def program_to_index(program: Program) -> int:
    n = 0
    for code in reversed(_checked(program)):
        n = cantor_pair(code, n) + 1
    return n


def index_to_program(n: int) -> Program:
    _at_least(n, 0, "program index")
    out: list[int] = []
    while n > 0:
        code, n = cantor_unpair(n - 1)
        out.append(code)
    return tuple(out)


Config = tuple[int, int, int]  # (pc, counter0, counter1); pc is 1-based


def step(program: Program, config: Config) -> Config | None:
    """One dispatch; None means the machine has stopped."""
    pc, c0, c1 = config
    if pc > len(program):
        return None
    code = program[pc - 1]
    if code == 0:
        return None
    if code <= 2:
        return (pc + 1, c0 + 1, c1) if code == 1 else (pc + 1, c0, c1 + 1)
    q, reg = divmod(code - 3, 2)  # JZDEC reg, q + 1
    value = c0 if reg == 0 else c1
    if value == 0:
        return (q + 1, c0, c1)
    if reg == 0:
        return (pc + 1, c0 - 1, c1)
    return (pc + 1, c0, c1 - 1)


class _RunState:
    """A program's run so far, with Brent's cycle detection.

    Brent's algorithm needs only one saved configuration: the tortoise is
    moved to the current configuration each time the run's length since
    the last move reaches the next power of two.
    """

    __slots__ = ("program", "config", "steps", "tortoise", "power", "lam")

    def __init__(self, program: Program):
        self.program = program
        self.config = self.tortoise = (1, 0, 0)
        self.steps = self.lam = 0
        self.power = 1

    def advance(self, budget: int) -> str | None:
        """Run until ``budget`` total steps; "halt" or "cycle" once decided."""
        while self.steps < budget:
            nxt = step(self.program, self.config)
            self.steps += 1
            if nxt is None:
                return "halt"
            self.config = nxt
            self.lam += 1
            if nxt == self.tortoise:
                return "cycle"
            if self.lam == self.power:
                self.tortoise = nxt
                self.power <<= 1
                self.lam = 0
        return None


def run_status(program: Program, max_steps: int) -> tuple[str, int]:
    """("halt", steps) | ("cycle", steps) | ("running", max_steps).

    Cycles in the configuration sequence are found with Brent's algorithm,
    as in the enumeration.
    """
    _at_least(max_steps, 0, "max_steps")
    run = _RunState(_checked(program))
    fate = run.advance(max_steps)
    return (fate, run.steps) if fate else ("running", max_steps)


_BASE_BUDGET = 8


class DovetailEnumeration:
    """Fair interleaving of all program runs with geometric budgets.

    Global tick j = (2g+1) * 2**k advances program g until it has executed
    ``8 * 2**k`` total steps or its fate is decided.  Every program is
    visited with unbounded budgets, so every halting program eventually
    lands in ``halted`` and every configuration-cycling program in
    ``cycling``.  Both streams are injective and mutually disjoint; their
    order is a deterministic function of nothing but this schedule.

    Only live runs are stored, so memory grows with the number of programs
    still undecided, not with the number visited: program g is first
    visited at tick 2g + 1 (k = 0), so a later tick for a g without a live
    run belongs to a program already decided.
    """

    def __init__(self) -> None:
        self.halted: list[int] = []
        self.cycling: list[int] = []
        self._tick = 0
        self._states: dict[int, _RunState] = {}
        self._lock = threading.Lock()

    def _advance_one_tick(self) -> None:
        self._tick += 1
        j = self._tick
        k = (j & -j).bit_length() - 1
        g = ((j >> k) - 1) // 2
        st = self._states.get(g)
        if st is None:
            if k:  # decided at an earlier tick
                return
            st = self._states[g] = _RunState(index_to_program(g))
        fate = st.advance(_BASE_BUDGET << k)
        if fate is not None:
            del self._states[g]
            (self.halted if fate == "halt" else self.cycling).append(g)

    def _nth(self, stream: list[int], i: int) -> int:
        _at_least(i, 1, "enumeration index")
        with self._lock:
            while len(stream) < i:
                self._advance_one_tick()
            return stream[i - 1]

    def halting(self, i: int) -> int:
        """The i-th (1-based) program observed to halt."""
        return self._nth(self.halted, i)

    def cycling_at(self, i: int) -> int:
        """The i-th (1-based) program observed to cycle."""
        return self._nth(self.cycling, i)


_shared = DovetailEnumeration()


def shared_enumeration() -> DovetailEnumeration:
    """Process-wide memoized enumeration; probes share discovered prefixes."""
    return _shared
