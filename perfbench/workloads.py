"""Seeded workloads: input generation, one operation, and its ground truth.

Each workload is built from the freshly imported layer modules and a seed.
Its inputs come in rounds drawn from ``random.Random(seed)``; every round
covers the workload's whole input range in a fixed proportion, so any long
enough prefix of the stream costs about the same on every seed.  Operations
call the program only through module attributes (``mods["twogen"].x``), so
the traced run sees every call it wraps.

A workload exposes ``ops()`` (an endless iterator of inputs), ``run(op)``
(the timed call; returns the raw result), ``verdict(result)`` (the
verdict name that is counted per run) and ``check(op, result)`` (True when
the result matches the truth known by construction).
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import Iterator


def spread_order(n: int) -> list[int]:
    """The indices 0..n-1 in bit-reversed order.

    Applied to inputs sorted by cost, every prefix of the result samples the
    cost range evenly, so a run cut off by its time limit mid-round still
    measures a representative mix.
    """
    bits = max(1, (n - 1).bit_length())
    order = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < n:
            order.append(j)
    return order


def stratified(rng: random.Random, hi: int, block: int, take: int) -> list[int]:
    """``take`` distinct values from each block of ``block`` consecutive
    values in 1..hi, sorted ascending."""
    out: list[int] = []
    for lo in range(1, hi + 1, block):
        out.extend(sorted(rng.sample(range(lo, min(lo + block, hi + 1)), take)))
    return out


def semi_verdict(result) -> str:
    return "TRIVIAL" if result.trivial else "NONTRIVIAL" if result.nontrivial else "UNKNOWN"


class Rounds:
    """Inputs as an endless stream: the first round, then fresh rounds.

    Subclasses build ``first`` at set-up and draw each later round from
    ``_round()``.
    """

    def ops(self) -> Iterator:
        yield from self.first
        while True:
            yield from self._round()


class ProbeMock(Rounds):
    """Theorem-2 sweep over the mock pair: ``merge_probe`` at fuel 200 and 400.

    Truth: the probe of n is TRIVIAL iff n is odd (the mock set), else
    UNKNOWN; a probe never refutes.
    """

    MAX_N = 250
    FUELS = (200, 400)

    def __init__(self, mods: dict, seed: int, count_enum=None):
        self.mods = mods
        self.rng = random.Random(seed)
        pair = mods["base_groups"].mock_pair()
        self.enum_n = count_enum(pair.enum_n) if count_enum else pair.enum_n
        self.first = self._round()

    def _round(self) -> list[tuple[int, int]]:
        ops = [(n, fuel) for n in stratified(self.rng, self.MAX_N, 5, 3) for fuel in self.FUELS]
        return [ops[i] for i in spread_order(len(ops))]

    def run(self, op):
        n, fuel = op
        return self.mods["reductions"].merge_probe(n, self.enum_n, fuel)

    verdict = staticmethod(semi_verdict)

    def check(self, op, result) -> bool:
        return semi_verdict(result) == ("TRIVIAL" if op[0] % 2 else "UNKNOWN")


class SeparateMock(Rounds):
    """Theorem-1 sweep: per index n, ``separator`` plus the two signs,
    computed as ``separation_report`` does, in the lifted pair-adapted order.

    Truth: odd n (the pair's N side) is separated, even n (M side) is not;
    both embedded generators are nontrivial, so both signs are nonzero and
    n is separated exactly when they agree.
    """

    MAX_N = 250

    def __init__(self, mods: dict, seed: int, count_enum=None):
        self.mods = mods
        self.rng = random.Random(seed)
        orders, base_groups = mods["orders"], mods["base_groups"]
        pair = base_groups.mock_pair()
        H = base_groups.insep_oracle(pair)
        self.order = orders.lifted_order(H, orders.pair_adapted_order(pair))
        self.first = self._round()

    def _round(self) -> list[int]:
        ns = stratified(self.rng, self.MAX_N, 5, 4)
        return [ns[i] for i in spread_order(len(ns))]

    def run(self, n: int):
        reductions, twogen = self.mods["reductions"], self.mods["twogen"]
        separated = reductions.separator(n, self.order)
        sign_lo = reductions._sign(twogen.generator_word(2 * n - 1), self.order)
        sign_hi = reductions._sign(twogen.generator_word(2 * n), self.order)
        return separated, sign_lo, sign_hi

    @staticmethod
    def verdict(result) -> str:
        return "SEPARATED" if result[0] else "UNSEPARATED"

    def check(self, n, result) -> bool:
        separated, sign_lo, sign_hi = result
        return (
            separated == (n % 2 == 1)
            and sign_lo in ("+", "-")
            and sign_hi in ("+", "-")
            and separated == (sign_lo == sign_hi)
        )


def _factor_text(i: int, eta: int, e: int) -> str:
    b = f"b{i}^{e}"
    return b if eta == 0 else f"z^{eta} {b} z^{-eta}"


def _product(factors) -> str:
    return " ".join(_factor_text(*f) for f in factors)


def _inverse(factors) -> str:
    return " ".join(_factor_text(i, eta, -e) for i, eta, e in reversed(factors))


class DecideWide(Rounds):
    """In-process CLI queries at ``--group L`` over wide z-conjugated words.

    A word w is a product of factors ``z^eta b_i^e z^-eta`` with |eta| up to
    ``MAX_ETA``.  All such factors lie in the abelian base of the wreath
    product, which fixes every truth by construction:

    * ``trivial``: w times the inverse of a permutation of w is TRIVIAL;
      changing one exponent of the permuted copy makes it NONTRIVIAL.
    * ``member --subgroup diagonal``: the same with diagonal commutators
      ``z b_j^c z^-1 b_j^-c`` in the middle is MEMBER, or NONMEMBER.
    * ``compare``: w against a permutation of w is ``EQ clause=equal``;
      against w with exponent e of the factor at eta changed to e' it is
      ``LT`` when e < e' (else ``GT``) at ``point=1-eta``.
    """

    ROUND = 200
    FACTORS = 8
    MAX_ETA = 1000
    MAX_INDEX = 6

    def __init__(self, mods: dict, seed: int, count_enum=None):
        self.mods = mods
        self.rng = random.Random(seed)
        self.first = self._round()

    def _word(self) -> list[tuple[int, int, int]]:
        rng = self.rng
        return [
            (rng.randint(1, self.MAX_INDEX), rng.randint(-self.MAX_ETA, self.MAX_ETA),
             rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(self.FACTORS)
        ]

    def _changed(self, factors) -> tuple[list, int, int, int]:
        """A shuffled copy with one exponent moved; returns the copy, the
        changed factor's eta, and its old and new exponents."""
        rng = self.rng
        out = list(factors)
        rng.shuffle(out)
        k = rng.randrange(len(out))
        i, eta, e = out[k]
        e2 = e + rng.choice((-2, -1, 1, 2))
        out[k] = (i, eta, e2)
        return out, eta, e, e2

    def query(self, kind: str, equal: bool) -> tuple[list[str], str]:
        """One CLI argv and the exact text the CLI must print for it."""
        rng = self.rng
        w = self._word()
        if equal:
            other = list(w)
            rng.shuffle(other)
        else:
            other, eta, e, e2 = self._changed(w)
        if kind == "trivial":
            argv = ["trivial", "--group", "L", f"{_product(w)} {_inverse(other)}"]
            return argv, "TRIVIAL" if equal else "NONTRIVIAL"
        if kind == "member":
            diag = " ".join(
                f"z b{j}^{c} z^-1 b{j}^{-c}"
                for j, c in ((rng.randint(1, self.MAX_INDEX), rng.choice((-2, -1, 1, 2)))
                             for _ in range(3))
            )
            argv = ["member", "--group", "L", "--subgroup", "diagonal",
                    f"{_product(w)} {diag} {_inverse(other)}"]
            return argv, "MEMBER" if equal else "NONMEMBER"
        argv = ["compare", "--group", "L", _product(w), _product(other)]
        if equal:
            return argv, "EQ clause=equal"
        return argv, f"{'LT' if e < e2 else 'GT'} clause=value point={1 - eta}"

    def _round(self) -> list[tuple[list[str], str]]:
        kinds = ("trivial", "member", "compare")
        return [self.query(kinds[j % 3], (j // 3) % 2 == 0) for j in range(self.ROUND)]

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.mods["cli"].main(op[0])
        return code, out.getvalue().strip()

    @staticmethod
    def verdict(result) -> str:
        return result[1].split(" ")[0] or "NONE"

    def check(self, op, result) -> bool:
        return result == (0, op[1])


class ProbeHalting(Rounds):
    """Theorem-2 sweep over ``halting_pair()`` on the process's fresh
    enumeration: program indices 1..MAX_N, fuel 12k..20k.

    Truth: a TRIVIAL probe is accepted only for a program that an
    independent ``machines.run_status`` run shows halting; a probe never
    refutes.  UNKNOWN is always sound.
    """

    MAX_N = 40
    PER_N = 5
    FUEL = (12_000, 20_000)
    CHECK_STEPS = 1_000_000

    def __init__(self, mods: dict, seed: int, count_enum=None):
        self.mods = mods
        self.rng = random.Random(seed)
        pair = mods["base_groups"].halting_pair()
        self.enum_n = count_enum(pair.enum_n) if count_enum else pair.enum_n
        self.halts: dict[int, bool] = {}
        self.first = self._round()

    def _round(self) -> list[tuple[int, int]]:
        ns = [n for n in range(1, self.MAX_N + 1) for _ in range(self.PER_N)]
        self.rng.shuffle(ns)
        return [(n, self.rng.randint(*self.FUEL)) for n in ns]

    def run(self, op):
        n, fuel = op
        return self.mods["reductions"].merge_probe(n, self.enum_n, fuel)

    verdict = staticmethod(semi_verdict)

    def check(self, op, result) -> bool:
        if result.nontrivial:
            return False
        if not result.trivial:
            return True
        n = op[0]
        if n not in self.halts:
            machines = self.mods["machines"]
            status, _ = machines.run_status(machines.index_to_program(n), self.CHECK_STEPS)
            self.halts[n] = status == "halt"
        return self.halts[n]


WORKLOADS = {
    "probe-mock": ProbeMock,
    "separate-mock": SeparateMock,
    "decide-wide": DecideWide,
    "probe-halting": ProbeHalting,
}
