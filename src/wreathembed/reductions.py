"""Separation and probe constructions driven by enumerated index sets.

Two ways of turning undecidability of the base data into statements about
the two-generator group:

* With the pair-relation base group, comparing the embedded generators of
  the 2n-th and (2n-1)-st base generators against the identity in a lifted
  order separates the pair's N side from its M side: the made-up condition
  "both embedded generators on the same side of the identity" contains N
  and misses M.  :func:`separation_report` sweeps this over a decidable
  mock pair and records any mismatch.

* With the merge-relation base group, triviality of the embedded word
  ``a(2n) a(2n-1)^-1`` holds exactly when n lies in the enumerated set, so
  a fueled triviality probe of that single element semi-decides membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from wreathembed import twogen
from wreathembed.base_groups import EnumeratedPair, SemiVerdict, insep_oracle, re_oracle
from wreathembed.orders import OrderOracle, lifted_order, pair_adapted_order
from wreathembed.words import A_ALPHABET, Word, parse_word


def _sign(word: Word, order: OrderOracle) -> str:
    return {"LT": "+", "EQ": "0", "GT": "-"}[order.compare(Word.identity(order.alphabet), word)]


def _same_side(sign_lo: str, sign_hi: str) -> bool:
    # Both weakly on one side of the identity ("weakly": "0" counts for both).
    return "+" not in (sign_lo, sign_hi) or "-" not in (sign_lo, sign_hi)


def _signs(n: int, order: OrderOracle) -> tuple[str, str]:
    # (sign_lo, sign_hi): the signs of the embedded generators 2n-1 and 2n.
    lo, hi = twogen.generator_word(2 * n - 1), twogen.generator_word(2 * n)
    return _sign(lo, order), _sign(hi, order)


def separator(n: int, order: OrderOracle) -> bool:
    """Whether n satisfies the order-side condition in the lifted order.

    True when the embedded generators with indices 2n and 2n-1 sit weakly
    on the same side of the identity ("weakly": equality counts for both
    sides).  Read off the two signs, so two comparisons.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return _same_side(*_signs(n, order))


@dataclass(frozen=True)
class SeparatorEntry:
    n: int
    side: str  # "n", "m" or "free"
    separated: bool
    sign_lo: str
    sign_hi: str

    @property
    def consistent(self) -> bool:
        if self.side == "n":
            return self.separated
        if self.side == "m":
            return not self.separated
        return True


@dataclass(frozen=True)
class SeparatorReport:
    pair_name: str
    entries: tuple[SeparatorEntry, ...]

    @property
    def violations(self) -> tuple[SeparatorEntry, ...]:
        return tuple(e for e in self.entries if not e.consistent)


def separation_report(pair: EnumeratedPair, max_n: int) -> SeparatorReport:
    """Sweep the separator over 1..max_n against the pair's ground truth.

    Needs a pair with a membership hint, both to build a computable order
    on the base group and to know the expected answers.
    """
    if pair.classify is None:
        raise ValueError(f"pair {pair.name!r} has no membership hint")
    H = insep_oracle(pair)
    order = lifted_order(H, pair_adapted_order(pair))
    entries = []
    for n in range(1, max_n + 1):
        sign_lo, sign_hi = _signs(n, order)
        side = pair.classify(n)[0]
        entries.append(SeparatorEntry(n, side, _same_side(sign_lo, sign_hi), sign_lo, sign_hi))
    return SeparatorReport(pair.name, tuple(entries))


def report_lines(report: SeparatorReport) -> list[str]:
    """Machine-readable rendering: one line per index, then a summary."""
    lines = [
        f"n={e.n} side={e.side} separator={'in' if e.separated else 'out'} "
        f"sign_lo={e.sign_lo} sign_hi={e.sign_hi} ok={'yes' if e.consistent else 'NO'}"
        for e in report.entries
    ]
    lines.append(f"pair={report.pair_name}")
    lines.append(f"entries={len(report.entries)}")
    lines.append(f"violations={len(report.violations)}")
    return lines


def merge_probe(n: int, enum_n, fuel: int) -> SemiVerdict:
    """Fueled semi-decision of "n lies in the enumerated set".

    Probes triviality of the embedded word ``a(2n) a(2n-1)^-1`` over the
    merge-relation base group: trivial exactly when some enumerated value
    equals n.  Trivial verdicts are final; unknown only means the fuel ran
    out before n showed up.  Repeated probes over the same ``enum_n``
    share its position index (see :func:`base_groups.re_oracle`), so each
    enumerated value is fetched once, however many probes ask for it.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    word = parse_word(f"a{2 * n} a{2 * n - 1}^-1", A_ALPHABET)
    element = twogen.encode_word(word)
    return twogen.semi_trivial(element, re_oracle(enum_n), fuel)
