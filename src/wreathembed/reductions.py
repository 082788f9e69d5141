"""Separation and probe constructions driven by enumerated index sets.

Two ways of turning undecidability of the base data into statements about
the two-generator group:

* With the pair-relation base group, the signs in a lifted order of the
  embedded 2n-th and (2n-1)-st base generators separate the pair's N side
  from its M side: the made-up condition "both embedded generators on the
  same side of the identity" contains N and misses M.  Each sign is read
  straight off the generator's normal form.  :func:`separation_report`
  returns the entries of this sweep over a mock pair; a violation is an
  entry whose ``consistent`` is False.

* With the merge-relation base group, triviality of the embedded word
  ``a(2n) a(2n-1)^-1`` holds exactly when n lies in the enumerated set, so
  a fueled triviality probe of that single element semi-decides membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from wreathembed import twogen
from wreathembed.base_groups import EnumeratedPair, SemiVerdict, insep_oracle, re_oracle
from wreathembed.orders import OrderOracle, lifted_order, pair_adapted_order
from wreathembed.words import A_ALPHABET, Word, _at_least


# Called by perfbench/workloads.py (SeparateMock); perfbench/spans.py traces it by name (EXTRA).
def _sign(word: Word, order: OrderOracle) -> str:
    # The sign of the word's normal form, spelled "0", "+" or "-" as in _signs.
    return "0+-"[order.sign_of(word)]


def _same_side(sign_lo: str, sign_hi: str) -> bool:
    # Both weakly on one side of the identity ("weakly": "0" counts for both).
    return "+" not in (sign_lo, sign_hi) or "-" not in (sign_lo, sign_hi)


def _signs(n: int, order: OrderOracle) -> tuple[str, str]:
    # (sign_lo, sign_hi): the signs of the embedded generators 2n-1 and 2n,
    # read on their normal forms; "0+-"[sign] spells the sign 0, 1 or -1.
    lo, hi = (twogen.FSElement(twogen._generator_factors(i, 1)) for i in (2 * n - 1, 2 * n))
    return "0+-"[order.sign(lo)], "0+-"[order.sign(hi)]


def separator(n: int, order: OrderOracle) -> bool:
    """Whether n satisfies the order-side condition in the lifted order.

    True when the embedded generators with indices 2n and 2n-1 sit weakly
    on the same side of the identity ("weakly": equality counts for both
    sides).  Read off the two signs, so two sign calls.
    """
    _at_least(n, 1, "index")
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


def separation_report(pair: EnumeratedPair, max_n: int) -> tuple[SeparatorEntry, ...]:
    """Sweep the separator over 1..max_n against the pair's ground truth.

    One entry per n, in order.  Needs a pair with a membership hint, for a
    computable base order and for the expected answers.
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
    return tuple(entries)


def merge_probe(n: int, enum_n, fuel: int) -> SemiVerdict:
    """Fueled semi-decision of "n lies in the enumerated set".

    Probes triviality of the embedded word ``a(2n) a(2n-1)^-1`` over the
    merge-relation base group: trivial exactly when some enumerated value
    equals n.  Trivial verdicts are final; unknown only means the fuel ran
    out before n showed up.  Repeated probes over the same ``enum_n``
    share its position index (see :func:`base_groups.re_oracle`), so each
    enumerated value is fetched once, however many probes ask for it.
    The base word is built directly as its two runs, with no text.
    """
    _at_least(n, 1, "index")
    word = Word(A_ALPHABET, (("a", 2 * n, 1), ("a", 2 * n - 1, -1)))
    element = twogen.encode_word(word)
    return twogen.semi_trivial(element, re_oracle(enum_n), fuel)
