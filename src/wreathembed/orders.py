"""Computable total orders and their lift through the embedding.

An :class:`OrderOracle` is a total order (modulo group equality) on the
words of one group, given as one computable three-way comparison
``compare(u, v)`` that answers "LT", "EQ" or "GT", with "EQ" exactly when
u and v are equal in the group.  Orders on a base group lift to the inner
wreath stage and on to the two-generator group: the trailing shift exponents
decide first, then the values at the least point where they differ, which the
outer stage finds by the inner compare of each support candidate, as equal
tails give ``value(a * ~b) = value(a) value(b)^-1``.  Lifts keep bi-invariance.

For the pair-relation base groups the order compares exponent vectors
rewritten into a basis adapted to the relations, so equal group elements
always compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    EnumeratedPair,
    GroupOracle,
    exponent_vector,
    pair_basis_vector,
)
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, FS_ALPHABET, X_ALPHABET, Alphabet, Word
from wreathembed.wreath import ZBElement


@dataclass(frozen=True)
class OrderOracle:
    """A computable total order on the words of one group.

    ``compare(u, v)`` answers "LT", "EQ" or "GT"; "EQ" exactly when u and
    v are equal in the group.
    """

    name: str
    alphabet: Alphabet
    compare: Callable[[Word, Word], str]


def _vector_order(
    name: str, alphabet: Alphabet, vector: Callable[[Word], dict[int, int]]
) -> OrderOracle:
    # Lexicographic on the words' sparse vectors: the least differing coordinate decides.
    def compare(u: Word, v: Word) -> str:
        vu, vv = vector(u), vector(v)
        for key in sorted(set(vu) | set(vv)):
            a, b = vu.get(key, 0), vv.get(key, 0)
            if a != b:
                return "LT" if a < b else "GT"
        return "EQ"

    return OrderOracle(name, alphabet, compare)


def lex_order() -> OrderOracle:
    """Lexicographic order on the free abelian group."""
    return _vector_order("lex", X_ALPHABET, exponent_vector)


def pair_adapted_order(pair: EnumeratedPair) -> OrderOracle:
    """Lexicographic order on the pair-relation group, via the adapted basis.

    Needs the pair's membership hint to rewrite words; equal group elements
    get equal vectors, so the order is well defined on the group.
    """
    return _vector_order(f"lex[{pair.name}]", A_ALPHABET, lambda w: pair_basis_vector(w, pair))


def _tail_clause(a, b, H_order: OrderOracle, H: GroupOracle):
    # The first clause at both stages: the trailing shift powers decide; None when equal.
    if H.alphabet != H_order.alphabet:
        raise ValueError(f"oracle {H.name!r} and order {H_order.name!r} use different alphabets")
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)


def zb_compare(
    a: ZBElement, b: ZBElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """("LT"|"GT"|"EQ", deciding clause, deciding point).

    The clause is "tail" when the trailing shift exponents differ, "value"
    when the carried values decide at their least differing point, and
    "equal" otherwise.
    """
    if (clause := _tail_clause(a, b, H_order, H)) is not None:
        return clause
    point = wreath.min_support(a * ~b, H)
    if point is None:
        return ("EQ", "equal", None)
    verdict = H_order.compare(*(wreath.value_at(x, point, H.alphabet) for x in (a, b)))
    if verdict == "EQ":
        raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
    return (verdict, "value", point)


def fs_compare(
    a: FSElement, b: FSElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """Like :func:`zb_compare`, one level up."""
    if (clause := _tail_clause(a, b, H_order, H)) is not None:
        return clause
    H.require_total()
    for mu in twogen._support_points(a * ~b):
        verdict = zb_compare(twogen.value_at(a, mu), twogen.value_at(b, mu), H_order, H)[0]
        if verdict != "EQ":
            return (verdict, "value", mu)
    return ("EQ", "equal", None)


def lifted_order(H: GroupOracle, H_order: OrderOracle) -> OrderOracle:
    """The doubly lifted order as an oracle over ``f``/``s`` words."""

    def compare(u: Word, v: Word) -> str:
        return fs_compare(twogen.from_word(u), twogen.from_word(v), H_order, H)[0]

    return OrderOracle(f"lift2[{H_order.name}]", FS_ALPHABET, compare)
