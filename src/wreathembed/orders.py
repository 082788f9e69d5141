"""Computable total orders and their lift through the embedding.

An :class:`OrderOracle` is a total order (modulo group equality) on the
words of one group, given as one computable three-way comparison
``compare(u, v)`` that answers "LT", "EQ" or "GT", with "EQ" exactly when
u and v are equal in the group.  Orders on a base group lift to the inner
wreath stage and from there to the two-generator group by one lift step:
compare the trailing shift exponents first, and when those agree compare
the carried values at the least point where they differ.  Lifting a
bi-invariant order this way again yields a bi-invariant order.

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


def _vector_compare(u: dict[int, int], v: dict[int, int]) -> str:
    # Lexicographic on sparse integer vectors: the smallest coordinate where
    # they differ decides, smaller value first.
    for key in sorted(set(u) | set(v)):
        a, b = u.get(key, 0), v.get(key, 0)
        if a != b:
            return "LT" if a < b else "GT"
    return "EQ"


def lex_order() -> OrderOracle:
    """Lexicographic order on the free abelian group."""
    return OrderOracle(
        "lex", X_ALPHABET, lambda u, v: _vector_compare(exponent_vector(u), exponent_vector(v))
    )


def pair_adapted_order(pair: EnumeratedPair) -> OrderOracle:
    """Lexicographic order on the pair-relation group, via the adapted basis.

    Needs the pair's membership hint to rewrite words; equal group elements
    get equal vectors, so the order is well defined on the group.
    """

    def compare(u: Word, v: Word) -> str:
        return _vector_compare(pair_basis_vector(u, pair), pair_basis_vector(v, pair))

    return OrderOracle(f"lex[{pair.name}]", A_ALPHABET, compare)


def _lift(a, b, stage, H_order: OrderOracle, H: GroupOracle, compare_at):
    # One lift step at either stage: the trailing shift powers decide first,
    # else ``compare_at(point)`` compares the values at the least support
    # point, found by ``stage.min_support``.
    if H.alphabet != H_order.alphabet:
        raise ValueError(f"oracle {H.name!r} and order {H_order.name!r} use different alphabets")
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)
    point = stage.min_support(a * ~b, H)
    if point is None:
        return ("EQ", "equal", None)
    verdict = compare_at(point)
    if verdict == "EQ":
        raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
    return (verdict, "value", point)


def zb_compare(
    a: ZBElement, b: ZBElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """("LT"|"GT"|"EQ", deciding clause, deciding point).

    The clause is "tail" when the trailing shift exponents differ, "value"
    when the carried values decide at their least differing point, and
    "equal" otherwise.
    """

    def compare_at(nu: int) -> str:
        va, vb = wreath.value_at(a, nu, H.alphabet), wreath.value_at(b, nu, H.alphabet)
        return H_order.compare(va, vb)

    return _lift(a, b, wreath, H_order, H, compare_at)


def fs_compare(
    a: FSElement, b: FSElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """Like :func:`zb_compare`, one level up."""

    def compare_at(mu: int) -> str:
        return zb_compare(twogen.value_at(a, mu), twogen.value_at(b, mu), H_order, H)[0]

    return _lift(a, b, twogen, H_order, H, compare_at)


def lifted_order(H: GroupOracle, H_order: OrderOracle) -> OrderOracle:
    """The doubly lifted order as an oracle over ``f``/``s`` words."""

    def compare(u: Word, v: Word) -> str:
        return fs_compare(twogen.from_word(u), twogen.from_word(v), H_order, H)[0]

    return OrderOracle(f"lift2[{H_order.name}]", FS_ALPHABET, compare)
