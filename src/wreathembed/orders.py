"""Computable strict orders and their lift through the embedding.

An :class:`OrderOracle` is a strict total order (modulo group equality) on
the words of one group, given as a computable predicate ``less``.  Orders on
a base group lift to the inner wreath stage and from there to the
two-generator group: compare the trailing shift exponents first, and when
those agree compare the carried values at the least point where they differ.
Lifting a bi-invariant order this way again yields a bi-invariant order.

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
    """A computable strict total order on the words of one group."""

    name: str
    alphabet: Alphabet
    less: Callable[[Word, Word], bool]


def _vector_less(u: dict[int, int], v: dict[int, int]) -> bool:
    # Lexicographic on sparse integer vectors: the smallest coordinate where
    # they differ decides, smaller value first.
    keys = sorted(set(u) | set(v))
    for key in keys:
        a, b = u.get(key, 0), v.get(key, 0)
        if a != b:
            return a < b
    return False


def lex_less(u: Word, v: Word) -> bool:
    """Strict lexicographic order on the free abelian group."""
    return _vector_less(exponent_vector(u), exponent_vector(v))


def lex_order(alphabet: Alphabet = X_ALPHABET) -> OrderOracle:
    return OrderOracle("lex", alphabet, lex_less)


def pair_adapted_order(pair: EnumeratedPair, alphabet: Alphabet = A_ALPHABET) -> OrderOracle:
    """Lexicographic order on the pair-relation group, via the adapted basis.

    Needs the pair's membership hint to rewrite words; equal group elements
    get equal vectors, so the order is well defined on the group.
    """

    def less(u: Word, v: Word) -> bool:
        return _vector_less(pair_basis_vector(u, pair), pair_basis_vector(v, pair))

    return OrderOracle(f"lex[{pair.name}]", alphabet, less)


def _check_alphabets(H: GroupOracle, H_order: OrderOracle) -> None:
    if H.alphabet != H_order.alphabet:
        raise ValueError(
            f"oracle {H.name!r} and order {H_order.name!r} use different alphabets"
        )


def zb_compare(
    a: ZBElement, b: ZBElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """("LT"|"GT"|"EQ", deciding clause, deciding point).

    The clause is "tail" when the trailing shift exponents differ, "value"
    when the carried values decide at their least differing point, and
    "equal" otherwise.
    """
    _check_alphabets(H, H_order)
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)
    nu0 = wreath.min_support(a * ~b, H)
    if nu0 is None:
        return ("EQ", "equal", None)
    va = wreath.value_at(a, nu0, H.alphabet)
    vb = wreath.value_at(b, nu0, H.alphabet)
    if H_order.less(va, vb):
        return ("LT", "value", nu0)
    if H_order.less(vb, va):
        return ("GT", "value", nu0)
    raise ValueError(f"order {H_order.name!r} is not total on distinct elements")


def fs_compare(
    a: FSElement, b: FSElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """Like :func:`zb_compare`, one level up."""
    _check_alphabets(H, H_order)
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)
    mu0 = twogen.min_support(a * ~b, H)
    if mu0 is None:
        return ("EQ", "equal", None)
    verdict = zb_compare(twogen.value_at(a, mu0), twogen.value_at(b, mu0), H_order, H)[0]
    if verdict == "EQ":
        raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
    return (verdict, "value", mu0)


def fs_less(a: FSElement, b: FSElement, H_order: OrderOracle, H: GroupOracle) -> bool:
    return fs_compare(a, b, H_order, H)[0] == "LT"


def lifted_order(H: GroupOracle, H_order: OrderOracle) -> OrderOracle:
    """The doubly lifted order as an oracle over ``f``/``s`` words."""

    def less(u: Word, v: Word) -> bool:
        return fs_less(twogen.from_word(u), twogen.from_word(v), H_order, H)

    return OrderOracle(f"lift2[{H_order.name}]", FS_ALPHABET, less)
