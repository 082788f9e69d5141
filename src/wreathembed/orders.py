"""Computable bi-orders as positive cones, and their lift through the embedding.

A bi-order is fixed by its positive cone P: ``u < v`` exactly when
``v * ~u`` lies in P (Clay & Rolfsen, *Ordered Groups and Topology*).  So an
:class:`OrderOracle` is one sign rule on the normal forms of one group: 1 on
P, -1 on its inverses and 0 exactly on the identity.
:meth:`OrderOracle.sign_of` reads the sign of a word off its normal form,
and ``compare(u, v)`` is the sign of ``u * ~v``.  The orders on the base
groups read the sign of the least live coordinate of an exponent vector.
For the pair-relation base groups that vector is first rewritten into a
basis adapted to the relations, so equal group elements always get the
same sign.

Each wreath stage module lifts a sign in the same way, over the points its
deciders scan (``wreath._lifted_sign``, ``twogen._lifted_sign``): the sign
of the trailing shift power and, when that is 0, the first nonzero sign of
the carried value.  The lift of a cone is a cone, so lifts keep
bi-invariance.  :func:`zb_compare` and :func:`fs_compare` read the lifted
sign of ``a * ~b`` in one walk, which asks the base oracle only to confirm
each zero sign it passes: a rule that is not a cone can give 0 on a
nontrivial value, and the walk raises there.  No decider is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from wreathembed import twogen, wreath
from wreathembed.base_groups import EnumeratedPair, GroupOracle, exponent_vector, pair_basis_vector
from wreathembed.words import A_ALPHABET, FS_ALPHABET, X_ALPHABET, Alphabet, Word

_VERDICTS = {-1: "LT", 0: "EQ", 1: "GT"}


@dataclass(frozen=True, eq=False, repr=False)
class OrderOracle:
    """A computable bi-order on one group, given by its positive cone.

    ``sign`` answers 1, 0 or -1 on a normal form: the exponent vector of a
    word over an indexed alphabet, or the
    :class:`~wreathembed.twogen.FSElement` of an ``f``/``s`` word.  It
    answers 0 exactly on the identity.  Equality is identity.
    """

    name: str
    alphabet: Alphabet
    sign: Callable[[Any], int]

    def sign_of(self, word: Word) -> int:
        """The sign of ``word``'s normal form: 1 on the positive cone, -1 on
        its inverses, 0 on the identity."""
        if word.alphabet is not self.alphabet:
            raise ValueError(f"expected the {self.alphabet.name} alphabet")
        if self.alphabet is FS_ALPHABET:
            return self.sign(twogen.FSElement.from_word(word))
        return self.sign(exponent_vector(word))

    def compare(self, u: Word, v: Word) -> str:
        """The verdict "LT", "EQ" or "GT" as the sign of ``u * ~v`` is -1, 0 or 1."""
        return _VERDICTS[self.sign_of(u * ~v)]


def _lex_sign(vector: dict[int, int]) -> int:
    # The sign of the least live coordinate; 0 on the empty vector.
    return wreath._sign_of(vector[min(vector)]) if vector else 0


def lex_order() -> OrderOracle:
    """Lexicographic order on the free abelian group."""
    return OrderOracle("lex", X_ALPHABET, _lex_sign)


def pair_adapted_order(pair: EnumeratedPair) -> OrderOracle:
    """Lexicographic order on the pair-relation group, via the adapted basis.

    Needs the pair's membership hint to rewrite vectors; equal group
    elements get equal adapted vectors, so the order is well defined on the
    group.
    """
    return OrderOracle(
        f"lex[{pair.name}]", A_ALPHABET, lambda vector: _lex_sign(pair_basis_vector(vector, pair))
    )


def _checked_sign(c, H_order: OrderOracle, H: GroupOracle, stage):
    # The lifted sign of c in the group of the stage module, with its clause
    # and point; the stage's walk has the base oracle confirm each zero sign.
    if H.alphabet is not H_order.alphabet:
        raise ValueError(f"oracle {H.name!r} and order {H_order.name!r} use different alphabets")
    if not c.tail:
        H.require_total()
    point, sign = stage._lifted_sign(c, H_order, H)
    return sign, "tail" if c.tail else "value" if sign else "equal", point


def zb_compare(
    a: wreath.ZBElement, b: wreath.ZBElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """("LT"|"GT"|"EQ", deciding clause, deciding point).

    Read off the lifted sign of ``a * ~b``.  The clause is "tail" when the
    trailing shift exponents differ, "value" when the carried values decide
    at their least differing point, and "equal" otherwise.
    """
    sign, clause, point = _checked_sign(a * ~b, H_order, H, wreath)
    return _VERDICTS[sign], clause, point


def fs_compare(
    a: twogen.FSElement, b: twogen.FSElement, H_order: OrderOracle, H: GroupOracle
) -> tuple[str, str, int | None]:
    """Like :func:`zb_compare`, one level up."""
    sign, clause, point = _checked_sign(a * ~b, H_order, H, twogen)
    return _VERDICTS[sign], clause, point


def lifted_order(H: GroupOracle, H_order: OrderOracle) -> OrderOracle:
    """The doubly lifted order as an oracle over ``f``/``s`` words."""

    def sign(a: twogen.FSElement) -> int:
        return _checked_sign(a, H_order, H, twogen)[0]

    return OrderOracle(f"lift2[{H_order.name}]", FS_ALPHABET, sign)
