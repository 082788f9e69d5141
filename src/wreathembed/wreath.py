"""Inner wreath stage: the group generated by ``z`` and ``b1, b2, ...``.

Elements live in the restricted wreath product of a base group H (one copy
per integer point) by the infinite cyclic group on ``z``.  The generator
``b_i`` is the function taking the value ``x_i`` at every point >= 1 and the
identity elsewhere; ``z`` shifts arguments: conjugating a function by
``z^c`` evaluates it ``c`` further to the right.

Normal form: the shared :class:`~wreathembed.words.WreathElement`, here
with factors ``(i, eta, xi)``, each denoting the ``z^eta``-conjugate of
``b_i`` raised to ``xi``, followed by a trailing ``z^tail``.  Only adjacent
factors with equal ``(i, eta)`` merge.  The decider is :func:`semi_trivial`
relative to a base oracle.

Every factor switches on at the single step point ``1 - eta``, so the value
function is the identity left of the least step point and constant from
each step point up to the next.  Every decider's scan is therefore a lazy
stream of ``(point, verdict)`` pairs over the step points in increasing
order, read by one function, :func:`_first_failure`, which stops at the
first verdict that is not TRIVIAL: its cost depends on the number of
factors, not on the size of the exponents.  The outer stage's word problem
reads its stream through it too.

Every scan reads its points from one walk, :func:`_walk`: it sorts the
factors once by ``eta``, pops every factor sharing the next ``eta`` into one
running vector, and yields ``1 - eta`` with the live vector, so a scan over
n factors costs O(n log n + points * live coordinates).  Every base in
:mod:`wreathembed.base_groups` is abelian and states its rule on exponent
vectors (``GroupOracle.on_vectors``), so it reads that vector; a base whose
values need not commute gets the word :func:`value_at` builds at each walked
point instead.  :func:`in_diagonal` is the same scan of the element with
every factor at ``eta = 1`` moved to ``eta = 0``.  :func:`_lifted_sign`,
the sign :mod:`wreathembed.orders` compares by, is the tail's sign or, when
that is 0, the first nonzero sign the base order gives the walked vector;
in the same walk the base confirms each zero sign, which guards against an
order rule that is not a cone.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

from wreathembed.base_groups import NONTRIVIAL, TRIVIAL, GroupOracle, SemiVerdict, _shift
from wreathembed.words import (
    X_ALPHABET,
    ZB_ALPHABET,
    Alphabet,
    Word,
    WreathElement,
    _push,
)


class ZBElement(WreathElement):
    """Normal form of a word in ``z`` and the ``b_i``."""

    __slots__ = ()
    ALPHABET, SHIFT, GENERATOR = ZB_ALPHABET, "z", "b"


def from_word(word: Word) -> ZBElement:
    """Kept for perfbench/tests/test_perfbench.py; the library builds with ZBElement.from_word."""
    return ZBElement.from_word(word)


def _refuse_index(i: int, alphabet: Alphabet) -> None:
    # Raise the WordError of a raw factor's index i < 1, named with the
    # alphabet's indexed letter.
    alphabet.validate(next(iter(alphabet.indexed)), i)


def value_at(a: ZBElement, nu: int, alphabet: Alphabet = X_ALPHABET) -> Word:
    """The base-group word this element carries at the point ``nu``.

    A factor ``(i, eta, xi)`` contributes ``x_i^xi`` exactly when
    ``nu + eta >= 1``; the trailing ``z`` power carries no base value.  The
    letter is the alphabet's own indexed letter, so an index below 1 is the
    only letter a raw factor can get wrong.
    """
    letter = next(iter(alphabet.indexed))
    runs: list[tuple[str, int, int]] = []
    for i, eta, xi in a.factors:
        if nu + eta >= 1:
            if i < 1:
                _refuse_index(i, alphabet)
            _push(runs, (letter, i, xi))
    return Word(alphabet, tuple(runs))


def _first_failure(values: Iterable[tuple[int, SemiVerdict]]) -> tuple[int | None, SemiVerdict]:
    """The reader of each stage's triviality scan; ``twogen.in_image`` reads
    its collision points with ``all`` instead.

    ``values`` yields ``(point, verdict)`` pairs in scan order.  Returns the
    first pair whose verdict is not TRIVIAL, consuming ``values`` only up to
    it; ``(None, TRIVIAL)`` when there is none.
    """
    for point, verdict in values:
        if verdict is not TRIVIAL:
            return point, verdict
    return None, TRIVIAL


def _walk(a: ZBElement, alphabet: Alphabet) -> Iterator[tuple[int, dict[int, int]]]:
    """``(1 - eta, vector)`` at each distinct step point, ascending.

    One sort of the factors; every factor sharing the next ``eta`` is then
    popped into one running ``vector``, the exponent vector of the value,
    yielded live: the caller may read it but must neither change nor keep
    it.  An index below 1 is reported with the alphabet's letter.
    """
    pending = sorted(a.factors, key=itemgetter(1))  # the least step point last
    vector: dict[int, int] = {}
    while pending:
        eta = pending[-1][1]
        while pending and pending[-1][1] == eta:
            i, _, xi = pending.pop()
            if i < 1:
                _refuse_index(i, alphabet)
            _shift(vector, i, xi)
        yield 1 - eta, vector


def _check(a: ZBElement, H: GroupOracle, fuel: int) -> Iterator[tuple[int, SemiVerdict]]:
    """The base's verdict at each step point :func:`_walk` yields, on its vector or value word."""
    if H.on_vectors:
        return ((nu, H.rule(vector, fuel)) for nu, vector in _walk(a, H.alphabet))
    return ((nu, H.rule(value_at(a, nu, H.alphabet), fuel)) for nu, _ in _walk(a, H.alphabet))


def _sign_of(x: int) -> int:
    return (x > 0) - (x < 0)


def _lifted_sign(a: ZBElement, H_order, H: GroupOracle) -> tuple[int | None, int]:
    # (deciding point, sign) in the order lifted from H_order: the tail's sign
    # at no point, else the first nonzero sign walked.  The total base H
    # confirms each zero sign, so a rule that is no cone raises where it errs.
    if a.tail:
        return None, _sign_of(a.tail)
    on_vectors = H.on_vectors
    for nu, vector in _walk(a, H_order.alphabet):
        if sign := H_order.sign(vector):
            return nu, sign
        if not H.rule(vector if on_vectors else value_at(a, nu, H.alphabet), 0).trivial:
            raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
    return None, 0


def is_trivial(a: ZBElement, H: GroupOracle) -> bool:
    """Word problem relative to a total base oracle, by :func:`semi_trivial`."""
    H.require_total()
    return semi_trivial(a, H, 0).trivial


def semi_trivial(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    """Fuel-bounded word problem; refutations are fuel-independent.

    A nonzero trailing ``z`` power refutes at once.  Otherwise the first
    step point whose verdict is not TRIVIAL decides, which is exact: a
    total base answers only TRIVIAL or NONTRIVIAL, and a fueled base only
    TRIVIAL or UNKNOWN, so the first such verdict is NONTRIVIAL exactly when
    some point is refuted and UNKNOWN exactly when none is and some point is
    not certified.  The verdicts come from :func:`_check`.
    """
    if a.tail != 0:
        return NONTRIVIAL
    return _first_failure(_check(a, H, fuel))[1]


def in_diagonal(a: ZBElement, H: GroupOracle) -> bool:
    """Membership in the subgroup generated by the commutators ``[z, b_i]``.

    Those commutators carry arbitrary base values at point 0 and nothing
    anywhere else, so membership holds iff the trailing ``z`` power vanishes
    and the value function is trivial at every nonzero point.  Moving each
    factor at ``eta = 1`` to ``eta = 0`` changes only the value at 0, to the
    value at -1, so that holds iff the moved element is trivial.  It is built
    raw, since ``make`` would report an index below 1 with the letter ``b``.
    """
    moved = tuple((i, 0 if eta == 1 else eta, xi) for i, eta, xi in a.factors)
    return is_trivial(ZBElement(moved, a.tail), H)


def diagonal_encode(word: Word) -> ZBElement:
    """Send the letter with index i to ``[z, b_i]``; a group embedding."""
    return ZBElement.make(
        (index, eta, sign * exp) for _, index, exp in word.runs for eta, sign in ((1, 1), (0, -1))
    )
