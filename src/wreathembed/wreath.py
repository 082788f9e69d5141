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
each step point up to the next.  Every decision procedure therefore runs
one scan, :func:`_first_failure`, over the step points in increasing order:
its cost depends on the number of factors, not on the size of the
exponents.  The outer stage decides through this scan too, with its own
verdict rule.

Every base in :mod:`wreathembed.base_groups` is abelian and carries a rule
on exponent vectors (``GroupOracle.vector_check``).  Over such a base the
scan sorts the factors once by step point and keeps one running vector
(see :func:`_running`): each factor is added as the ascending scan reaches
its step point, and the rule reads that live vector at each point.  A scan
over n factors then costs O(n log n + points * live coordinates), where
rebuilding the value word at each point cost O(n * points).  A base without
a vector rule, whose values need not commute, is still checked on the word
:func:`value_at` builds at each point.  The lifted orders of
:mod:`wreathembed.orders` read the same running vector: the inner sign of an
element is the sign of its tail or, when that is 0, the first nonzero sign
the base order gives that vector over the step points.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable

from wreathembed.base_groups import NONTRIVIAL, TRIVIAL, GroupOracle, SemiVerdict, _shift
from wreathembed.words import (
    X_ALPHABET,
    ZB_ALPHABET,
    Alphabet,
    Word,
    WordError,
    WreathElement,
    _push,
)


class ZBElement(WreathElement):
    """Normal form of a word in ``z`` and the ``b_i``."""

    ALPHABET, SHIFT, GENERATOR = ZB_ALPHABET, "z", "b"


def from_word(word: Word) -> ZBElement:
    """Evaluate a word over the ``z``/``b`` alphabet into normal form."""
    return ZBElement.from_word(word)


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
                raise WordError(f"index must be >= 1, got {letter}{i}")
            _push(runs, (letter, i, xi))
    return Word(alphabet, tuple(runs))


def step_points(a: ZBElement) -> list[int]:
    """The distinct points ``1 - eta`` where some factor switches on, sorted.

    The value function is the identity left of the first, and constant from
    each one up to the next (and beyond the last), so evaluating it at the
    step points decides every global question.
    """
    return sorted({1 - eta for _, eta, _ in a.factors})


def _first_failure(
    verdict_at: Callable[[int], SemiVerdict], points: Iterable[int]
) -> tuple[int | None, SemiVerdict]:
    """The scan behind every decider at both stages.

    Asks ``verdict_at`` at each point in turn and stops at the first verdict
    that is not TRIVIAL, returning that point and verdict; ``(None,
    TRIVIAL)`` when every value is certified trivial.  The points must
    ascend: the inner verdict rule (see :func:`_check`) carries its running
    vector from each point to the next.
    """
    for point in points:
        verdict = verdict_at(point)
        if not verdict.trivial:
            return point, verdict
    return None, TRIVIAL


def _running(a: ZBElement, alphabet: Alphabet, rule: Callable[..., Any], *args) -> Callable:
    """``rule(vector, *args)`` on the exponent vector of the value at each point asked.

    The factors are sorted once by step point, and each is added to one
    running vector as the points asked reach its step point ``1 - eta``; so
    the points must ascend, and a descending one raises ValueError.  The
    rule may read the live vector but must neither change nor keep it.  A
    raw factor with an index below 1 is reported with the alphabet's
    indexed letter.
    """
    pending = sorted(a.factors, key=itemgetter(1))  # the least step point last
    vector: dict[int, int] = {}
    last = None

    def at(nu: int) -> Any:
        nonlocal last
        if last is not None and nu < last:
            raise ValueError(f"scan points must ascend, got {nu} after {last}")
        last = nu
        while pending and nu + pending[-1][1] >= 1:
            i, _, xi = pending.pop()
            if i < 1:
                raise WordError(f"index must be >= 1, got {next(iter(alphabet.indexed))}{i}")
            _shift(vector, i, xi)
        return rule(vector, *args)

    return at


def _check(a: ZBElement, H: GroupOracle, fuel: int) -> Callable[[int], SemiVerdict]:
    """This stage's verdict rule: the base checks the value at each point.

    A base with a vector rule reads the running vector of :func:`_running`,
    so the points asked must ascend.
    """
    if H.vector_check is None:
        return lambda nu: H.check(value_at(a, nu, H.alphabet), fuel)
    return _running(a, H.alphabet, H.vector_check, fuel)


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
    not certified.  A base with a vector rule reads one running exponent
    vector at each step point, so n factors cost O(n log n + points * live
    coordinates); any other base gets the word :func:`value_at` builds.
    """
    if a.tail != 0:
        return NONTRIVIAL
    return _first_failure(_check(a, H, fuel), step_points(a))[1]


def in_diagonal(a: ZBElement, H: GroupOracle) -> bool:
    """Membership in the subgroup generated by the commutators ``[z, b_i]``.

    Those commutators carry arbitrary base values at point 0 and nothing
    anywhere else, so membership holds iff the trailing ``z`` power vanishes
    and the value function is trivial at every nonzero point.  It is
    constant from each step point to the next (see :func:`step_points`), so
    testing each step point, with 1 in place of a step point 0, is exact: 1
    lies in the interval from 0 unless 1 is a step point itself.
    """
    H.require_total()
    if a.tail != 0:
        return False
    points = sorted({nu or 1 for nu in step_points(a)})
    return _first_failure(_check(a, H, 0), points)[0] is None


def diagonal_encode(word: Word) -> ZBElement:
    """Send the letter with index i to ``[z, b_i]``; a group embedding."""
    return ZBElement.make(
        (index, eta, sign * exp) for _, index, exp in word.runs for eta, sign in ((1, 1), (0, -1))
    )
