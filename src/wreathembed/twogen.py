"""Outer stage: the two-generator group on ``f`` and ``s``.

Elements live in the restricted wreath product of the inner stage
(:mod:`wreathembed.wreath`) by the infinite cyclic group on ``s``.  The
single generator ``f`` is the function on ``s``-points whose value at point
``n`` is ``z`` when ``n = 1``, the inner generator ``b_i`` when ``n = 2^i``
(i >= 1), and the identity otherwise; ``s`` shifts arguments.

Normal form: the same :class:`~wreathembed.words.WreathElement` as the
inner stage, here with factors ``(gamma, beta)``, each denoting the
``s^gamma``-conjugate of ``f`` raised to ``beta``, followed by a trailing
``s^tail``.  Only adjacent factors with equal ``gamma`` merge.

A factor ``(gamma, beta)`` contributes a value only at points ``mu`` with
``gamma + mu`` equal to 1 or a power of two.  Once every conjugacy class
of factors has exponent sum zero, a point where a single class is active
carries ``z^0`` or ``b_i^0``, the identity; only the collision points,
where two classes are active at once, can carry anything else.  Two
classes collide at most once, at a point found with a few big-integer
operations (see :func:`collision_points`), so an element with d distinct
conjugating exponents is decided by evaluating at most d(d-1)/2 points.
Every decision procedure runs one scan, :func:`_first_failure`, over them.
The conjugating exponents themselves may be astronomically large (they are
``2^i - 1`` for the embedding of the i-th base generator) and everything
stays exact integer arithmetic.

The embedding of a countable base group H sends its i-th generator to the
commutator of ``f`` with its ``s^(2^i - 1)``-conjugate.  That element is
supported at the single point 1, where its value is the inner commutator
``[z, b_i]``; composing with the inner diagonal embedding gives the
two-stage embedding of H into this group, with image recognized by
:func:`in_image` and inverted by :func:`decode`.
"""

from __future__ import annotations

from typing import Iterable

from wreathembed import wreath
from wreathembed.base_groups import NONTRIVIAL, TRIVIAL, GroupOracle, SemiVerdict
from wreathembed.words import FS_ALPHABET, Gen, Word, WreathElement
from wreathembed.wreath import ZBElement


class FSElement(WreathElement):
    """Normal form of a word in ``f`` and ``s``."""

    ALPHABET, SHIFT, GENERATOR = FS_ALPHABET, "s", "f"


def from_word(word: Word) -> FSElement:
    """Evaluate a word over the ``f``/``s`` alphabet into normal form."""
    return FSElement.from_word(word)


def class_sums(a: FSElement) -> dict[int, int]:
    """Total exponent per conjugating power, including zero totals."""
    out: dict[int, int] = {}
    for gamma, beta in a.factors:
        out[gamma] = out.get(gamma, 0) + beta
    return out


def _f_value_at(n: int, beta: int) -> ZBElement | None:
    # The defining values of f: z at 1, b_i at 2^i, identity elsewhere.
    if n == 1:
        return ZBElement((), beta)
    if n >= 2 and n & (n - 1) == 0:
        return ZBElement(((n.bit_length() - 1, 0, beta),), 0)
    return None


def value_at(a: FSElement, mu: int) -> ZBElement:
    """The inner-stage element this element carries at the point ``mu``."""
    out = ZBElement.identity()
    for gamma, beta in a.factors:
        value = _f_value_at(gamma + mu, beta)
        if value is not None:
            out = out * value
    return out


def collision_points(a: FSElement) -> list[int]:
    """Sorted points where two or more conjugating classes are active at once.

    Classes ``gamma1 > gamma2`` are both active at ``mu`` iff
    ``gamma1 + mu = 2^p`` and ``gamma2 + mu = 2^q``, so their difference
    ``d`` must equal ``2^p - 2^q`` with ``p > q >= 0``.  Such a ``d`` fixes
    ``q`` as its number of trailing zeros, after which ``(d >> q) + 1``
    must be a power of two; the one shared point is ``mu = 2^q - gamma2``.
    Each pair of classes therefore costs O(1) big-integer operations,
    however large the exponents.
    """
    classes = sorted({gamma for gamma, _ in a.factors})
    points: set[int] = set()
    for at, low in enumerate(classes):
        for high in classes[at + 1 :]:
            d = high - low
            q = (d & -d).bit_length() - 1
            rest = (d >> q) + 1
            if rest & (rest - 1) == 0:
                points.add((1 << q) - low)
    return sorted(points)


def _balanced(a: FSElement) -> bool:
    # No trailing s power, and every conjugacy class of factors sums to zero.
    return a.tail == 0 and all(total == 0 for total in class_sums(a).values())


def _first_failure(
    a: FSElement, H: GroupOracle, fuel: int, points: Iterable[int]
) -> tuple[int | None, SemiVerdict]:
    """The scan behind every outer decider.

    Decides the inner value at each point in turn and stops at the first
    verdict that is not TRIVIAL, returning that point and verdict; ``(None,
    TRIVIAL)`` when every value is certified trivial.  On a balanced element
    (see :func:`_balanced`) every value carries ``z``-power 0: ``f`` takes
    the value ``z`` only at 1, so at the point ``mu`` only the class
    ``1 - mu`` supplies ``z`` letters, and its sum is zero.  An inner
    refutation can then only come from the base, which never refutes when
    fueled and is never UNKNOWN when total, so the first verdict that is
    not TRIVIAL is the verdict of the whole scan, as in
    :func:`wreath.semi_trivial`.
    """
    for mu in points:
        verdict = wreath.semi_trivial(value_at(a, mu), H, fuel)
        if not verdict.trivial:
            return mu, verdict
    return None, TRIVIAL


def is_trivial(a: FSElement, H: GroupOracle) -> bool:
    """Word problem relative to a total base oracle.

    Trivial iff the trailing ``s`` power vanishes, every conjugacy class of
    factors has exponent sum zero (a class with a nonzero sum leaves a
    trailing ``z`` power at its first active point; see
    :func:`min_support`), and the carried value is inner-trivial at every
    collision point.  Once the class sums vanish, a point where a single
    class is active carries ``z^0`` or ``b_i^0``, the identity whatever the
    base group, so only the O(d^2) collision points of the d classes need
    evaluating.
    """
    H.require_total()
    return _balanced(a) and _first_failure(a, H, 0, collision_points(a))[0] is None


def semi_trivial(a: FSElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    """Fuel-bounded word problem; refutations are fuel-independent.

    The same collision-point reduction as :func:`is_trivial`; the first
    collision point whose verdict is not TRIVIAL decides.
    """
    if not _balanced(a):
        return NONTRIVIAL
    return _first_failure(a, H, fuel, collision_points(a))[1]


def min_support(a: FSElement, H: GroupOracle) -> int | None:
    """Least point where the carried value is nontrivial, if any.

    A class ``gamma`` is active first at ``1 - gamma``, where it alone
    supplies the ``z`` letters, so the value there has trailing ``z`` power
    equal to the class sum: nontrivial whenever that sum is, whatever the
    base group.  Below that point a class with a nonzero sum carries
    nothing, and a lone class with a zero sum carries the identity.  So the
    answer is the least of two kinds of candidate: a collision point whose
    value is nontrivial, and ``1 - gamma`` for each class with a nonzero
    sum.  No assumption on the orders of the base generators is needed.
    """
    H.require_total()
    best = min((1 - gamma for gamma, total in class_sums(a).items() if total != 0), default=None)
    points = [mu for mu in collision_points(a) if best is None or mu < best]
    mu = _first_failure(a, H, 0, points)[0]
    return best if mu is None else mu


def generator_word(i: int) -> Word:
    """The ``f``/``s`` word embedding the i-th base generator.

    The commutator of ``f`` with its ``s^(2^i - 1)``-conjugate: supported
    at the single point 1, carrying the inner commutator ``[z, b_i]``.
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    k = (1 << i) - 1
    f, s = Gen("f", None), Gen("s", None)
    return Word.make(
        FS_ALPHABET,
        [(f, 1), (s, k), (f, 1), (s, -k), (f, -1), (s, k), (f, -1), (s, -k)],
    )


def encode_word(word: Word) -> FSElement:
    """Embed a word of the base group, letter by letter."""
    out = Word.identity(FS_ALPHABET)
    for gen, exp in word.runs:
        if gen.index is None:
            raise ValueError(f"generator {gen} carries no index")
        out = out * generator_word(gen.index) ** exp
    return from_word(out)


def in_image(a: FSElement, H: GroupOracle) -> bool:
    """Membership in the embedded copy of the base group.

    Image elements are supported at the single point 1, where their value
    lies in the inner diagonal subgroup.  As in :func:`is_trivial`, once
    the tail and the class sums vanish only collision points can carry a
    nontrivial value, so the test reads the collision points other than 1
    and then the value at 1.
    """
    H.require_total()
    if not _balanced(a):
        return False
    off_one = [mu for mu in collision_points(a) if mu != 1]
    return _first_failure(a, H, 0, off_one)[0] is None and wreath.in_diagonal(value_at(a, 1), H)


def decode(a: FSElement, H: GroupOracle) -> Word:
    """Inverse of :func:`encode_word` on the embedded copy of the base."""
    if not in_image(a, H):
        raise ValueError("element is not in the embedded base group")
    return wreath.decode(value_at(a, 1), H)


def in_base(a: FSElement) -> bool:
    """Membership in the subgroup of elements with no ``s`` component.

    That subgroup is normally generated by ``f`` alone and consists exactly
    of the elements with vanishing trailing ``s`` power; no base-group
    oracle is needed.
    """
    return a.tail == 0
