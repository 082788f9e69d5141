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

A factor ``(gamma, beta)`` contributes a letter only at points ``mu`` with
``gamma + mu`` equal to 1 or a power of two; the value at ``mu`` is the
inner element those letters spell, built in normal form (see
:func:`value_at`).  Once every conjugacy class of factors has exponent sum
zero, a point where a single class is active carries ``z^0`` or ``b_i^0``,
the identity; only the collision points, where two classes are active at
once, can carry anything else.  Two classes collide at most once, at a
point found with a few big-integer operations (see
:func:`collision_points`), so an element with d distinct conjugating
exponents is decided by evaluating at most d(d-1)/2 points.  The word
problem streams ``(point, inner verdict)`` over them, lazily, into the one
reader of both stages, :func:`wreath._first_failure`; :func:`in_image`
asks inner diagonal membership at 1 and inner triviality elsewhere.
:func:`_lifted_sign`, the sign :mod:`wreathembed.orders` compares by, is
the tail's sign or, when that is 0, the first nonzero inner sign of the
value over the support candidates (see :func:`_support_points`), each inner
walk confirming its zero signs with the base.
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

from wreathembed import wreath
from wreathembed.base_groups import NONTRIVIAL, GroupOracle, SemiVerdict
from wreathembed.words import FS_ALPHABET, Word, WreathElement, _at_least, _push
from wreathembed.wreath import ZBElement


class FSElement(WreathElement):
    """Normal form of a word in ``f`` and ``s``."""

    ALPHABET, SHIFT, GENERATOR = FS_ALPHABET, "s", "f"


def class_sums(a: FSElement) -> dict[int, int]:
    """Total exponent per conjugating power, including zero totals."""
    out: dict[int, int] = {}
    for gamma, beta in a.factors:
        out[gamma] = out.get(gamma, 0) + beta
    return out


def value_at(a: FSElement, mu: int) -> ZBElement:
    """The inner-stage element this element carries at the point ``mu``.

    Built directly in normal form from the letters ``f`` carries there, in
    factor order: a factor ``(gamma, beta)`` gives ``z^beta`` where ``gamma +
    mu = 1``, ``b_i^beta`` where ``gamma + mu = 2^i``, and nothing elsewhere.
    Each ``z^beta`` moves the running shift; each ``b_i^beta`` is pushed as
    the factor ``(i, shift, beta)``, with ``i >= 1`` since ``2^i >= 2``.
    """
    factors: list[tuple[int, int, int]] = []
    offset = 0
    for gamma, beta in a.factors:
        n = gamma + mu
        if n == 1:
            offset += beta
        elif n >= 2 and n & (n - 1) == 0:
            _push(factors, (n.bit_length() - 1, offset, beta))
    return ZBElement(tuple(factors), offset)


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


def is_trivial(a: FSElement, H: GroupOracle) -> bool:
    """Word problem relative to a total base oracle, by :func:`semi_trivial`."""
    H.require_total()
    return semi_trivial(a, H, 0).trivial


def semi_trivial(a: FSElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    """Fuel-bounded word problem; refutations are fuel-independent.

    Trivial iff the trailing ``s`` power vanishes, every conjugacy class of
    factors has exponent sum zero (a class with a nonzero sum leaves a
    trailing ``z`` power at its first active point; see
    :func:`_support_points`), and the carried value is inner-trivial at every
    collision point, the only points that can then carry anything else.  The
    value there has ``z`` power 0, since only the class ``1 - mu`` supplies
    ``z`` letters at ``mu``, so an inner refutation comes only from the base
    and the first verdict that is not TRIVIAL decides, as in
    :func:`wreath.semi_trivial`.
    """
    if not _balanced(a):
        return NONTRIVIAL
    verdicts = ((mu, wreath.semi_trivial(value_at(a, mu), H, fuel)) for mu in collision_points(a))
    return wreath._first_failure(verdicts)[1]


def _support_points(a: FSElement) -> list[int]:
    """Candidates for the least point carrying a nontrivial value, ascending.

    A class ``gamma`` is first active at ``1 - gamma``, where it alone supplies
    the ``z`` letters: the ``z`` power there is its sum, nontrivial over any base
    when that sum is.  Below that point the class carries nothing, and a lone
    class with a zero sum the identity.  So the least support point is a
    collision point below the least such ``1 - gamma``, or that point."""
    points = collision_points(a)
    firsts = [1 - gamma for gamma, total in class_sums(a).items() if total]
    if not firsts:
        return points
    best = min(firsts)
    return [mu for mu in points if mu < best] + [best]


def _lifted_sign(a: FSElement, H_order, H: GroupOracle) -> tuple[int | None, int]:
    # wreath._lifted_sign one level up, over the support candidates.  A zero
    # sign leaves no class sum, and H confirmed every collision point: is_trivial.
    if a.tail:
        return None, wreath._sign_of(a.tail)
    for mu in _support_points(a):
        if sign := wreath._lifted_sign(value_at(a, mu), H_order, H)[1]:
            return mu, sign
    return None, 0


def _generator_factors(i: int, sign: int) -> tuple[tuple[int, int], ...]:
    # The commutator f s^k f s^-k f^-1 s^k f^-1 s^-k with k = 2^i - 1 in normal
    # form or, for sign < 0, its inverse: [x, y]^-1 = [y, x] swaps the classes
    # 0 and k.  k >= 1, so no two adjacent factors share a class, even across copies.
    _at_least(i, 1, "generator index")
    x, y = (0, (1 << i) - 1) if sign > 0 else ((1 << i) - 1, 0)
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def generator_word(i: int) -> Word:
    """The ``f``/``s`` word embedding the i-th base generator.

    The commutator of ``f`` with its ``s^(2^i - 1)``-conjugate: supported
    at the single point 1, carrying the inner commutator ``[z, b_i]``.
    """
    return FSElement(_generator_factors(i, 1)).to_word()


def encode_word(word: Word) -> FSElement:
    """Embed a word of the base group in one pass over its runs.

    Each run ``x_i^e`` pushes the factors of the embedded generator, or of
    its inverse if ``e < 0``, ``|e|`` times, with no other element formed.
    Only a junction of two runs can merge, and pushing is associative, so
    this is the product of the generators' powers, factor for factor.
    """
    factors: list[tuple[int, int]] = []
    for letter, index, exp in word.runs:
        if index is None:
            raise ValueError(f"generator {letter} carries no index")
        for factor in _generator_factors(index, exp) * abs(exp):
            _push(factors, factor)
    return FSElement(tuple(factors))


def in_image(a: FSElement, H: GroupOracle) -> bool:
    """Membership in the embedded copy of the base group.

    Image elements are supported at the single point 1, where their value
    lies in the inner diagonal subgroup.  As in :func:`semi_trivial`, once
    the tail and the class sums vanish only collision points can carry a
    nontrivial value, so the test reads each collision point once: the value
    at 1 must lie in the diagonal, every other value must be trivial, and a
    point 1 that is no collision point carries the identity.
    """
    H.require_total()
    if not _balanced(a):
        return False
    return all(
        wreath.in_diagonal(value_at(a, mu), H) if mu == 1
        else wreath.semi_trivial(value_at(a, mu), H, 0).trivial
        for mu in collision_points(a)
    )


def decode(a: FSElement, H: GroupOracle) -> Word:
    """Inverse of :func:`encode_word` on the embedded copy of the base.

    Reads the word :func:`in_image` certified, with no second inner scan.
    """
    if not in_image(a, H):
        raise ValueError("element is not in the embedded base group")
    return wreath.value_at(value_at(a, 1), 0, H.alphabet)


def in_base(a: FSElement) -> bool:
    """Membership in the subgroup of elements with no ``s`` component.

    That subgroup is normally generated by ``f`` alone and consists exactly
    of the elements with vanishing trailing ``s`` power; no base-group
    oracle is needed.
    """
    return a.tail == 0
