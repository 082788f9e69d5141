"""Inner wreath stage: the group generated by ``z`` and ``b1, b2, ...``.

Elements live in the restricted wreath product of a base group H (one copy
per integer point) by the infinite cyclic group on ``z``.  The generator
``b_i`` is the function taking the value ``x_i`` at every point >= 1 and the
identity elsewhere; ``z`` shifts arguments: conjugating a function by
``z^c`` evaluates it ``c`` further to the right.

Normal form: an ordered tuple of factors ``(i, eta, xi)``, each denoting the
``z^eta``-conjugate of ``b_i`` raised to ``xi``, followed by a trailing
``z^tail``.  Only adjacent factors with equal ``(i, eta)`` merge (pointwise
values need not commute for a general base), zero exponents are dropped, and
merges cascade, so multiplication is associative on the nose.  Structural
equality of normal forms is sufficient but not necessary for group equality;
the decider is :func:`is_trivial` relative to a base oracle.

Every factor switches on at the single step point ``1 - eta``, so the value
function is the identity left of the least step point and constant from
each step point up to the next.  All decision procedures therefore
evaluate one point per distinct step point, in increasing order; their
cost depends on the number of factors, not on the size of the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from wreathembed.base_groups import NONTRIVIAL, TRIVIAL, UNKNOWN, GroupOracle, SemiVerdict
from wreathembed.words import X_ALPHABET, ZB_ALPHABET, Alphabet, Gen, Word

Factor = tuple[int, int, int]  # (generator index, conjugating z power, exponent)


def _push_factor(factors: list[Factor], i: int, eta: int, xi: int) -> None:
    if xi == 0:
        return
    if factors and factors[-1][0] == i and factors[-1][1] == eta:
        merged = factors[-1][2] + xi
        if merged == 0:
            factors.pop()
        else:
            factors[-1] = (i, eta, merged)
    else:
        factors.append((i, eta, xi))


@dataclass(frozen=True)
class ZBElement:
    """Normal form of a word in ``z`` and the ``b_i``."""

    factors: tuple[Factor, ...] = ()
    tail: int = 0

    @staticmethod
    def make(factors: Iterable[Factor], tail: int = 0) -> ZBElement:
        out: list[Factor] = []
        for i, eta, xi in factors:
            if i < 1:
                raise ValueError(f"generator index must be >= 1, got {i}")
            _push_factor(out, i, eta, xi)
        return ZBElement(tuple(out), tail)

    @staticmethod
    def identity() -> ZBElement:
        return ZBElement()

    def __mul__(self, other: ZBElement) -> ZBElement:
        factors = list(self.factors)
        for i, eta, xi in other.factors:
            _push_factor(factors, i, eta + self.tail, xi)
        return ZBElement(tuple(factors), self.tail + other.tail)

    def __invert__(self) -> ZBElement:
        factors: list[Factor] = []
        for i, eta, xi in reversed(self.factors):
            _push_factor(factors, i, eta - self.tail, -xi)
        return ZBElement(tuple(factors), -self.tail)

    def __pow__(self, n: int) -> ZBElement:
        base = self if n >= 0 else ~self
        out = ZBElement.identity()
        for _ in range(abs(n)):
            out = out * base
        return out


def from_word(word: Word) -> ZBElement:
    """Evaluate a word over the ``z``/``b`` alphabet into normal form."""
    if word.alphabet != ZB_ALPHABET:
        raise ValueError(f"expected the {ZB_ALPHABET.name} alphabet")
    factors: list[Factor] = []
    offset = 0
    for gen, exp in word.runs:
        if gen.index is None:  # z
            offset += exp
        else:
            _push_factor(factors, gen.index, offset, exp)
    return ZBElement(tuple(factors), offset)


def to_word(a: ZBElement) -> Word:
    pairs: list[tuple[Gen, int]] = []
    z = Gen("z", None)
    at = 0
    for i, eta, xi in a.factors:
        pairs.append((z, eta - at))
        pairs.append((Gen("b", i), xi))
        at = eta
    pairs.append((z, a.tail - at))
    return Word.make(ZB_ALPHABET, pairs)


def normal_form_text(a: ZBElement) -> str:
    body = ",".join(f"({i},{eta},{xi})" for i, eta, xi in a.factors)
    return f"[{body}] ; {a.tail}"


def value_at(a: ZBElement, nu: int, alphabet: Alphabet = X_ALPHABET) -> Word:
    """The base-group word this element carries at the point ``nu``.

    A factor ``(i, eta, xi)`` contributes ``x_i^xi`` exactly when
    ``nu + eta >= 1``; the trailing ``z`` power carries no base value.
    """
    letter = next(iter(alphabet.indexed))
    pairs = [(Gen(letter, i), xi) for i, eta, xi in a.factors if nu + eta >= 1]
    return Word.make(alphabet, pairs)


def step_points(a: ZBElement) -> list[int]:
    """The distinct points ``1 - eta`` where some factor switches on, sorted.

    The value function is the identity left of the first, and constant from
    each one up to the next (and beyond the last), so evaluating it at the
    step points decides every global question.
    """
    return sorted({1 - eta for _, eta, _ in a.factors})


def _require_total(H: GroupOracle) -> None:
    if H.is_trivial is None:
        raise ValueError(f"oracle {H.name!r} has no total word-problem decider")


def is_trivial(a: ZBElement, H: GroupOracle) -> bool:
    """Word problem relative to a total base oracle."""
    _require_total(H)
    assert H.is_trivial is not None
    if a.tail != 0:
        return False
    return all(H.is_trivial(value_at(a, nu, H.alphabet)) for nu in step_points(a))


def semi_trivial(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    """Fuel-bounded word problem; refutations are fuel-independent."""
    if a.tail != 0:
        return NONTRIVIAL
    if H.is_trivial is not None:
        return TRIVIAL if is_trivial(a, H) else NONTRIVIAL
    assert H.semi_trivial is not None
    for nu in step_points(a):
        if not H.semi_trivial(value_at(a, nu, H.alphabet), fuel):
            return UNKNOWN
    return TRIVIAL


def min_support(a: ZBElement, H: GroupOracle) -> int | None:
    """Least point where the value function is nontrivial, if any.

    The trailing ``z`` power plays no part; only the value function is
    inspected.  It is constant from each step point to the next, so the
    least nontrivial point, if any, is a step point.
    """
    _require_total(H)
    assert H.is_trivial is not None
    for nu in step_points(a):
        if not H.is_trivial(value_at(a, nu, H.alphabet)):
            return nu
    return None


def in_diagonal(a: ZBElement, H: GroupOracle) -> bool:
    """Membership in the subgroup generated by the commutators ``[z, b_i]``.

    Those commutators carry arbitrary base values at point 0 and nothing
    anywhere else, so membership holds iff the trailing ``z`` power vanishes
    and the value function is trivial at every nonzero point.  The function
    is the identity left of the least step point and constant from each
    step point up to the next, so it is enough to test each step point
    whose interval holds a nonzero integer: every one except an interval
    that is exactly ``{0}``, from a step point 0 to a step point 1.
    """
    _require_total(H)
    assert H.is_trivial is not None
    if a.tail != 0:
        return False
    steps = step_points(a)
    for nu, following in zip(steps, steps[1:] + [None]):
        if nu == 0 and following == 1:
            continue
        if not H.is_trivial(value_at(a, nu, H.alphabet)):
            return False
    return True


def diagonal_encode(word: Word) -> ZBElement:
    """Send the letter with index i to ``[z, b_i]``; a group embedding."""
    factors: list[Factor] = []
    for gen, exp in word.runs:
        if gen.index is None:
            raise ValueError(f"generator {gen} carries no index")
        _push_factor(factors, gen.index, 1, exp)
        _push_factor(factors, gen.index, 0, -exp)
    return ZBElement(tuple(factors), 0)


def decode(a: ZBElement, H: GroupOracle) -> Word:
    """Inverse of :func:`diagonal_encode` on its image: the value at 0."""
    if not in_diagonal(a, H):
        raise ValueError("element is not in the diagonal subgroup")
    return value_at(a, 0, H.alphabet)


def word_oracle(H: GroupOracle) -> GroupOracle:
    """This group, packaged as an oracle over the ``z``/``b`` alphabet."""
    if H.is_trivial is not None:
        return GroupOracle(
            f"wreath({H.name})",
            ZB_ALPHABET,
            is_trivial=lambda w: is_trivial(from_word(w), H),
        )
    return GroupOracle(
        f"wreath({H.name})",
        ZB_ALPHABET,
        semi_trivial=lambda w, fuel: semi_trivial(from_word(w), H, fuel).trivial,
    )
