"""Test-only oracles: simple reference procedures the tests check against.

None of these is needed by the library; each is slow or general enough to
trust by reading, which is what makes it useful as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from wreathembed.base_groups import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    EnumeratedPair,
    GroupOracle,
    SemiVerdict,
    exponent_vector,
    insep_oracle,
    pair_basis_vector,
)
from wreathembed.cli import ORDERS
from wreathembed.orders import OrderOracle, fs_compare, zb_compare
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, X_ALPHABET, Alphabet, Word
from wreathembed.wreath import ZBElement


def deciding(name: str, alphabet: Alphabet, trivial: Callable[[Word], bool]) -> GroupOracle:
    """A total oracle from a decider of the word problem.  It has no vector
    rule, so the inner scan checks the word at each point."""
    return GroupOracle(name, alphabet, lambda w, _fuel: TRIVIAL if trivial(w) else NONTRIVIAL, True)


# The free group on x1, x2, ...: a canonical word is freely reduced, so it is
# trivial iff it is empty.
FREE = deciding("free", X_ALPHABET, lambda w: w.is_identity())


def heisenberg_trivial(word: Word) -> bool:
    """The direct sum of Heisenberg groups on the pairs (x(2k-1), x(2k)):
    x(2k-1) is (1, 0, 0) and x(2k) is (0, 1, 0) in the k-th copy, where
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab')."""
    copies: dict[int, tuple[int, int, int]] = {}
    for _, index, exp in word.runs:
        a, b, c = copies.get((index + 1) // 2, (0, 0, 0))
        copies[(index + 1) // 2] = (a + exp, b, c) if index % 2 else (a, b + exp, c + a * exp)
    return not any(any(triple) for triple in copies.values())


# A non-abelian base other than the free group: nilpotent of class 2.
HEISENBERG = deciding("heisenberg", X_ALPHABET, heisenberg_trivial)


def free_abelian_trivial(word: Word) -> bool:
    return not exponent_vector(word)


def insep_trivial(word: Word, pair: EnumeratedPair) -> bool:
    """Decide triviality pair by pair, with one enumeration fetch per pair.

    No hint is needed: the ratio of a pair's exponents names the only
    relator that could kill it.
    """
    return insep_oracle(pair).check(word, 0).trivial


def insep_trivial_bruteforce(word: Word, pair: EnumeratedPair) -> bool:
    """Reference decider: rewrite into the adapted basis and test zero."""
    return not pair_basis_vector(exponent_vector(word), pair)


def norm_first_order(pair: EnumeratedPair) -> OrderOracle:
    """A sign rule that is not a cone: 1 on every nonzero adapted vector.

    It is the sign against the identity of an order that compares the l1
    norm of the adapted vector first: total, but not translation-invariant,
    so an element and its inverse are both positive.
    """

    def sign(vector: dict[int, int]) -> int:
        return 1 if pair_basis_vector(vector, pair) else 0

    return OrderOracle(f"norm-lex[{pair.name}]", A_ALPHABET, sign)


def _deciding_point(verdict: tuple[str, str, int | None]) -> int | None:
    # A compare against the identity with no tail to compare answers clause
    # "value" at the point that decided, or "equal" with no point.
    _, clause, point = verdict
    assert clause == ("equal" if point is None else "value"), verdict
    return point


def zb_support_by_compare(a: ZBElement, H: GroupOracle) -> int | None:
    """The least point where ``a`` carries a nontrivial value, or None, as
    the lifted compare of its factors against the identity reports it.

    The compare reads the sign of the base's bundled order (``cli.ORDERS``)
    at each step point.  A cone's sign is 0 exactly on the identity, so the
    first nonzero sign falls at the least support point.
    """
    return _deciding_point(zb_compare(ZBElement(a.factors), ZBElement(), ORDERS[H.name](), H))


def fs_support_by_compare(a: FSElement, H: GroupOracle) -> int | None:
    """Like :func:`zb_support_by_compare`, one level up: the outer compare
    reads the inner sign at each of ``twogen._support_points``."""
    return _deciding_point(fs_compare(FSElement(a.factors), FSElement(), ORDERS[H.name](), H))


def re_check_by_scan(word: Word, enum_n: Callable[[int], int], fuel: int) -> SemiVerdict:
    """Reference fueled check of the merge-relation group over ``enum_n``.

    TRIVIAL iff every coordinate pair k with a nonzero exponent has exponent
    sum zero (so it is a multiple of ``a(2k) a(2k-1)^-1``) and each such k
    shows up in ``enum_n(1..fuel)``, scanned afresh from 1 on every call.
    """
    sums: dict[int, int] = {}
    for index, exp in exponent_vector(word).items():
        k = (index + 1) // 2
        sums[k] = sums.get(k, 0) + exp
    if any(sums.values()):
        return UNKNOWN
    needed = set(sums)
    for i in range(1, fuel + 1):
        if not needed:
            break
        needed.discard(enum_n(i))
    return UNKNOWN if needed else TRIVIAL


def transport_less(u: Word, v: Word, images: dict, target_order: OrderOracle) -> bool:
    """Pull the target order back along the substitution ``images``.

    ``images`` maps generator indices to words of the target order's alphabet; a
    letter without an image is an error.  When the substitution is an
    injective homomorphism this is again a strict order.
    """

    def substitute(w: Word) -> Word:
        out = Word.identity(target_order.alphabet)
        for letter, index, exp in w.runs:
            image = images.get(index)
            if image is None:
                raise ValueError(f"no image given for generator {letter}{index}")
            out = out * image**exp
        return out

    return target_order.compare(substitute(u), substitute(v)) == "LT"


@dataclass(frozen=True)
class OrderAxiomViolation:
    axiom: str
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class OrderAxiomReport:
    checked: int
    violations: tuple[OrderAxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_order_axioms(
    sample: Sequence[Word],
    relation: Callable[[Word, Word], bool],
    is_trivial: Callable[[Word], bool],
    n_max: int = 4,
) -> OrderAxiomReport:
    """Test a reflexive-style comparison relation against the order axioms.

    Over the sample: relation both ways forces group equality (decided by
    ``is_trivial``); a word above the identity forces its inverse below; a
    word above the identity forces all its powers above.  Violations are
    reported with printable witnesses, never raised.
    """
    violations: list[OrderAxiomViolation] = []
    checked = 0
    for i, g in enumerate(sample):
        for h in sample[i + 1 :]:
            checked += 1
            if relation(g, h) and relation(h, g) and not is_trivial(g * ~h):
                violations.append(OrderAxiomViolation("antisymmetry", (str(g), str(h))))
    for g in sample:
        one = Word.identity(g.alphabet)
        if not relation(one, g):
            continue
        checked += 1
        if not relation(~g, one):
            violations.append(OrderAxiomViolation("inverse", (str(g),)))
        for n in range(2, n_max + 1):
            checked += 1
            if not relation(one, g**n):
                violations.append(OrderAxiomViolation("power", (str(g), str(n))))
    return OrderAxiomReport(checked, tuple(violations))


def check_cone(
    sample: Sequence, sign: Callable[[object], int], is_trivial: Callable[[object], bool]
) -> OrderAxiomReport:
    """Test a sign rule against the axioms of a positive cone.

    ``sample`` holds group elements with ``*`` and ``~``.  For w and g in
    it: ``sign(~w) == -sign(w)``; ``sign(w) == 0`` exactly when w is trivial
    (decided by ``is_trivial``); ``sign(w * g) == 1`` when w and g are both
    positive; ``sign(g * w * ~g) == sign(w)``.  Violations are reported
    with printable witnesses, never raised.
    """
    violations: list[OrderAxiomViolation] = []
    checked = 0
    signs = [sign(w) for w in sample]
    for w, sign_w in zip(sample, signs):
        checked += 2
        if sign(~w) != -sign_w:
            violations.append(OrderAxiomViolation("inverse", (str(w),)))
        if (sign_w == 0) != is_trivial(w):
            violations.append(OrderAxiomViolation("zero", (str(w),)))
        for g, sign_g in zip(sample, signs):
            checked += 2
            if sign_w == sign_g == 1 and sign(w * g) != 1:
                violations.append(OrderAxiomViolation("product", (str(w), str(g))))
            if sign(g * w * ~g) != sign_w:
                violations.append(OrderAxiomViolation("conjugate", (str(w), str(g))))
    return OrderAxiomReport(checked, tuple(violations))
