"""Test-only oracles: simple reference procedures the tests check against.

None of these is needed by the library; each is slow or general enough to
trust by reading, which is what makes it useful as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from wreathembed.base_groups import (
    TRIVIAL,
    UNKNOWN,
    EnumeratedPair,
    GroupOracle,
    SemiVerdict,
    exponent_vector,
    pair_basis_vector,
)
from wreathembed.orders import OrderOracle
from wreathembed.words import X_ALPHABET, Word

# The free group on x1, x2, ...: a canonical word is freely reduced, so it is
# trivial iff it is empty.  The only base in the tests whose values do not
# commute.
FREE = GroupOracle.deciding("free", X_ALPHABET, lambda w: w.is_identity())


def insep_trivial_bruteforce(word: Word, pair: EnumeratedPair) -> bool:
    """Reference decider: rewrite into the adapted basis and test zero."""
    return not pair_basis_vector(word, pair)


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

    ``images`` maps generators to words of the target order's alphabet; a
    letter without an image is an error.  When the substitution is an
    injective homomorphism this is again a strict order.
    """

    def substitute(w: Word) -> Word:
        out = Word.identity(target_order.alphabet)
        for gen, exp in w.runs:
            image = images.get(gen)
            if image is None:
                raise ValueError(f"no image given for generator {gen}")
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
