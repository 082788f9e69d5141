"""Slow reference deciders: the window scans the library used to run.

Each function here visits every point of a bounded window, which is simple
enough to trust but costs time in proportion to the size of the exponents.
The property tests compare the library's sparse deciders, which evaluate
only inner step points and outer collision points, against these.
"""

from __future__ import annotations

from wreathembed import twogen, wreath
from wreathembed.base_groups import NONTRIVIAL, TRIVIAL, UNKNOWN, GroupOracle, SemiVerdict
from wreathembed.twogen import FSElement
from wreathembed.wreath import ZBElement

# -- inner stage: every integer between the smallest and largest step point --


def window(a: ZBElement) -> range:
    """The closed interval of step points, as a range; empty when constant."""
    if not a.factors:
        return range(0)
    etas = [eta for _, eta, _ in a.factors]
    return range(1 - max(etas), 2 - min(etas))


def _point_trivial(a: ZBElement, nu: int, H: GroupOracle) -> bool:
    assert H.total
    return H.check(wreath.value_at(a, nu, H.alphabet), 0).trivial


def zb_is_trivial(a: ZBElement, H: GroupOracle) -> bool:
    return a.tail == 0 and all(_point_trivial(a, nu, H) for nu in window(a))


def zb_semi_trivial(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    if a.tail != 0:
        return NONTRIVIAL
    if H.total:
        return TRIVIAL if zb_is_trivial(a, H) else NONTRIVIAL
    for nu in window(a):
        if not H.check(wreath.value_at(a, nu, H.alphabet), fuel).trivial:
            return UNKNOWN
    return TRIVIAL


def zb_min_support(a: ZBElement, H: GroupOracle) -> int | None:
    for nu in window(a):
        if not _point_trivial(a, nu, H):
            return nu
    return None


def zb_in_diagonal(a: ZBElement, H: GroupOracle) -> bool:
    if a.tail != 0:
        return False
    eta0 = max((abs(eta) for _, eta, _ in a.factors), default=0)
    points = [nu for nu in range(-eta0, eta0 + 1) if nu != 0] + [eta0 + 1]
    return all(_point_trivial(a, nu, H) for nu in points)


# -- outer stage: every active point within a multiple of the largest |gamma| --


def gamma_bound(a: FSElement) -> int:
    return max((abs(gamma) for gamma, _ in a.factors), default=0)


def is_active(n: int) -> bool:
    """Whether ``f`` takes a value at ``n``: n is 1 or a power of two."""
    return n >= 1 and n & (n - 1) == 0


def active_points(a: FSElement, lo: int, hi: int) -> list[int]:
    """Sorted points in [lo, hi] where some factor takes a value."""
    points: set[int] = set()
    for gamma, _ in a.factors:
        mu = 1 - gamma
        if lo <= mu <= hi:
            points.add(mu)
        power = 2
        while power <= hi + gamma:
            if power - gamma >= lo:
                points.add(power - gamma)
            power <<= 1
    return sorted(points)


def _balanced(a: FSElement) -> bool:
    return a.tail == 0 and all(total == 0 for total in twogen.class_sums(a).values())


def fs_is_trivial(a: FSElement, H: GroupOracle) -> bool:
    if not _balanced(a):
        return False
    bound = 3 * gamma_bound(a)
    return all(
        zb_is_trivial(twogen.value_at(a, mu), H) for mu in active_points(a, -bound, bound)
    )


def fs_semi_trivial(a: FSElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    if not _balanced(a):
        return NONTRIVIAL
    bound = 3 * gamma_bound(a)
    confirmed = True
    for mu in active_points(a, -bound, bound):
        verdict = zb_semi_trivial(twogen.value_at(a, mu), H, fuel)
        if verdict.nontrivial:
            return NONTRIVIAL
        confirmed = confirmed and verdict.trivial
    return TRIVIAL if confirmed else UNKNOWN


def fs_min_support(a: FSElement, H: GroupOracle) -> int | None:
    """Scan the window of five times the largest conjugating exponent; past
    it a point carries a power of one generator whose exponent is a class
    sum, nontrivial exactly when that sum is (generators of infinite order)."""
    bound = 5 * gamma_bound(a) + 2
    for mu in active_points(a, -bound, bound):
        if not zb_is_trivial(twogen.value_at(a, mu), H):
            return mu
    candidates = []
    for gamma, total in twogen.class_sums(a).items():
        if total != 0:
            top = bound + gamma
            power = 2 if top < 2 else 1 << top.bit_length()
            candidates.append(power - gamma)
    return min(candidates) if candidates else None


def fs_in_image(a: FSElement, H: GroupOracle) -> bool:
    if not _balanced(a):
        return False
    bound = 3 * gamma_bound(a)
    for mu in active_points(a, -bound, bound):
        if mu != 1 and not zb_is_trivial(twogen.value_at(a, mu), H):
            return False
    return zb_in_diagonal(twogen.value_at(a, 1), H)
