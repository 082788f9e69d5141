"""Sparse deciders against the window-scan references, and at huge exponents.

The inner deciders evaluate one point per step point and the outer ones one
point per collision point.  Here each is compared with the slow scan in
``reference_scans`` on random elements with small exponents, where the scan
is cheap, and then run at exponents no scan could reach.
"""

import random

import pytest

import reference_scans as ref
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    GroupOracle,
    exponent_vector,
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, X_ALPHABET, ZB_ALPHABET, Gen, Word, parse_word
from wreathembed.wreath import ZBElement

FREE = free_abelian_oracle()
TOTAL_BASES = [FREE, insep_oracle(mock_pair())]


def random_zb(rng: random.Random) -> ZBElement:
    """Random inner elements, biased towards trivial and diagonal ones."""
    factors = [
        (rng.randrange(1, 5), rng.randrange(-6, 7), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, 7))
    ]
    a = ZBElement.make(factors, rng.choice([0, 0, 0, 0, 1, -1]))
    kind = rng.randrange(4)
    if kind == 1:  # a permutation of the same factors: trivial in abelian bases
        shuffled = list(a.factors)
        rng.shuffle(shuffled)
        return a * ~ZBElement.make(shuffled, a.tail)
    if kind == 2:  # diagonal, perhaps with one extra factor
        pairs = [(Gen("x", rng.randrange(1, 5)), rng.choice([-1, 1])) for _ in range(3)]
        diag = wreath.diagonal_encode(Word.make(X_ALPHABET, pairs))
        if rng.random() < 0.5:
            diag = diag * ZBElement.make([(rng.randrange(1, 5), rng.randrange(-3, 4), 1)])
        return diag
    return a


def random_fs(rng: random.Random) -> FSElement:
    """Random outer elements, biased towards balanced ones and encodings."""
    factors = [
        (rng.randrange(-8, 9), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(0, 6))
    ]
    a = FSElement.make(factors, rng.choice([0, 0, 0, 0, 1, -1]))
    kind = rng.randrange(4)
    if kind == 1:  # a commutator: every class sum vanishes
        b = FSElement.make(
            [(rng.randrange(-8, 9), rng.choice([-1, 1])) for _ in range(3)], rng.randrange(-3, 4)
        )
        return a * b * ~a * ~b
    if kind == 2:  # an encoded base word, perhaps conjugated or perturbed
        pairs = [
            (Gen("x", rng.randrange(1, 4)), rng.choice([-1, 1])) for _ in range(rng.randrange(0, 4))
        ]
        enc = twogen.encode_word(Word.make(X_ALPHABET, pairs))
        shift = FSElement((), rng.choice([0, 0, 1, -2]))
        return shift * enc * ~shift * FSElement.make([(rng.randrange(-3, 4), rng.choice([0, 1]))])
    return a


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_inner_deciders_match_window_scan(H):
    rng = random.Random(101)
    for _ in range(600):
        a = random_zb(rng)
        assert wreath.is_trivial(a, H) == ref.zb_is_trivial(a, H), a
        assert wreath.semi_trivial(a, H, 0) == ref.zb_semi_trivial(a, H, 0), a
        assert wreath.min_support(a, H) == ref.zb_min_support(a, H), a
        assert wreath.in_diagonal(a, H) == ref.zb_in_diagonal(a, H), a


def test_inner_semi_trivial_matches_window_scan_with_fuel():
    rng = random.Random(102)
    for _ in range(400):
        a = random_zb(rng)
        fuel = rng.randrange(0, 4)
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        assert wreath.semi_trivial(a, fueled, fuel) == ref.zb_semi_trivial(a, fueled, fuel), a


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_outer_deciders_match_window_scan(H):
    rng = random.Random(103)
    for _ in range(500):
        a = random_fs(rng)
        assert twogen.is_trivial(a, H) == ref.fs_is_trivial(a, H), a
        assert twogen.semi_trivial(a, H, 0) == ref.fs_semi_trivial(a, H, 0), a
        assert twogen.min_support(a, H) == ref.fs_min_support(a, H), a
        assert twogen.in_image(a, H) == ref.fs_in_image(a, H), a


def test_outer_semi_trivial_matches_window_scan_with_fuel():
    rng = random.Random(104)
    for _ in range(300):
        a = random_fs(rng)
        fuel = rng.randrange(0, 4)
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        assert twogen.semi_trivial(a, fueled, fuel) == ref.fs_semi_trivial(a, fueled, fuel), a


# The free abelian group of exponent two: every base generator has order 2.
TORSION = GroupOracle.deciding(
    "elementary-abelian-2",
    X_ALPHABET,
    lambda word: all(e % 2 == 0 for e in exponent_vector(word).values()),
)


@pytest.mark.parametrize("H", [FREE, TORSION], ids=lambda H: H.name)
def test_outer_deciders_match_point_scan(H):
    # Independent of both scans: read value_at at every point of a range
    # that holds every collision and every 1 - gamma of these elements.
    rng = random.Random(105)
    for _ in range(150):
        a = random_fs(rng)
        support = [
            mu for mu in range(-200, 201) if not wreath.is_trivial(twogen.value_at(a, mu), H)
        ]
        assert twogen.min_support(a, H) == (support[0] if support else None), a
        assert twogen.is_trivial(a, H) == (a.tail == 0 and not support), a


def test_merge_probes_match_window_scan():
    enum_n = mock_pair().enum_n
    for n in range(1, 9):
        a = twogen.encode_word(parse_word(f"a{2 * n} a{2 * n - 1}^-1", A_ALPHABET))
        for fuel in (0, 1, n, 2 * n):
            fast = twogen.semi_trivial(a, re_oracle(enum_n), fuel)
            assert fast == ref.fs_semi_trivial(a, re_oracle(enum_n), fuel)


# -- exponents no window scan could cover --------------------------------------

BIG_ETA = 10**9


def zb(text: str) -> ZBElement:
    return wreath.from_word(parse_word(text, ZB_ALPHABET))


def test_inner_deciders_at_huge_eta():
    n = BIG_ETA
    swapped = zb(f"z^{n} b1 z^-{n} b1^-1 z^{n} b1^-1 z^-{n} b1")
    assert wreath.is_trivial(swapped, FREE)
    assert wreath.min_support(swapped, FREE) is None
    shifted = zb(f"z^{n} b1 z^-{n} b1^-1")
    assert not wreath.is_trivial(shifted, FREE)
    assert wreath.min_support(shifted, FREE) == 1 - n
    assert not wreath.in_diagonal(shifted, FREE)
    # A conjugated diagonal element sits at the single point -n.
    diag = wreath.diagonal_encode(parse_word("x1 x2^-1", X_ALPHABET))
    far = zb(f"z^-{n}") * diag * zb(f"z^{n}")
    assert wreath.in_diagonal(diag * diag, FREE)
    assert not wreath.in_diagonal(far, FREE)
    assert wreath.min_support(far, FREE) == n


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_inner_conjugation_by_huge_power_shifts_support(H):
    rng = random.Random(106)
    for _ in range(200):
        a = random_zb(rng)
        c = rng.randrange(-BIG_ETA, BIG_ETA)
        moved = ZBElement((), c) * a * ZBElement((), -c)
        assert wreath.is_trivial(moved, H) == ref.zb_is_trivial(a, H)
        support = ref.zb_min_support(a, H)
        assert wreath.min_support(moved, H) == (None if support is None else support - c)


def test_generator_600():
    a = twogen.from_word(twogen.generator_word(600))
    assert twogen.collision_points(a) == [1]
    assert not twogen.is_trivial(a, FREE)
    assert twogen.is_trivial(a * ~a, FREE)
    assert twogen.min_support(a, FREE) == 1
    assert twogen.in_image(a, FREE)
    assert twogen.decode(a, FREE) == parse_word("x600", X_ALPHABET)
    u = parse_word("x600 x3 x600^-1 x3^-1", X_ALPHABET)
    assert twogen.is_trivial(twogen.encode_word(u), FREE)
    assert twogen.in_image(twogen.encode_word(u), FREE)
    shifted = FSElement((), 1) * a * FSElement((), -1)
    assert not twogen.in_image(shifted, FREE)


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_outer_conjugation_by_huge_power_shifts_support(H):
    # Conjugating by s^c moves every point by -c and changes no verdict but
    # the support; c runs up to 2^600.
    rng = random.Random(107)
    for _ in range(200):
        a = random_fs(rng)
        c = rng.randrange(-(1 << 600), 1 << 600)
        moved = FSElement((), c) * a * FSElement((), -c)
        assert twogen.is_trivial(moved, H) == ref.fs_is_trivial(a, H)
        assert twogen.semi_trivial(moved, H, 0) == ref.fs_semi_trivial(a, H, 0)
        support = ref.fs_min_support(a, H)
        assert twogen.min_support(moved, H) == (None if support is None else support - c)


def test_huge_classes_collide_where_predicted():
    # Classes 2^600 - 2^7 and 0 meet only at mu = 2^7, carrying b_600 and
    # b_7 there, which commute in an abelian base.
    big = (1 << 600) - (1 << 7)
    a = FSElement.make([(big, 1), (0, 1), (big, -1), (0, -1)])
    assert twogen.collision_points(a) == [1 << 7]
    assert twogen.is_trivial(a, FREE)
    assert twogen.min_support(a, FREE) is None
    # Classes 5 + 2^600 - 1 and 5 meet at mu = -4, where z meets b_600.
    c = FSElement.make([(4 + (1 << 600), 1), (5, 1), (4 + (1 << 600), -1), (5, -1)])
    assert twogen.collision_points(c) == [-4]
    assert not twogen.is_trivial(c, FREE)
    assert twogen.min_support(c, FREE) == -4
    # A difference not of the form 2^p - 2^q never collides.
    b = FSElement.make([(big + 1, 1), (0, 1), (big + 1, -1), (0, -1)])
    assert twogen.collision_points(b) == []
    assert twogen.is_trivial(b, FREE)
