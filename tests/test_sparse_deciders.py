"""Sparse deciders against the window-scan references, and at huge exponents.

The inner deciders evaluate one point per step point and the outer ones one
point per collision point.  Here each is compared with the slow scan in
``reference_scans`` on random elements with small exponents, where the scan
is cheap, and then run at exponents no scan could reach.  The least support
point is read from the lifted compare against the identity on the bases
with a bundled order (``oracles.zb_support_by_compare``), whose sign walks
the same step points and support candidates; the bases with no order keep
only the verdicts.
"""

import itertools
import random
from collections import Counter

import pytest

import reference_scans as ref
from oracles import FREE as FREE_GROUP
from oracles import HEISENBERG, deciding, fs_support_by_compare, zb_support_by_compare
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    NONTRIVIAL,
    TRIVIAL,
    exponent_vector,
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.cli import ORDERS
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, X_ALPHABET, ZB_ALPHABET, Word, parse_word
from wreathembed.wreath import ZBElement

FREE = free_abelian_oracle()
# FREE_GROUP and HEISENBERG are the bases whose values do not commute.
TOTAL_BASES = [FREE, insep_oracle(mock_pair()), FREE_GROUP, HEISENBERG]


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
        runs = [("x", rng.randrange(1, 5), rng.choice([-1, 1])) for _ in range(3)]
        diag = wreath.diagonal_encode(Word.make(X_ALPHABET, runs))
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
    kind = rng.randrange(5)
    if kind == 1:  # a commutator: every class sum vanishes
        b = FSElement.make(
            [(rng.randrange(-8, 9), rng.choice([-1, 1])) for _ in range(3)], rng.randrange(-3, 4)
        )
        return a * b * ~a * ~b
    if kind == 2:  # an encoded base word, perhaps conjugated or perturbed
        runs = [
            ("x", rng.randrange(1, 4), rng.choice([-1, 1])) for _ in range(rng.randrange(0, 4))
        ]
        enc = twogen.encode_word(Word.make(X_ALPHABET, runs))
        shift = FSElement((), rng.choice([0, 0, 1, -2]))
        return shift * enc * ~shift * FSElement.make([(rng.randrange(-3, 4), rng.choice([0, 1]))])
    if kind == 3:  # balanced, carrying x_i at -1 from the one collision point 1
        k = (1 << rng.randrange(1, 4)) - 1
        off = FSElement.make([(0, 2), (k, 1), (0, -2), (k, -1)])
        runs = [("x", rng.randrange(1, 4), rng.choice([-1, 1])) for _ in range(rng.randrange(3))]
        enc = twogen.encode_word(Word.make(X_ALPHABET, runs))
        return rng.choice([off, off * enc, enc * off])
    return a


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_inner_deciders_match_window_scan(H):
    rng = random.Random(101)
    verdicts = set()
    # Tail-0 samples by (0 a step point, 1 a step point, member): in_diagonal
    # tests 1 in place of a step point 0, so every combination must occur.
    shapes = Counter()
    for _ in range(600):
        a = random_zb(rng)
        assert wreath.is_trivial(a, H) == ref.zb_is_trivial(a, H), a
        verdict = wreath.semi_trivial(a, H, 0)
        assert verdict == ref.zb_semi_trivial(a, H, 0), a
        verdicts.add(verdict)
        if H.name in ORDERS:
            assert zb_support_by_compare(a, H) == ref.zb_min_support(a, H), a
        member = wreath.in_diagonal(a, H)
        assert member == ref.zb_in_diagonal(a, H), a
        if a.tail == 0:
            steps = ref.step_points(a)
            shapes[0 in steps, 1 in steps, member] += 1
    assert verdicts == {TRIVIAL, NONTRIVIAL}
    if H is FREE_GROUP:
        assert shapes[True, False, True] >= 3
    else:  # HEISENBERG has 5 members with 1, but not 0, a step point
        least = 3 if H is HEISENBERG else 10
        assert all(shapes[shape] >= least for shape in itertools.product((False, True), repeat=3))


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
    verdicts = set()
    # Balanced samples by (1 a collision point, member): in_image asks the
    # inner diagonal at 1 and inner triviality elsewhere.
    shapes = Counter()
    for _ in range(500):
        a = random_fs(rng)
        assert twogen.is_trivial(a, H) == ref.fs_is_trivial(a, H), a
        verdict = twogen.semi_trivial(a, H, 0)
        assert verdict == ref.fs_semi_trivial(a, H, 0), a
        verdicts.add(verdict)
        if H.name in ORDERS:
            assert fs_support_by_compare(a, H) == ref.fs_min_support(a, H), a
        member = twogen.in_image(a, H)
        assert member == ref.fs_in_image(a, H), a
        if twogen._balanced(a):
            shapes[1 in twogen.collision_points(a), member] += 1
    assert verdicts == {TRIVIAL, NONTRIVIAL}
    assert all(shapes[shape] >= 10 for shape in itertools.product((False, True), repeat=2)), shapes


def test_outer_semi_trivial_matches_window_scan_with_fuel():
    rng = random.Random(104)
    for _ in range(300):
        a = random_fs(rng)
        fuel = rng.randrange(0, 4)
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        assert twogen.semi_trivial(a, fueled, fuel) == ref.fs_semi_trivial(a, fueled, fuel), a


# The free abelian group of exponent two: every base generator has order 2.
TORSION = deciding(
    "elementary-abelian-2",
    X_ALPHABET,
    lambda word: all(e % 2 == 0 for e in exponent_vector(word).values()),
)


@pytest.mark.parametrize("H", [FREE, TORSION, FREE_GROUP], ids=lambda H: H.name)
def test_outer_deciders_match_point_scan(H):
    # Independent of both scans: read value_at at every point of a range
    # that holds every collision and every 1 - gamma of these elements.
    rng = random.Random(105)
    verdicts = set()
    for _ in range(150):
        a = random_fs(rng)
        support = [
            mu for mu in range(-200, 201) if not wreath.is_trivial(twogen.value_at(a, mu), H)
        ]
        if H.name in ORDERS:
            assert fs_support_by_compare(a, H) == (support[0] if support else None), a
        trivial = twogen.is_trivial(a, H)
        assert trivial == (a.tail == 0 and not support), a
        verdicts.add(trivial)
    assert verdicts == {True, False}


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
    return ZBElement.from_word(parse_word(text, ZB_ALPHABET))


def test_inner_deciders_at_huge_eta():
    n = BIG_ETA
    swapped = zb(f"z^{n} b1 z^-{n} b1^-1 z^{n} b1^-1 z^-{n} b1")
    assert wreath.is_trivial(swapped, FREE)
    assert zb_support_by_compare(swapped, FREE) is None
    shifted = zb(f"z^{n} b1 z^-{n} b1^-1")
    assert not wreath.is_trivial(shifted, FREE)
    assert zb_support_by_compare(shifted, FREE) == 1 - n
    assert not wreath.in_diagonal(shifted, FREE)
    # A conjugated diagonal element sits at the single point -n.
    diag = wreath.diagonal_encode(parse_word("x1 x2^-1", X_ALPHABET))
    far = zb(f"z^-{n}") * diag * zb(f"z^{n}")
    assert wreath.in_diagonal(diag * diag, FREE)
    assert not wreath.in_diagonal(far, FREE)
    assert zb_support_by_compare(far, FREE) == n


@pytest.mark.parametrize("H", TOTAL_BASES, ids=lambda H: H.name)
def test_inner_conjugation_by_huge_power_shifts_support(H):
    rng = random.Random(106)
    for _ in range(200):
        a = random_zb(rng)
        c = rng.randrange(-BIG_ETA, BIG_ETA)
        moved = ZBElement((), c) * a * ZBElement((), -c)
        assert wreath.is_trivial(moved, H) == ref.zb_is_trivial(a, H)
        if H.name in ORDERS:
            support = ref.zb_min_support(a, H)
            assert zb_support_by_compare(moved, H) == (None if support is None else support - c)


def test_generator_600():
    a = FSElement.from_word(twogen.generator_word(600))
    assert twogen.collision_points(a) == [1]
    assert not twogen.is_trivial(a, FREE)
    assert twogen.is_trivial(a * ~a, FREE)
    assert fs_support_by_compare(a, FREE) == 1
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
        if H.name in ORDERS:
            support = ref.fs_min_support(a, H)
            assert fs_support_by_compare(moved, H) == (None if support is None else support - c)


def test_huge_classes_collide_where_predicted():
    # Classes 2^600 - 2^7 and 0 meet only at mu = 2^7, carrying b_600 and
    # b_7 there, which commute in an abelian base.
    big = (1 << 600) - (1 << 7)
    a = FSElement.make([(big, 1), (0, 1), (big, -1), (0, -1)])
    assert twogen.collision_points(a) == [1 << 7]
    assert twogen.is_trivial(a, FREE)
    assert fs_support_by_compare(a, FREE) is None
    # Classes 5 + 2^600 - 1 and 5 meet at mu = -4, where z meets b_600.
    c = FSElement.make([(4 + (1 << 600), 1), (5, 1), (4 + (1 << 600), -1), (5, -1)])
    assert twogen.collision_points(c) == [-4]
    assert not twogen.is_trivial(c, FREE)
    assert fs_support_by_compare(c, FREE) == -4
    # A difference not of the form 2^p - 2^q never collides.
    b = FSElement.make([(big + 1, 1), (0, 1), (big + 1, -1), (0, -1)])
    assert twogen.collision_points(b) == []
    assert twogen.is_trivial(b, FREE)


def random_base_word(rng: random.Random, alphabet) -> Word:
    """Words with repeated indices, negative powers and indices up to 600."""
    letter = next(iter(alphabet.indexed))
    indices = [rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 601)]
    runs = [(letter, rng.choice(indices), rng.choice([-3, -2, -1, 1, 2, 3]))]
    runs += [(letter, rng.choice(indices), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
    return Word.make(alphabet, runs[: rng.randrange(0, 8)])


@pytest.mark.parametrize("alphabet", [A_ALPHABET, X_ALPHABET], ids=lambda a: a.name)
def test_encode_word_matches_route_through_words(alphabet):
    # The same normal form, factor for factor, not just the same element.
    # Only a negative run followed by a positive one can merge factors, so
    # the sample must hold enough of those junctions.
    rng = random.Random(109)
    junctions = 0
    for _ in range(300):
        word = random_base_word(rng, alphabet)
        fast, slow = twogen.encode_word(word), ref.encode_word_by_words(word)
        assert (fast.factors, fast.tail) == (slow.factors, slow.tail), word
        exps = [exp for _, _, exp in word.runs]
        junctions += any(e < 0 < f for e, f in zip(exps, exps[1:]))
    assert junctions >= 50
    # The one cancelled pair: g_2^-1 ends in (0, -1) and g_1 starts with (0, 1).
    letter = next(iter(alphabet.indexed))
    a = twogen.encode_word(Word.make(alphabet, [(letter, 2, -1), (letter, 1, 1)]))
    assert a.factors == ((3, 1), (0, 1), (3, -1), (1, 1), (0, -1), (1, -1))


def test_inner_value_at_matches_route_through_make():
    rng = random.Random(110)
    for _ in range(600):
        a = random_zb(rng)
        for alphabet in (X_ALPHABET, A_ALPHABET):
            for nu in ref.step_points(a):
                fast = wreath.value_at(a, nu, alphabet)
                assert fast.runs == ref.zb_value_at_by_make(a, nu, alphabet).runs, (a, nu)


def test_value_at_matches_product_of_factor_values():
    # twogen.value_at reads f's letters in one pass; the reference
    # multiplies the value of each factor on its own.  Compare them at every
    # collision point, at each 1 - gamma and at random points, on random
    # elements, some carrying conjugators 2^i - 1 with i up to 600.
    rng = random.Random(108)
    for _ in range(400):
        a = random_fs(rng)
        if rng.random() < 0.5:
            i = rng.randrange(1, 601)
            huge = FSElement.make(
                [((1 << i) - 1 + rng.randrange(-2, 3), rng.choice([-2, -1, 1, 2]))
                 for _ in range(rng.randrange(1, 4))]
            )
            a = rng.choice([huge * a, a * huge, FSElement.from_word(twogen.generator_word(i)) * a])
        classes = sorted({gamma for gamma, _ in a.factors})
        points = twogen.collision_points(a) + [1 - gamma for gamma in classes]
        points += [rng.randrange(-20, 21) for _ in range(5)]
        points += [(1 << rng.randrange(0, 700)) - gamma for gamma in classes]
        for mu in points:
            assert twogen.value_at(a, mu) == ref.fs_value_at_by_product(a, mu), (a, mu)
