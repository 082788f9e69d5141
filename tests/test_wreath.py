import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import is_identity, zb_support_by_compare
from reference_scans import step_points, zb_decode
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    UNKNOWN,
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.orders import fs_compare, pair_adapted_order, zb_compare
from wreathembed.twogen import FSElement
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Word,
    WordError,
    parse_word,
    word_to_text,
)
from wreathembed.wreath import ZBElement

H = free_abelian_oracle()


def zb(text: str) -> ZBElement:
    return ZBElement.from_word(parse_word(text, ZB_ALPHABET))


def zb_word_strategy() -> st.SearchStrategy[Word]:
    exps = st.integers(min_value=-3, max_value=3)
    run = st.one_of(
        st.tuples(st.just("z"), st.none(), exps),
        st.tuples(st.just("b"), st.integers(min_value=1, max_value=6), exps),
    )
    return st.lists(run, max_size=10).map(lambda runs: Word.make(ZB_ALPHABET, runs))


def fs_word_strategy() -> st.SearchStrategy[Word]:
    run = st.tuples(st.sampled_from("fs"), st.none(), st.integers(min_value=-3, max_value=3))
    return st.lists(run, max_size=10).map(lambda runs: Word.make(FS_ALPHABET, runs))


def x_word_strategy() -> st.SearchStrategy[Word]:
    run = st.tuples(
        st.just("x"), st.integers(min_value=1, max_value=8), st.integers(min_value=-3, max_value=3)
    )
    return st.lists(run, max_size=8).map(lambda runs: Word.make(X_ALPHABET, runs))


class TestNormalForm:
    def test_commutator_normal_form(self):
        a = zb("z b1 z^-1 b1^-1")
        assert a.factors == ((1, 1, 1), (1, 0, -1))
        assert a.tail == 0

    def test_pure_shift(self):
        a = zb("z^5")
        assert a.factors == () and a.tail == 5

    def test_offset_tracking(self):
        a = zb("b2^3 z^2")
        assert a.factors == ((2, 0, 3),) and a.tail == 2

    def test_adjacent_merge_cascades(self):
        a = zb("b1 b2 b2^-1 b1^-1 z")
        assert a.factors == () and a.tail == 1

    def test_distinct_conjugators_do_not_merge(self):
        a = zb("b1 z b1 z^-1")
        assert a.factors == ((1, 0, 1), (1, 1, 1))

    def test_normal_form_text(self):
        assert zb("z b1 z^-1 b1^-1").normal_form_text() == "[(1,1,1),(1,0,-1)] ; 0"
        assert zb("z^3").normal_form_text() == "[] ; 3"

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            ZBElement.make([(0, 0, 1)])


class TestValues:
    def test_generator_steps_at_one(self):
        a = zb("b3")
        for nu in range(-5, 6):
            expected = "x3" if nu >= 1 else ""
            assert word_to_text(wreath.value_at(a, nu)) == expected

    def test_commutator_supported_exactly_at_zero(self):
        a = zb("z b2 z^-1 b2^-1")
        for nu in range(-6, 7):
            expected = "x2" if nu == 0 else ""
            assert word_to_text(wreath.value_at(a, nu)) == expected

    def test_conjugation_shifts_values(self):
        a = zb("z^-2 b1 z^2")  # step point moves from 1 to 3
        assert is_identity(wreath.value_at(a, 2))
        assert not is_identity(wreath.value_at(a, 3))

    def test_step_points_are_the_change_points(self):
        def walked(a):
            return [nu for nu, _ in wreath._walk(a, X_ALPHABET)]

        a = zb("z b1 z^-1 b1^-1")
        assert walked(a) == [0, 1]
        assert walked(zb("z^4")) == []
        # Brute force: each point carries the value of the last step point
        # at or before it, and the identity before the first.
        rng = random.Random(9)
        for _ in range(40):
            factors = [
                (rng.randrange(1, 4), rng.randrange(-6, 7), rng.choice([-1, 1]))
                for _ in range(rng.randrange(0, 6))
            ]
            b = ZBElement.make(factors)
            steps = walked(b)
            for nu in range(-10, 11):
                before = [step for step in steps if step <= nu]
                expected = wreath.value_at(b, before[-1]) if before else Word.identity(X_ALPHABET)
                assert wreath.value_at(b, nu) == expected

    def test_value_alphabet_parameter(self):
        w = wreath.value_at(zb("b2"), 1, A_ALPHABET)
        assert word_to_text(w) == "a2"

    def test_raw_factor_with_index_zero_rejected(self):
        # A raw element skips make's check; the value still names no x0.
        a = ZBElement(((0, 5, 1),), 0)
        with pytest.raises(WordError, match="index must be >= 1, got x0"):
            wreath.value_at(a, 0)
        assert is_identity(wreath.value_at(a, -5))

    def test_raw_factor_rejected_by_to_word(self):
        # to_word checks each generator once, on the way into the word.
        with pytest.raises(WordError, match="index must be >= 1, got b0"):
            ZBElement(((0, 5, 1),), 0).to_word()
        with pytest.raises(WordError, match="does not take an index"):
            FSElement(((1, 0, 1),)).to_word()


# Both stages share one normal form, WreathElement, so its group laws are
# stated once and checked on the words of each stage.
@pytest.mark.parametrize(
    "element, words",
    [
        pytest.param(ZBElement, zb_word_strategy(), id="wreath"),
        pytest.param(FSElement, fs_word_strategy(), id="twogen"),
    ],
)
class TestGroupOperations:
    @given(st.data())
    def test_from_word_is_multiplicative(self, element, words, data):
        u, v = data.draw(words), data.draw(words)
        assert element.from_word(u) * element.from_word(v) == element.from_word(u * v)

    @given(st.data())
    def test_inverse_cancels(self, element, words, data):
        a = element.from_word(data.draw(words))
        assert a * ~a == element.identity()
        assert ~a * a == element.identity()

    @given(st.data())
    def test_associativity(self, element, words, data):
        a, b, c = (element.from_word(data.draw(words)) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    @given(st.data())
    def test_word_roundtrip(self, element, words, data):
        a = element.from_word(data.draw(words))
        assert element.from_word(a.to_word()) == a

    @given(st.data(), st.integers(min_value=-3, max_value=3))
    def test_power(self, element, words, data, n):
        a = element.from_word(data.draw(words))
        expected = element.identity()
        step = a if n >= 0 else ~a
        for _ in range(abs(n)):
            expected = expected * step
        assert a**n == expected


def test_from_word_rejects_another_stage_alphabet():
    with pytest.raises(ValueError, match="expected the inner-wreath alphabet"):
        ZBElement.from_word(parse_word("f", FS_ALPHABET))


def test_product_of_elements_of_two_stages_is_refused():
    with pytest.raises(TypeError, match="^unsupported operand type"):
        ZBElement(((1, 0, 1),)) * FSElement(((0, 1),))
    with pytest.raises(TypeError, match="^unsupported operand type"):
        FSElement(((0, 1),)) * parse_word("x1", X_ALPHABET)
    with pytest.raises(TypeError, match="^unsupported operand type"):
        parse_word("x1", X_ALPHABET) * FSElement(((0, 1),))
    with pytest.raises(TypeError, match="^unsupported operand type"):
        parse_word("x1", X_ALPHABET) * ZBElement(((1, 0, 1),))


def fs(text: str) -> FSElement:
    return FSElement.from_word(parse_word(text, FS_ALPHABET))


# Each function that needs a total base, applied to fixed elements.  The
# compared pairs share their trailing power, so the lift reaches the scan.
NEEDS_TOTAL = {
    "wreath.is_trivial": lambda H: wreath.is_trivial(zb("b1"), H),
    "wreath.in_diagonal": lambda H: wreath.in_diagonal(zb("z"), H),
    "zb_decode": lambda H: zb_decode(zb("z b1 z^-1 b1^-1"), H),
    "twogen.is_trivial": lambda H: twogen.is_trivial(fs("f"), H),
    "twogen.in_image": lambda H: twogen.in_image(fs("s"), H),
    "twogen.decode": lambda H: twogen.decode(fs("f s f s^-1 f^-1 s f^-1 s^-1"), H),
    "zb_compare": lambda H: zb_compare(zb("b1"), zb("b2"), pair_adapted_order(mock_pair()), H),
    "fs_compare": lambda H: fs_compare(fs("f"), fs("s f s^-1"), pair_adapted_order(mock_pair()), H),
}


class TestWordProblem:
    def test_identity_is_trivial(self):
        assert wreath.is_trivial(ZBElement.identity(), H)

    def test_generators_are_not(self):
        for text in ("z", "b1", "z b1 z^-1 b1^-1"):
            assert not wreath.is_trivial(zb(text), H)

    def test_pointwise_commutation_in_abelian_base(self):
        # Same function, different normal forms.
        a = zb("b1 z b2 z^-1")
        b = zb("z b2 z^-1 b1")
        assert a.factors != b.factors
        assert wreath.is_trivial(a * ~b, H)

    def test_random_conjugates_of_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            letters = []
            for _ in range(rng.randrange(0, 8)):
                i = rng.randrange(1, 5)
                letters.append(f"b{i}^{rng.choice([-2, -1, 1, 2])}" if rng.random() < 0.7 else "z")
            w = parse_word(" ".join(letters), ZB_ALPHABET)
            assert wreath.is_trivial(ZBElement.from_word(w * ~w), H)

    def test_compare_decides_at_least_support_point(self):
        # The lifted compare against the identity ignores the trailing z power.
        assert zb_support_by_compare(zb("b1"), H) == 1
        assert zb_support_by_compare(zb("z b1 z^-1 b1^-1"), H) == 0
        assert zb_support_by_compare(zb("z^7"), H) is None
        assert zb_support_by_compare(zb("z^-3 b2 z^3"), H) == 4

    def test_compare_skips_cancelled_points(self):
        # b1 * (b2 shifted to step at 0): nontrivial already at 0.
        a = zb("z b2 z^-1 b1")
        assert zb_support_by_compare(a, H) == 0

    @pytest.mark.parametrize("name", sorted(NEEDS_TOTAL))
    def test_requires_total_oracle(self, name):
        # Every caller that needs a total base refuses a fueled one, even
        # where the element alone would settle the answer.
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        with pytest.raises(ValueError):
            NEEDS_TOTAL[name](fueled)


class TestDiagonal:
    def test_encode_normal_form(self):
        u = parse_word("x1", X_ALPHABET)
        assert wreath.diagonal_encode(u) == ZBElement(((1, 1, 1), (1, 0, -1)), 0)

    @given(x_word_strategy())
    def test_encode_lands_in_diagonal(self, u):
        assert wreath.in_diagonal(wreath.diagonal_encode(u), H)

    @given(x_word_strategy())
    def test_decode_roundtrip(self, u):
        assert zb_decode(wreath.diagonal_encode(u), H) == u

    def test_non_members(self):
        for text in ("b1", "z", "b1 z b1 z^-1", "z^2 b1 z^-2"):
            assert not wreath.in_diagonal(zb(text), H)

    def test_step_point_zero_is_read_at_one(self):
        # Step points 0 and 1: the interval from 0 is {0}, and 1 is tested.
        member = zb("z b1 z^-1 b1^-1")
        assert step_points(member) == [0, 1]
        assert wreath.in_diagonal(member, H)
        # Step point 0 alone: its interval holds 1, which carries x1.
        other = zb("z b1 z^-1")
        assert step_points(other) == [0]
        assert wreath.value_at(other, 1) == parse_word("x1", X_ALPHABET)
        assert not wreath.in_diagonal(other, H)

    def test_shifted_commutator_is_not_diagonal(self):
        a = ZBElement.from_word(parse_word("z", ZB_ALPHABET)) * zb("z b1 z^-1 b1^-1") * ~zb("z")
        assert not wreath.in_diagonal(a, H)

    def test_member_values_vanish_off_zero(self):
        rng = random.Random(5)
        for _ in range(50):
            runs = [("x", rng.randrange(1, 6), rng.choice([-2, -1, 1, 2])) for _ in range(4)]
            a = wreath.diagonal_encode(Word.make(X_ALPHABET, runs))
            eta0 = max((abs(eta) for _, eta, _ in a.factors), default=0)
            for nu in range(-3 * eta0 - 3, 3 * eta0 + 4):
                if nu != 0:
                    assert is_identity(wreath.value_at(a, nu))

    def test_decode_rejects_non_members(self):
        with pytest.raises(ValueError):
            zb_decode(zb("b1"), H)


class TestSemiTrivial:
    def test_total_oracle_gives_definite_answers(self):
        assert wreath.semi_trivial(zb("b1 b1^-1"), H, 0).trivial
        assert wreath.semi_trivial(zb("b1"), H, 0).nontrivial

    def test_fueled_base(self):
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        a = wreath.diagonal_encode(parse_word("a2 a1^-1", A_ALPHABET))
        assert wreath.semi_trivial(a, fueled, 0) is UNKNOWN
        assert wreath.semi_trivial(a, fueled, 1).trivial

    def test_tail_refutes_without_fuel(self):
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        assert wreath.semi_trivial(zb("z"), fueled, 0).nontrivial


class TestOracleAdapter:
    """Deciding words of this group: normal form, then the base's one check."""

    def test_total_adapter(self):
        def trivial(text: str) -> bool:
            return wreath.is_trivial(ZBElement.from_word(parse_word(text, ZB_ALPHABET)), H)

        assert trivial("b1 z b1^-1 z^-1") is False
        assert trivial("z b1 b1^-1 z^-1") is True

    def test_fueled_adapter(self):
        inner = re_oracle(mock_pair().enum_n, name="mock")
        trivial_word = wreath.diagonal_encode(parse_word("a2 a1^-1", A_ALPHABET)).to_word()
        a = ZBElement.from_word(trivial_word)
        assert wreath.semi_trivial(a, inner, 0) is UNKNOWN
        assert wreath.semi_trivial(a, inner, 1).trivial
        with pytest.raises(ValueError):
            wreath.is_trivial(a, inner)


def test_insep_base_works_at_this_level():
    base = insep_oracle(mock_pair())
    a = wreath.diagonal_encode(parse_word("a2 a1^-2", A_ALPHABET))
    assert wreath.is_trivial(a, base)
    b = wreath.diagonal_encode(parse_word("a2 a1^-1", A_ALPHABET))
    assert not wreath.is_trivial(b, base)
