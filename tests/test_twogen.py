import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_scans
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.twogen import FSElement
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    Gen,
    Word,
    parse_word,
    word_to_text,
)
from wreathembed.wreath import ZBElement

H = free_abelian_oracle()


def fs(text: str) -> FSElement:
    return twogen.from_word(parse_word(text, FS_ALPHABET))


def fs_word_strategy() -> st.SearchStrategy[Word]:
    gen = st.sampled_from([Gen("f", None), Gen("s", None)])
    pairs = st.lists(st.tuples(gen, st.integers(min_value=-3, max_value=3)), max_size=10)
    return pairs.map(lambda ps: Word.make(FS_ALPHABET, ps))


def random_x_word(rng: random.Random, max_letters: int = 12, max_index: int = 8) -> Word:
    pairs = []
    for _ in range(rng.randrange(0, max_letters + 1)):
        pairs.append((Gen("x", rng.randrange(1, max_index + 1)), rng.choice([-1, 1])))
    return Word.make(X_ALPHABET, pairs)


class TestNormalForm:
    def test_interleaved_word(self):
        a = fs("f s f s^-1")
        assert a.factors == ((0, 1), (1, 1)) and a.tail == 0

    def test_pure_shift(self):
        a = fs("s^3")
        assert a.factors == () and a.tail == 3

    def test_merge_same_conjugator(self):
        a = fs("f s^2 s^-2 f")
        assert a.factors == ((0, 2),) and a.tail == 0

    def test_normal_form_text(self):
        assert fs("f s f s^-1").normal_form_text() == "[(0,1),(1,1)] ; 0"
        assert fs("s^3").normal_form_text() == "[] ; 3"


class TestDefiningValues:
    def test_single_factor_values(self):
        # The conjugate of f by s^gamma, raised to beta, carries z^beta at
        # the point with gamma + mu = 1, b_i^beta where gamma + mu = 2^i.
        a = FSElement(((3, 2),), 0)
        assert twogen.value_at(a, -2) == ZBElement((), 2)  # n = 1
        assert twogen.value_at(a, 1) == ZBElement(((2, 0, 2),), 0)  # n = 4
        assert twogen.value_at(a, 5) == ZBElement(((3, 0, 2),), 0)  # n = 8
        assert twogen.value_at(a, 2) == ZBElement.identity()  # n = 5
        assert twogen.value_at(a, -3) == ZBElement.identity()  # n = 0

    def test_f_value_grid(self):
        a = fs("f")
        for mu in range(-4, 20):
            value = twogen.value_at(a, mu)
            if mu == 1:
                assert value == ZBElement((), 1)
            elif mu >= 2 and mu & (mu - 1) == 0:
                assert value == ZBElement(((mu.bit_length() - 1, 0, 1),), 0)
            else:
                assert value == ZBElement.identity()

    def test_values_multiply_in_order(self):
        a = fs("f s^-1 f s")  # f * conjugate of f by s^-1
        # At mu = 2: first factor has n = 2 (b1), second n = 1 (z).
        assert twogen.value_at(a, 2) == ZBElement(((1, 0, 1),), 0) * ZBElement((), 1)

    def test_collision_points_match_brute_scan(self):
        # Brute force: count the classes active at each point of a range
        # that holds every collision for |gamma| <= 8, and read value_at.
        rng = random.Random(17)
        for _ in range(50):
            factors = [
                (rng.randrange(-8, 9), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(0, 6))
            ]
            a = FSElement.make(factors)
            sums = twogen.class_sums(a)
            expected = []
            for mu in range(-40, 41):
                active = [gamma for gamma in sums if reference_scans.is_active(gamma + mu)]
                if len(active) >= 2:
                    expected.append(mu)
                elif active:
                    # A lone class carries one generator to its class sum.
                    (gamma,) = active
                    lone = FSElement(((gamma, sums[gamma]),), 0)
                    assert twogen.value_at(a, mu) == twogen.value_at(lone, mu)
                else:
                    assert twogen.value_at(a, mu) == ZBElement.identity()
            assert twogen.collision_points(a) == expected


class TestGroupOperations:
    @given(fs_word_strategy(), fs_word_strategy())
    def test_from_word_is_multiplicative(self, u, v):
        assert twogen.from_word(u) * twogen.from_word(v) == twogen.from_word(u * v)

    @given(fs_word_strategy())
    def test_inverse_cancels(self, u):
        a = twogen.from_word(u)
        assert a * ~a == FSElement.identity()

    @given(fs_word_strategy(), fs_word_strategy(), fs_word_strategy())
    def test_associativity(self, u, v, w):
        a, b, c = map(twogen.from_word, (u, v, w))
        assert (a * b) * c == a * (b * c)

    @given(fs_word_strategy())
    def test_word_roundtrip(self, u):
        a = twogen.from_word(u)
        assert twogen.from_word(a.to_word()) == a

    def test_value_of_product_is_twisted_product(self):
        rng = random.Random(23)
        for _ in range(60):
            a = FSElement.make(
                [(rng.randrange(-6, 7), rng.choice([-1, 1])) for _ in range(rng.randrange(0, 5))],
                rng.randrange(-3, 4),
            )
            b = FSElement.make(
                [(rng.randrange(-6, 7), rng.choice([-1, 1])) for _ in range(rng.randrange(0, 5))],
                rng.randrange(-3, 4),
            )
            for mu in range(-10, 11):
                lhs = twogen.value_at(a * b, mu)
                rhs = twogen.value_at(a, mu) * twogen.value_at(b, mu + a.tail)
                assert lhs == rhs


class TestWordProblem:
    def test_identity_and_generators(self):
        assert twogen.is_trivial(fs(""), H)
        assert not twogen.is_trivial(fs("f"), H)
        assert not twogen.is_trivial(fs("s"), H)

    def test_fs_commutator_nontrivial(self):
        assert not twogen.is_trivial(fs("f s f^-1 s^-1"), H)

    def test_conjugates_of_identity(self):
        rng = random.Random(29)
        for _ in range(100):
            w = Word.make(
                FS_ALPHABET,
                [
                    (rng.choice([Gen("f", None), Gen("s", None)]), rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randrange(0, 8))
                ],
            )
            assert twogen.is_trivial(twogen.from_word(w * ~w), H)

    def test_conjugates_commute_unless_shift_is_power_minus_one(self):
        # f and its s^c-conjugate interact only when c + 1 is a power of
        # two: that is where a z value meets a b_i value at the same point.
        for c, interacts in ((1, True), (3, True), (7, True), (2, False), (9, False)):
            a = fs(f"f s^{c} f s^-{c} f^-1 s^{c} f^-1 s^-{c}")
            assert twogen.is_trivial(a, H) == (not interacts)

    def test_class_sum_obstruction(self):
        # Nonzero class sum forces nontriviality even with huge windows.
        a = FSElement(((1 << 40, 1),), 0)
        assert not twogen.is_trivial(a, H)

    def test_min_support_examples(self):
        assert twogen.min_support(fs("f"), H) == 1
        assert twogen.min_support(fs(""), H) is None
        assert twogen.min_support(fs("s^4"), H) is None
        a = twogen.encode_word(parse_word("x1", X_ALPHABET))
        assert twogen.min_support(a, H) == 1

    def test_min_support_shifted(self):
        # Conjugating by s^c moves the support by -c.
        a = twogen.encode_word(parse_word("x2", X_ALPHABET))
        shifted = fs("s^5") * a * fs("s^-5")
        assert twogen.min_support(shifted, H) == -4


class TestEmbedding:
    def test_generator_word_text(self):
        assert word_to_text(twogen.generator_word(1)) == "f s f s^-1 f^-1 s f^-1 s^-1"

    def test_generator_word_normal_form(self):
        for i in (1, 2, 5):
            k = (1 << i) - 1
            a = twogen.from_word(twogen.generator_word(i))
            assert a.factors == ((0, 1), (k, 1), (0, -1), (k, -1))
            assert a.tail == 0

    def test_generator_index_validated(self):
        with pytest.raises(ValueError):
            twogen.generator_word(0)

    def test_embedded_generator_support(self):
        # Supported exactly at point 1, carrying the inner [z, b_i].
        for i in (1, 2, 3):
            a = twogen.from_word(twogen.generator_word(i))
            for mu in range(-40, 41):
                value = twogen.value_at(a, mu)
                if mu == 1:
                    assert value == ZBElement(((i, 1, 1), (i, 0, -1)), 0)
                else:
                    assert wreath.is_trivial(value, H)
            assert twogen.collision_points(a) == [1]

    def test_embedding_is_injective_on_samples(self):
        rng = random.Random(31)
        from wreathembed.base_groups import free_abelian_trivial

        for _ in range(150):
            u = random_x_word(rng, max_letters=8, max_index=5)
            assert twogen.is_trivial(twogen.encode_word(u), H) == free_abelian_trivial(u)

    def test_homomorphism_on_samples(self):
        rng = random.Random(37)
        for _ in range(100):
            u = random_x_word(rng, max_letters=6, max_index=4)
            v = random_x_word(rng, max_letters=6, max_index=4)
            lhs = twogen.encode_word(u) * twogen.encode_word(v)
            assert twogen.is_trivial(lhs * ~twogen.encode_word(u * v), H)

    def test_power_encoding_is_word_power(self):
        u = parse_word("x1^3", X_ALPHABET)
        assert twogen.encode_word(u) == twogen.from_word(twogen.generator_word(1) ** 3)

    def test_inverse_encoding(self):
        u = parse_word("x2^-1", X_ALPHABET)
        assert twogen.encode_word(u) == twogen.from_word(~twogen.generator_word(2))
        assert twogen.is_trivial(
            twogen.encode_word(u) * twogen.encode_word(~u), H
        )


class TestMembership:
    def test_image_accepts_encodings(self):
        rng = random.Random(41)
        for _ in range(60):
            u = random_x_word(rng, max_letters=6, max_index=5)
            a = twogen.encode_word(u)
            assert twogen.in_image(a, H)
            assert twogen.decode(a, H) == u

    def test_image_rejects_shifts(self):
        for k in (1, -1, 7):
            assert not twogen.in_image(FSElement((), k), H)

    def test_image_rejects_f(self):
        assert not twogen.in_image(fs("f"), H)

    def test_image_rejects_conjugated_image(self):
        a = fs("s") * twogen.encode_word(parse_word("x1", X_ALPHABET)) * fs("s^-1")
        assert not twogen.in_image(a, H)

    def test_decode_raises_off_image(self):
        with pytest.raises(ValueError):
            twogen.decode(fs("f"), H)

    def test_base_subgroup_is_tail_kernel(self):
        assert twogen.in_base(fs("f"))
        assert twogen.in_base(fs("s f s^-1"))
        assert twogen.in_base(twogen.encode_word(parse_word("x3", X_ALPHABET)))
        assert not twogen.in_base(fs("s"))
        assert not twogen.in_base(fs("f s"))


class TestSemiTrivial:
    def test_structural_refutations_need_no_fuel(self):
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        assert twogen.semi_trivial(fs("s"), fueled, 0).nontrivial
        assert twogen.semi_trivial(fs("f"), fueled, 0).nontrivial

    def test_fuel_unlocks_trivial_verdict(self):
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        a = twogen.encode_word(parse_word("a2 a1^-1", A_ALPHABET))
        assert twogen.semi_trivial(a, fueled, 0).unknown
        assert twogen.semi_trivial(a, fueled, 1).trivial
        assert twogen.semi_trivial(a, fueled, 2).trivial

    def test_never_merged_pair_stays_unknown(self):
        fueled = re_oracle(mock_pair().enum_n, name="mock")
        a = twogen.encode_word(parse_word("a4 a3^-1", A_ALPHABET))
        for fuel in (0, 1, 8, 64):
            assert twogen.semi_trivial(a, fueled, fuel).unknown

    def test_total_oracle_definite(self):
        assert twogen.semi_trivial(fs("f f^-1"), H, 0).trivial
        assert twogen.semi_trivial(fs("f s f^-1 s^-1"), H, 0).nontrivial


class TestOracleAdapter:
    """Deciding words of this group: normal form, then the inner deciders."""

    def test_total_adapter(self):
        a = twogen.from_word(parse_word("f s f^-1 s^-1", FS_ALPHABET))
        assert not twogen.is_trivial(a, H)

    def test_insep_base(self):
        base = insep_oracle(mock_pair())
        w = twogen.encode_word(parse_word("a2 a1^-2", A_ALPHABET)).to_word()
        assert twogen.is_trivial(twogen.from_word(w), base)


def test_huge_conjugating_exponents_stay_cheap():
    # Embedded generator with index 80: conjugating exponent near 2^80.
    a = twogen.from_word(twogen.generator_word(80))
    assert twogen.is_trivial(a * ~a, H)
    assert not twogen.is_trivial(a, H)
    assert twogen.min_support(a, H) == 1
