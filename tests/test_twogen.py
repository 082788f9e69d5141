import dataclasses
import random

import pytest

import reference_scans
from oracles import FREE, fs_support_by_compare
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
    Word,
    commutator,
    parse_word,
    word_to_text,
)
from wreathembed.wreath import ZBElement

H = free_abelian_oracle()


def fs(text: str) -> FSElement:
    return FSElement.from_word(parse_word(text, FS_ALPHABET))


def random_x_word(rng: random.Random, max_letters: int = 12, max_index: int = 8) -> Word:
    runs = []
    for _ in range(rng.randrange(0, max_letters + 1)):
        runs.append(("x", rng.randrange(1, max_index + 1), rng.choice([-1, 1])))
    return Word.make(X_ALPHABET, runs)


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
                    (rng.choice("fs"), None, rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randrange(0, 8))
                ],
            )
            assert twogen.is_trivial(FSElement.from_word(w * ~w), H)

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

    def test_compare_decides_at_least_support_point(self):
        assert fs_support_by_compare(fs("f"), H) == 1
        assert fs_support_by_compare(fs(""), H) is None
        assert fs_support_by_compare(fs("s^4"), H) is None
        a = twogen.encode_word(parse_word("x1", X_ALPHABET))
        assert fs_support_by_compare(a, H) == 1

    def test_support_points(self):
        # Every class of a sums to zero: the candidates are its collision points.
        a = fs("s^2 f s f^-1 s^-8 f^-1 s^4 f^2 s^4 f s^-4 f^-2 s^3 f^-1 s^-7 f s^5")
        assert set(twogen.class_sums(a).values()) == {0}
        assert twogen._support_points(a) == twogen.collision_points(a) == [-1, 2, 5, 6, 9, 13]
        # A new class -3 with sum 1 is first active at 4 and cuts off the
        # collision points above it, 5, 6, 7, 9 and 13, one of them its own.
        cut = a * FSElement(((-3, 1),), 0)
        assert twogen.collision_points(cut) == [-1, 2, 5, 6, 7, 9, 13]
        assert twogen._support_points(cut) == [-1, 2, 4]
        # A first-active point that is also a collision point is listed once.
        assert twogen._support_points(a * FSElement(((-1, 1),), 0)) == [-1, 2]
        # The least first-active point of the classes with nonzero sums counts.
        b = FSElement(((0, 1), (1, 1), (0, -1), (3, 1)), 0)
        assert twogen.collision_points(b) == [1]
        assert twogen._support_points(b) == [-2]
        assert twogen._support_points(fs("")) == []
        assert twogen._support_points(fs("s^4")) == []

    def test_compare_point_shifted(self):
        # Conjugating by s^c moves the support by -c.
        a = twogen.encode_word(parse_word("x2", X_ALPHABET))
        shifted = fs("s^5") * a * fs("s^-5")
        assert fs_support_by_compare(shifted, H) == -4


class TestEmbedding:
    def test_generator_word_text(self):
        assert word_to_text(twogen.generator_word(1)) == "f s f s^-1 f^-1 s f^-1 s^-1"

    def test_generator_word_normal_form(self):
        for i in (1, 2, 5):
            k = (1 << i) - 1
            a = FSElement.from_word(twogen.generator_word(i))
            assert a.factors == ((0, 1), (k, 1), (0, -1), (k, -1))
            assert a.tail == 0

    def test_generator_index_validated(self):
        with pytest.raises(ValueError):
            twogen.generator_word(0)

    def test_embedded_generator_support(self):
        # Supported exactly at point 1, carrying the inner [z, b_i].
        for i in (1, 2, 3):
            a = FSElement.from_word(twogen.generator_word(i))
            for mu in range(-40, 41):
                value = twogen.value_at(a, mu)
                if mu == 1:
                    assert value == ZBElement(((i, 1, 1), (i, 0, -1)), 0)
                else:
                    assert wreath.is_trivial(value, H)
            assert twogen.collision_points(a) == [1]

    def test_embedding_is_injective_on_samples(self):
        rng = random.Random(31)
        from oracles import free_abelian_trivial

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
        assert twogen.encode_word(u) == FSElement.from_word(twogen.generator_word(1) ** 3)

    def test_inverse_encoding(self):
        u = parse_word("x2^-1", X_ALPHABET)
        assert twogen.encode_word(u) == FSElement.from_word(~twogen.generator_word(2))
        assert twogen.is_trivial(
            twogen.encode_word(u) * twogen.encode_word(~u), H
        )

    def test_inverse_factors_swap_the_classes(self):
        # encode_word pushes these factors for a negative run without forming ~g_i.
        for i in (1, 2, 3, 64, 600):
            g = FSElement(twogen._generator_factors(i, 1))
            inverse = twogen._generator_factors(i, -1)
            assert inverse == (~g).factors
            assert g * FSElement(inverse) == FSElement()

    def test_letter_without_index_rejected(self):
        with pytest.raises(ValueError, match="carries no index"):
            twogen.encode_word(parse_word("f", FS_ALPHABET))


class TestFreeBase:
    """The embedding over a base whose values do not commute."""

    @staticmethod
    def pairs(seed: int, count: int = 300):
        # v is u, u with its runs shuffled (equal only up to commuting), or
        # an unrelated word, a third of the time each.
        rng = random.Random(seed)
        for _ in range(count):
            u = random_x_word(rng, max_letters=8, max_index=4)
            kind = rng.randrange(3)
            if kind == 0:
                v = u
            elif kind == 1:
                v = Word.make(X_ALPHABET, rng.sample(u.runs, len(u.runs)))
            else:
                v = random_x_word(rng, max_letters=8, max_index=4)
            yield u, v

    def test_encoding_is_injective(self):
        outcomes = set()
        for u, v in self.pairs(43):
            equal = twogen.is_trivial(twogen.encode_word(u) * ~twogen.encode_word(v), FREE)
            assert equal == (u == v), (str(u), str(v))
            outcomes.add((equal, twogen.is_trivial(twogen.encode_word(u * ~v), H)))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_decode_inverts_encode(self):
        for u, _ in self.pairs(47):
            assert twogen.decode(twogen.encode_word(u), FREE) == u

    def test_image_is_closed_under_products(self):
        for u, v in self.pairs(53):
            product = twogen.encode_word(u) * twogen.encode_word(v)
            assert twogen.in_image(product, FREE)
            assert twogen.decode(product, FREE) == u * v

    def test_commutator_survives_only_in_the_free_group(self):
        x1, x2 = (parse_word(t, X_ALPHABET) for t in ("x1", "x2"))
        a = twogen.encode_word(commutator(x1, x2))
        assert not twogen.is_trivial(a, FREE)
        assert twogen.is_trivial(a, H)


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
        with pytest.raises(ValueError, match="^element is not in the embedded base group$"):
            twogen.decode(fs("f"), H)

    @pytest.mark.parametrize("base", [free_abelian_oracle(), insep_oracle(mock_pair())])
    def test_decode_runs_one_inner_scan(self, base):
        # decode reads the word in_image certified, so it asks the base
        # exactly as often as in_image; the old route, zb_decode of the value
        # at 1, scanned that value a second time, and stays as the oracle.
        # The scan asks each base its one rule, which is counted here.
        calls = []

        def counting(rule):
            def counted_rule(value, fuel):
                calls.append(value)
                return rule(value, fuel)

            return counted_rule

        counted = dataclasses.replace(base, rule=counting(base.rule))
        letter = next(iter(base.alphabet.indexed))
        rng = random.Random(1901)
        for _ in range(200):
            runs = [
                (letter, rng.randint(1, 8), rng.choice([-1, 1])) for _ in range(rng.randint(1, 60))
            ]
            a = twogen.encode_word(Word.make(base.alphabet, runs))
            calls.clear()
            assert twogen.in_image(a, counted)
            in_image_calls = len(calls)
            calls.clear()
            decoded = twogen.decode(a, counted)
            assert len(calls) == in_image_calls >= 1
            assert decoded == reference_scans.zb_decode(twogen.value_at(a, 1), base)

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
        a = FSElement.from_word(parse_word("f s f^-1 s^-1", FS_ALPHABET))
        assert not twogen.is_trivial(a, H)

    def test_insep_base(self):
        base = insep_oracle(mock_pair())
        w = twogen.encode_word(parse_word("a2 a1^-2", A_ALPHABET)).to_word()
        assert twogen.is_trivial(FSElement.from_word(w), base)


def test_huge_conjugating_exponents_stay_cheap():
    # Embedded generator with index 80: conjugating exponent near 2^80.
    a = FSElement.from_word(twogen.generator_word(80))
    assert twogen.is_trivial(a * ~a, H)
    assert not twogen.is_trivial(a, H)
    assert fs_support_by_compare(a, H) == 1
