import random

import pytest

from oracles import OrderAxiomReport, check_order_axioms, transport_less
from wreathembed import orders, twogen, wreath
from wreathembed.base_groups import free_abelian_oracle, free_abelian_trivial, insep_oracle, mock_pair
from wreathembed.orders import (
    OrderOracle,
    fs_compare,
    lex_order,
    lifted_order,
    pair_adapted_order,
    zb_compare,
)
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Gen,
    Word,
    parse_word,
)

H = free_abelian_oracle()
HORD = lex_order()


def lex_less(u, v) -> bool:
    return HORD.compare(u, v) == "LT"


def zb_less(a, b, H_order, H) -> bool:
    return zb_compare(a, b, H_order, H)[0] == "LT"


def fs_less(a, b, H_order, H) -> bool:
    return fs_compare(a, b, H_order, H)[0] == "LT"


def x(text: str) -> Word:
    return parse_word(text, X_ALPHABET)


def zb(text: str):
    return wreath.from_word(parse_word(text, ZB_ALPHABET))


def fs(text: str):
    return twogen.from_word(parse_word(text, FS_ALPHABET))


def random_x_word(rng, max_letters=8, max_index=6) -> Word:
    pairs = [
        (Gen("x", rng.randrange(1, max_index + 1)), rng.choice([-1, 1]))
        for _ in range(rng.randrange(0, max_letters + 1))
    ]
    return Word.make(X_ALPHABET, pairs)


def random_fs_element(rng, max_factors=6, gamma=8, beta=3, tail=3):
    factors = [
        (rng.randrange(-gamma, gamma + 1), rng.randrange(-beta, beta + 1))
        for _ in range(rng.randrange(0, max_factors + 1))
    ]
    from wreathembed.twogen import FSElement

    return FSElement.make(factors, rng.randrange(-tail, tail + 1))


class TestLex:
    def test_identity_below_positive_generator(self):
        assert lex_less(x(""), x("x1"))
        assert lex_less(x("x1^-1"), x(""))

    def test_smallest_index_decides(self):
        assert lex_less(x("x2"), x("x1"))
        assert lex_less(x("x1 x5^-9"), x("x1 x3"))

    def test_equal_words_compare_equal(self):
        assert HORD.compare(x("x1 x2"), x("x2 x1")) == "EQ"
        assert HORD.compare(x("x2 x1"), x("x1 x2")) == "EQ"

    def test_translation_invariance(self):
        rng = random.Random(1)
        for _ in range(200):
            u, v, w = (random_x_word(rng) for _ in range(3))
            assert lex_less(u, v) == lex_less(u * w, v * w)


class TestPairAdapted:
    def test_relation_respected(self):
        order = pair_adapted_order(mock_pair())
        a = parse_word("a2", A_ALPHABET)
        b = parse_word("a1^2", A_ALPHABET)
        # a2 = a1^2 in the group: equal, so they compare equal.
        assert order.compare(a, b) == order.compare(b, a) == "EQ"

    def test_strictness_on_distinct(self):
        order = pair_adapted_order(mock_pair())
        a1, a2 = parse_word("a1", A_ALPHABET), parse_word("a2", A_ALPHABET)
        assert (order.compare(a1, a2), order.compare(a2, a1)) == ("LT", "GT")


class TestInnerLift:
    def test_tail_clause(self):
        assert zb_compare(zb(""), zb("z"), HORD, H) == ("LT", "tail", None)
        assert zb_compare(zb("z^-2"), zb(""), HORD, H) == ("LT", "tail", None)

    def test_value_clause(self):
        verdict, clause, point = zb_compare(zb(""), zb("z b1 z^-1 b1^-1"), HORD, H)
        assert (verdict, clause, point) == ("LT", "value", 0)

    def test_generator_below_its_shift(self):
        assert zb_less(zb("b1"), zb("z b1 z^-1"), HORD, H)

    def test_equal_elements(self):
        a = zb("b1 z b2 z^-1")
        b = zb("z b2 z^-1 b1")
        assert zb_compare(a, b, HORD, H) == ("EQ", "equal", None)

    def test_totality(self):
        rng = random.Random(2)
        for _ in range(150):
            pairs_a = [
                (rng.randrange(1, 5), rng.randrange(-3, 4), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(0, 5))
            ]
            pairs_b = [
                (rng.randrange(1, 5), rng.randrange(-3, 4), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(0, 5))
            ]
            from wreathembed.wreath import ZBElement

            a = ZBElement.make(pairs_a, rng.randrange(-2, 3))
            b = ZBElement.make(pairs_b, rng.randrange(-2, 3))
            outcomes = [
                zb_less(a, b, HORD, H),
                zb_less(b, a, HORD, H),
                wreath.is_trivial(a * ~b, H),
            ]
            assert outcomes.count(True) == 1

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zb_less(zb("b1"), zb("z"), lex_order(), insep_oracle(mock_pair()))

    def test_order_that_ties_distinct_values_is_rejected(self):
        ties = OrderOracle("ties", X_ALPHABET, lambda u, v: "EQ")
        with pytest.raises(ValueError, match="order 'ties' is not total"):
            zb_compare(zb("b1"), zb(""), ties, H)
        with pytest.raises(ValueError, match="order 'ties' is not total"):
            fs_compare(twogen.encode_word(x("x1")), twogen.FSElement.identity(), ties, H)


class TestOuterLift:
    def test_tail_clause_dominates(self):
        a = twogen.encode_word(x("x1"))
        assert fs_compare(a, fs("s"), HORD, H)[:2] == ("LT", "tail")

    def test_value_clause(self):
        assert fs_compare(fs("f"), fs(""), HORD, H) == ("GT", "value", 1)

    def test_identity_below_embedded_generator(self):
        a = twogen.encode_word(x("x1"))
        assert fs_less(twogen.FSElement.identity(), a, HORD, H)

    def test_continuation_of_base_order(self):
        rng = random.Random(3)
        for _ in range(60):
            u, v = random_x_word(rng, 6, 4), random_x_word(rng, 6, 4)
            assert lex_less(u, v) == fs_less(
                twogen.encode_word(u), twogen.encode_word(v), HORD, H
            )

    def test_totality(self):
        rng = random.Random(4)
        for _ in range(100):
            a, b = random_fs_element(rng), random_fs_element(rng)
            outcomes = [
                fs_less(a, b, HORD, H),
                fs_less(b, a, HORD, H),
                twogen.is_trivial(a * ~b, H),
            ]
            assert outcomes.count(True) == 1

    def test_transitivity_sample(self):
        rng = random.Random(5)
        for _ in range(60):
            a, b, c = (random_fs_element(rng, 4, 5, 2, 2) for _ in range(3))
            if fs_less(a, b, HORD, H) and fs_less(b, c, HORD, H):
                assert fs_less(a, c, HORD, H)

    def test_bi_invariance_sample(self):
        rng = random.Random(6)
        for _ in range(60):
            a, b, g, h = (random_fs_element(rng, 4, 5, 2, 2) for _ in range(4))
            if fs_less(a, b, HORD, H):
                assert fs_less(g * a * h, g * b * h, HORD, H)

    def test_order_oracle_wrapper(self):
        order = lifted_order(H, HORD)
        assert order.alphabet == FS_ALPHABET
        assert order.compare(parse_word("", FS_ALPHABET), parse_word("s", FS_ALPHABET)) == "LT"


class TestTransport:
    def test_shifted_injection(self):
        images = {Gen("x", i): x(f"x{i + 1}") for i in range(1, 7)}
        rng = random.Random(7)
        for _ in range(100):
            u, v = random_x_word(rng), random_x_word(rng)
            shifted_u = Word.make(X_ALPHABET, [(Gen("x", g.index + 1), e) for g, e in u.runs])
            shifted_v = Word.make(X_ALPHABET, [(Gen("x", g.index + 1), e) for g, e in v.runs])
            assert transport_less(u, v, images, lex_order()) == lex_less(shifted_u, shifted_v)

    def test_transport_through_embedding_agrees_with_lex(self):
        # Substituting each generator by its embedded word and comparing in
        # the lifted order must reproduce the base order.
        order = lifted_order(H, HORD)
        images = {Gen("x", i): twogen.generator_word(i) for i in range(1, 6)}
        rng = random.Random(8)
        for _ in range(40):
            u, v = random_x_word(rng, 5, 5), random_x_word(rng, 5, 5)
            assert transport_less(u, v, images, order) == lex_less(u, v)

    def test_missing_image_is_an_error(self):
        with pytest.raises(ValueError):
            transport_less(x("x9"), x(""), {}, lex_order())


class TestAxiomChecker:
    def test_always_true_relation_breaks_antisymmetry(self):
        sample = [x("x1"), x("x2")]
        report = check_order_axioms(sample, lambda u, v: True, free_abelian_trivial)
        assert any(v.axiom == "antisymmetry" for v in report.violations)

    def test_empty_relation_is_clean(self):
        sample = [x("x1"), x("x2")]
        report = check_order_axioms(sample, lambda u, v: False, free_abelian_trivial)
        assert report.ok

    def test_strict_lex_satisfies_axioms(self):
        rng = random.Random(9)
        sample = [random_x_word(rng) for _ in range(20)]
        report = check_order_axioms(sample, lex_less, free_abelian_trivial, n_max=5)
        assert report.ok and report.checked > 0

    def test_lifted_nonstrict_satisfies_axioms(self):
        rng = random.Random(10)
        sample = [random_fs_element(rng, 3, 4, 2, 2).to_word() for _ in range(12)]
        order = lifted_order(H, HORD)
        relation = lambda u, v: order.compare(u, v) != "GT"
        report = check_order_axioms(
            sample, relation, lambda w: twogen.is_trivial(twogen.from_word(w), H), n_max=3
        )
        assert report.ok


def test_report_is_frozen_dataclass():
    report = OrderAxiomReport(0, ())
    assert report.ok
