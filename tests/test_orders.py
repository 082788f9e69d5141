import dataclasses
import random
from collections import Counter

import pytest

import reference_scans as ref
from oracles import (
    OrderAxiomReport,
    check_cone,
    check_order_axioms,
    free_abelian_trivial,
    norm_first_order,
    transport_less,
)
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    exponent_vector,
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    pair_basis_vector,
)
from wreathembed.orders import (
    OrderOracle,
    fs_compare,
    lex_order,
    lifted_order,
    pair_adapted_order,
    zb_compare,
)
from wreathembed.reductions import separation_report, separator
from wreathembed.twogen import FSElement
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Word,
    parse_word,
)
from wreathembed.wreath import ZBElement

H = free_abelian_oracle()
HORD = lex_order()
PAIR = mock_pair()
INSEP = insep_oracle(PAIR)
PAIR_ORDER = pair_adapted_order(PAIR)


def lex_less(u, v) -> bool:
    return HORD.compare(u, v) == "LT"


def zb_less(a, b, H_order, H) -> bool:
    return zb_compare(a, b, H_order, H)[0] == "LT"


def fs_less(a, b, H_order, H) -> bool:
    return fs_compare(a, b, H_order, H)[0] == "LT"


def x(text: str) -> Word:
    return parse_word(text, X_ALPHABET)


def zb(text: str):
    return ZBElement.from_word(parse_word(text, ZB_ALPHABET))


def fs(text: str):
    return FSElement.from_word(parse_word(text, FS_ALPHABET))


def random_x_word(rng, max_letters=8, max_index=6) -> Word:
    runs = [
        ("x", rng.randrange(1, max_index + 1), rng.choice([-1, 1]))
        for _ in range(rng.randrange(0, max_letters + 1))
    ]
    return Word.make(X_ALPHABET, runs)


def random_fs_element(rng, max_factors=6, gamma=8, beta=3, tail=3):
    factors = [
        (rng.randrange(-gamma, gamma + 1), rng.randrange(-beta, beta + 1))
        for _ in range(rng.randrange(0, max_factors + 1))
    ]
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

    @pytest.mark.parametrize("text, alphabet", [("a1", A_ALPHABET), ("b1", ZB_ALPHABET)],
                             ids=["a1", "b1"])
    def test_words_over_another_alphabet_are_refused(self, text, alphabet):
        # Both used to compare as GT.
        with pytest.raises(ValueError, match="^expected the free-abelian alphabet$"):
            HORD.compare(parse_word(text, alphabet), Word.identity(alphabet))


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
            a = ZBElement.make(pairs_a, rng.randrange(-2, 3))
            b = ZBElement.make(pairs_b, rng.randrange(-2, 3))
            outcomes = [
                zb_less(a, b, HORD, H),
                zb_less(b, a, HORD, H),
                wreath.is_trivial(a * ~b, H),
            ]
            assert outcomes.count(True) == 1

    def test_alphabet_mismatch_rejected(self):
        # The tails differ, so the mismatch must raise before the tail clause.
        with pytest.raises(ValueError, match="use different alphabets"):
            zb_less(zb("b1"), zb("z"), lex_order(), insep_oracle(mock_pair()))
        with pytest.raises(ValueError, match="use different alphabets"):
            fs_less(fs("f"), fs("s"), lex_order(), insep_oracle(mock_pair()))

    def test_order_that_ties_distinct_values_is_rejected(self):
        ties = OrderOracle("ties", X_ALPHABET, lambda vector: 0)
        with pytest.raises(ValueError, match="order 'ties' is not total"):
            zb_compare(zb("b1"), zb(""), ties, H)
        with pytest.raises(ValueError, match="order 'ties' is not total"):
            fs_compare(twogen.encode_word(x("x1")), twogen.FSElement.identity(), ties, H)

    def test_order_blind_before_a_later_sign_is_rejected(self):
        # blind1 gives 0 on the nontrivial value x1 at the point 1 and lex's
        # sign on x1 x2 at the point 2.  Its lift reads the sign at the least
        # support point, 1, so "GT at 2" would be wrong; the walk raises at 1.
        blind1 = OrderOracle(
            "blind1", X_ALPHABET, lambda vector: 0 if set(vector) == {1} else HORD.sign(vector)
        )
        with pytest.raises(ValueError, match="order 'blind1' is not total"):
            zb_compare(zb("b1 z^-1 b2 z"), zb(""), blind1, H)


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


def test_compares_ask_the_base_only_to_confirm_a_zero_sign():
    # Base-rule calls and base-order sign calls per compare.  The walk reads
    # the sign at each point up to the deciding one, and the base confirms
    # each zero sign there, one rule call per such point.  So an LT/GT compare
    # decided at its first point and the separator read signs only, one with
    # a trivial value first makes one rule call, and an EQ compare makes one
    # rule call per point.
    calls: Counter = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    def traffic(decide, *args):
        calls.clear()
        return decide(*args), dict(calls)

    base = dataclasses.replace(H, rule=counted("rule", H.rule))
    order = dataclasses.replace(HORD, sign=counted("sign", HORD.sign))
    a, b = zb("b1 z^-1 b2 z z^-2 b3 z^2"), zb("z^-2 b3 z^2 b1 z^-1 b2 z")
    assert traffic(zb_compare, zb("b1"), zb("z b2 z^-1"), order, base) == (
        ("LT", "value", 0), {"sign": 1})
    assert traffic(zb_compare, a, b, order, base) == (
        ("EQ", "equal", None), {"sign": 3, "rule": 3})
    assert traffic(zb_compare, zb("b1 b2 b1^-1 b2^-1 z^-1 b3 z"), zb(""), order, base) == (
        ("GT", "value", 2), {"sign": 2, "rule": 1})
    e1, e2 = (FSElement.from_word(twogen.generator_word(i)) for i in (1, 2))
    assert traffic(fs_compare, e2, e1, order, base) == (("LT", "value", 1), {"sign": 1})
    assert traffic(fs_compare, e2 * e1, e1 * e2, order, base) == (
        ("EQ", "equal", None), {"sign": 2, "rule": 2})
    insep = dataclasses.replace(INSEP, rule=counted("rule", INSEP.rule))
    adapted = dataclasses.replace(PAIR_ORDER, sign=counted("sign", PAIR_ORDER.sign))
    lifted = lifted_order(insep, adapted)
    assert traffic(separator, 1, lifted) == (True, {"sign": 2})
    assert traffic(separator, 2, lifted) == (False, {"sign": 2})


def test_an_eq_compare_walks_each_point_once(monkeypatch):
    # The lifted sign confirms its own zero signs, so an EQ compare walks the
    # inner difference once, and the outer one once per collision point,
    # with no second walk through the stage's is_trivial.
    walks: Counter = Counter()
    walk = wreath._walk

    def counted(*args):
        walks["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(wreath, "_walk", counted)
    a, b = zb("b1 z^-1 b2 z z^-2 b3 z^2"), zb("z^-2 b3 z^2 b1 z^-1 b2 z")
    assert zb_compare(a, b, HORD, H) == ("EQ", "equal", None)
    assert walks == {"walk": 1}
    # Commutators of f-conjugates whose classes meet on b letters only, so
    # trivial over an abelian base, with five collision points in all.
    u = FSElement.identity()
    for g, h in ((4, 2), (5, 3), (4, 8)):
        p, q = FSElement(((g, 1),)), FSElement(((h, 1),))
        u = u * p * q * ~p * ~q
    assert twogen.collision_points(u) == [-4, -3, -2, -1, 0]
    v = fs("f s^2 f")
    for lhs, rhs in ((u, FSElement.identity()), (u * v, v)):
        walks.clear()
        assert fs_compare(lhs, rhs, HORD, H) == ("EQ", "equal", None)
        assert walks == {"walk": 5}


def late_difference(rng) -> FSElement:
    """Commutators of single ``f``-conjugates.  All but one meet only on
    ``b`` letters, at points below ``mu0``, where the values commute in an
    abelian base; the last meets a ``z`` letter at ``mu0``.  So a compare of
    ``a`` with ``~d * a`` walks past trivial collision points first."""
    mu0 = rng.randrange(0, 10)
    pairs = []
    for _ in range(rng.randrange(2, 5)):
        mu, q = rng.randrange(-6, mu0), rng.randrange(1, 4)
        pairs.append(((1 << (q + rng.randrange(1, 3))) - mu, (1 << q) - mu))
    pairs.append((1 - mu0, (1 << rng.randrange(1, 4)) - mu0))
    rng.shuffle(pairs)
    out = FSElement.identity()
    for g, h in pairs:
        u, v = FSElement(((g, rng.choice([-1, 1])),)), FSElement(((h, rng.choice([-1, 1])),))
        out = out * u * v * ~u * ~v
    return out


def adapted_vector(word: Word) -> dict[int, int]:
    return pair_basis_vector(exponent_vector(word), PAIR)


@pytest.mark.parametrize(
    "H, H_order, vector",
    [(H, HORD, exponent_vector), (INSEP, PAIR_ORDER, adapted_vector)],
    ids=["free-abelian", "insep:mock-odd-even"],
)
def test_compares_match_route_through_min_support(H, H_order, vector):
    # b has another tail, equals a (times a commutator of two conjugates
    # whose shift difference is not 2^p - 1, trivial in an abelian base),
    # differs from a by a late_difference, or is random with a's tail.
    # The inner compares are those of the values at a's and b's support
    # candidates, where the tails differ, the values differ, or both agree.
    rng = random.Random(111)
    lifted = lifted_order(H, H_order)
    seen = Counter()
    for _ in range(400):
        a = random_fs_element(rng)
        kind = rng.randrange(4)
        if kind == 0:
            b = random_fs_element(rng) * FSElement((), rng.choice([-1, 1]))
        elif kind == 1:
            g = rng.randrange(-8, 9)
            u, v = FSElement(((g, 1),)), FSElement(((g + rng.choice([2, 4, 5, 6, 8]), 1),))
            b = a * u * v * ~u * ~v
        elif kind == 2:
            b = ~late_difference(rng) * a
        else:
            b = FSElement(random_fs_element(rng).factors, a.tail)
        verdict = fs_compare(a, b, H_order, H)
        assert verdict == ref.fs_compare_by_min_support(a, b, vector, H), (a, b)
        assert lifted.compare(a.to_word(), b.to_word()) == verdict[0], (a, b)
        clause, point = verdict[1:]
        candidates = twogen._support_points(a * ~b)
        if clause == "value" and candidates.index(point) >= 2:
            clause = "late"
        seen[clause] += 1
        for mu in candidates:
            u, v = twogen.value_at(a, mu), twogen.value_at(b, mu)
            inner = zb_compare(u, v, H_order, H)
            assert inner == ref.zb_compare_by_min_support(u, v, vector, H), (u, v)
            seen["inner " + inner[1]] += 1
    assert seen["tail"] >= 50 and seen["equal"] >= 50 and seen["late"] >= 50, seen
    assert min(seen["inner " + c] for c in ("tail", "value", "equal")) >= 50, seen
    if H is INSEP:
        # The separator's signs: each embedded generator against the identity.
        text, one = {"GT": "+", "EQ": "0", "LT": "-"}, FSElement.identity()
        for e in separation_report(PAIR, 60):
            words = (parse_word(f"a{i}", A_ALPHABET) for i in (2 * e.n - 1, 2 * e.n))
            verdicts = [
                ref.fs_compare_by_min_support(twogen.encode_word(w), one, vector, H) for w in words
            ]
            assert [e.sign_lo, e.sign_hi] == [text[verdict[0]] for verdict in verdicts], e


def sample_words(rng, H, relators) -> list[Word]:
    """Random words over H's alphabet, some of them relators, and the identity."""
    letter = next(iter(H.alphabet.indexed))
    words = [Word.identity(H.alphabet)]
    for _ in range(24):
        runs = [(letter, rng.randrange(1, 7), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        words.append(Word.make(H.alphabet, runs))
    return words + [parse_word(text, H.alphabet) for text in relators]


def sample_fs_elements(rng) -> list[FSElement]:
    """Random elements, commutators of two conjugates of f (trivial over an
    abelian base unless the shifts differ by 2^p - 1) and the identity."""
    out = [FSElement.identity()] + [random_fs_element(rng, 4, 5, 2, 2) for _ in range(16)]
    for _ in range(6):
        g = rng.randrange(-5, 6)
        u, v = FSElement(((g, 1),)), FSElement(((g + rng.choice([1, 2, 3, 4]), 1),))
        out.append(u * v * ~u * ~v)
    return out


CONE_CASES = {
    "free-abelian": (H, HORD, ["x2 x3 x2^-1 x3^-1"]),
    "insep:mock-odd-even": (INSEP, PAIR_ORDER, ["a2 a1^-2", "a4 a3^2", "a6^2 a5^-4"]),
}


@pytest.mark.parametrize("case", CONE_CASES)
def test_bundled_orders_and_their_lifts_are_cones(case):
    H, H_order, relators = CONE_CASES[case]
    rng = random.Random(12)
    words = sample_words(rng, H, relators)
    report = check_cone(
        words, lambda w: H_order.sign(exponent_vector(w)), lambda w: H.check(w, 0).trivial
    )
    assert report.ok and report.checked > 1000, report
    assert any(H.check(w, 0).trivial for w in words[1:])
    lifted = lifted_order(H, H_order)
    elements = sample_fs_elements(rng)
    report = check_cone(elements, lifted.sign, lambda a: twogen.is_trivial(a, H))
    assert report.ok and report.checked > 500, report
    assert any(twogen.is_trivial(a, H) for a in elements[1:])


def test_cone_check_flags_the_negative_control():
    # Every nonzero adapted vector is positive, so an element and its
    # inverse share a sign, and their product, the identity, is not positive.
    rng = random.Random(13)
    words = sample_words(rng, INSEP, CONE_CASES["insep:mock-odd-even"][2])
    rule = norm_first_order(PAIR)
    report = check_cone(
        words, lambda w: rule.sign(exponent_vector(w)), lambda w: INSEP.check(w, 0).trivial
    )
    assert {v.axiom for v in report.violations} == {"inverse", "product"}


class TestTransport:
    def test_shifted_injection(self):
        images = {i: x(f"x{i + 1}") for i in range(1, 7)}
        rng = random.Random(7)
        for _ in range(100):
            u, v = random_x_word(rng), random_x_word(rng)
            shifted_u = Word.make(X_ALPHABET, [("x", i + 1, e) for _, i, e in u.runs])
            shifted_v = Word.make(X_ALPHABET, [("x", i + 1, e) for _, i, e in v.runs])
            assert transport_less(u, v, images, lex_order()) == lex_less(shifted_u, shifted_v)

    def test_transport_through_embedding_agrees_with_lex(self):
        # Substituting each generator by its embedded word and comparing in
        # the lifted order must reproduce the base order.
        order = lifted_order(H, HORD)
        images = {i: twogen.generator_word(i) for i in range(1, 6)}
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
            sample, relation, lambda w: twogen.is_trivial(FSElement.from_word(w), H), n_max=3
        )
        assert report.ok


def test_report_is_frozen_dataclass():
    report = OrderAxiomReport(0, ())
    assert report.ok
