import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Gen,
    Word,
    WordError,
    parse_word,
    word_to_text,
)


def zb_gens() -> st.SearchStrategy[Gen]:
    plain = st.just(Gen("z", None))
    indexed = st.integers(min_value=1, max_value=9).map(lambda i: Gen("b", i))
    return st.one_of(plain, indexed)


zb_words = st.lists(
    st.tuples(zb_gens(), st.integers(min_value=-5, max_value=5)), max_size=12
).map(lambda pairs: Word.make(ZB_ALPHABET, pairs))


class TestCanonicalForm:
    def test_adjacent_runs_merge(self):
        w = parse_word("b1 b1", ZB_ALPHABET)
        assert w.runs == ((Gen("b", 1), 2),)

    def test_cancellation_cascades(self):
        w = parse_word("b1 b2 b2^-1 b1^-1", ZB_ALPHABET)
        assert w.is_identity()

    def test_distinct_gens_do_not_merge(self):
        w = parse_word("b1 b2", ZB_ALPHABET)
        assert len(w.runs) == 2

    def test_zero_exponent_dropped(self):
        w = parse_word("z^0 b1", ZB_ALPHABET)
        assert w.runs == ((Gen("b", 1), 1),)


class TestParse:
    def test_plain_and_indexed(self):
        w = parse_word("f s^-1", FS_ALPHABET)
        assert w.runs == ((Gen("f", None), 1), (Gen("s", None), -1))

    def test_empty_text_is_identity(self):
        assert parse_word("", FS_ALPHABET).is_identity()
        assert parse_word("   ", FS_ALPHABET).is_identity()

    def test_signed_exponent(self):
        w = parse_word("x3^+4", X_ALPHABET)
        assert w.runs == ((Gen("x", 3), 4),)

    def test_unknown_letter_reports_position(self):
        with pytest.raises(WordError) as err:
            parse_word("x1 q2", X_ALPHABET)
        assert err.value.position == 4

    def test_plain_letter_rejects_index(self):
        with pytest.raises(WordError):
            parse_word("f1", FS_ALPHABET)

    def test_indexed_letter_requires_index(self):
        with pytest.raises(WordError):
            parse_word("x", X_ALPHABET)

    def test_index_zero_rejected(self):
        with pytest.raises(WordError):
            parse_word("x0", X_ALPHABET)

    def test_malformed_term(self):
        with pytest.raises(WordError) as err:
            parse_word("b1 b2^", ZB_ALPHABET)
        assert err.value.position == 4

    def test_garbage_suffix_rejected(self):
        with pytest.raises(WordError):
            parse_word("x1^2y", X_ALPHABET)


class TestPrint:
    def test_exponent_one_is_implicit(self):
        assert word_to_text(parse_word("f^1 s^2", FS_ALPHABET)) == "f s^2"

    def test_identity_prints_empty(self):
        assert word_to_text(Word.identity(X_ALPHABET)) == ""


@given(zb_words)
def test_parse_print_roundtrip(w):
    assert parse_word(word_to_text(w), ZB_ALPHABET) == w


@given(zb_words, zb_words, zb_words)
def test_concat_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(zb_words)
def test_inverse_cancels(w):
    assert (w * ~w).is_identity()
    assert (~w * w).is_identity()


@given(zb_words, st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_product(w, n):
    expected = Word.identity(ZB_ALPHABET)
    step = w if n >= 0 else ~w
    for _ in range(abs(n)):
        expected = expected * step
    assert w**n == expected


@given(zb_words)
def test_free_reduce_is_identity_on_canonical(w):
    # Re-canonicalizing a canonical word's runs changes nothing.
    assert Word.make(w.alphabet, w.runs) == w


def test_roundtrip_bulk_random():
    # Deterministic volume check over mixed alphabets.
    rng = random.Random(20260814)
    alphabets = [X_ALPHABET, A_ALPHABET, ZB_ALPHABET, FS_ALPHABET]
    for _ in range(10_000):
        alphabet = rng.choice(alphabets)
        pairs = []
        for _ in range(rng.randrange(0, 10)):
            letter = rng.choice(sorted(alphabet.plain | alphabet.indexed))
            index = rng.randrange(1, 30) if letter in alphabet.indexed else None
            pairs.append((Gen(letter, index), rng.choice([-3, -2, -1, 1, 2, 3])))
        w = Word.make(alphabet, pairs)
        assert parse_word(word_to_text(w), alphabet) == w


def test_alphabet_mismatch_rejected():
    with pytest.raises(WordError):
        parse_word("x1", X_ALPHABET) * parse_word("a1", A_ALPHABET)


def test_invert_of_parse_example():
    w = parse_word("f s^2", FS_ALPHABET)
    assert word_to_text(~w) == "s^-2 f^-1"


def test_overlong_numbers_are_positioned_word_errors():
    # Past Python's integer-to-text limit (4300 digits by default).
    with pytest.raises(WordError) as exc:
        parse_word("z^" + "9" * 4400, ZB_ALPHABET)
    assert exc.value.position == 1
    assert "too many digits" in str(exc.value)
