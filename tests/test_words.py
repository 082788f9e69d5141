import random
import string
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathembed import machines, reductions, twogen, wreath
from wreathembed.base_groups import halting_pair, insep_oracle, mock_pair, prime
from wreathembed.orders import lifted_order, pair_adapted_order
from wreathembed.words import (
    A_ALPHABET,
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Alphabet,
    Word,
    WordError,
    _at_least,
    int_text,
    max_digits,
    parse_word,
    word_to_text,
)

from reference_scans import parse_word_by_tokens


def zb_runs() -> st.SearchStrategy[tuple]:
    exps = st.integers(min_value=-5, max_value=5)
    plain = st.tuples(st.just("z"), st.none(), exps)
    indexed = st.tuples(st.just("b"), st.integers(min_value=1, max_value=9), exps)
    return st.one_of(plain, indexed)


zb_words = st.lists(zb_runs(), max_size=12).map(lambda runs: Word.make(ZB_ALPHABET, runs))


class TestCanonicalForm:
    def test_adjacent_runs_merge(self):
        w = parse_word("b1 b1", ZB_ALPHABET)
        assert w.runs == (("b", 1, 2),)

    def test_cancellation_cascades(self):
        w = parse_word("b1 b2 b2^-1 b1^-1", ZB_ALPHABET)
        assert w.is_identity()

    def test_distinct_gens_do_not_merge(self):
        w = parse_word("b1 b2", ZB_ALPHABET)
        assert len(w.runs) == 2

    def test_zero_exponent_dropped(self):
        w = parse_word("z^0 b1", ZB_ALPHABET)
        assert w.runs == (("b", 1, 1),)


class TestParse:
    def test_plain_and_indexed(self):
        w = parse_word("f s^-1", FS_ALPHABET)
        assert w.runs == (("f", None, 1), ("s", None, -1))

    def test_empty_text_is_identity(self):
        assert parse_word("", FS_ALPHABET).is_identity()
        assert parse_word("   ", FS_ALPHABET).is_identity()

    def test_signed_exponent(self):
        w = parse_word("x3^+4", X_ALPHABET)
        assert w.runs == (("x", 3, 4),)

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


def test_power_of_one_run_merges_it_at_once():
    # Repeated squaring: a millionth power costs about forty products, not a
    # million, and ends in the one merged run.
    start = time.perf_counter()
    x1 = parse_word("x1", X_ALPHABET)
    assert x1**10**6 == Word(X_ALPHABET, (("x", 1, 10**6),))
    assert x1 ** -(10**6) == Word(X_ALPHABET, (("x", 1, -(10**6)),))
    assert wreath.ZBElement(((1, 0, 1),)) ** 10**6 == wreath.ZBElement(((1, 0, 10**6),))
    assert time.perf_counter() - start < 1


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
        runs = []
        for _ in range(rng.randrange(0, 10)):
            letter = rng.choice(sorted(alphabet.plain | alphabet.indexed))
            index = rng.randrange(1, 30) if letter in alphabet.indexed else None
            runs.append((letter, index, rng.choice([-3, -2, -1, 1, 2, 3])))
        w = Word.make(alphabet, runs)
        assert parse_word(word_to_text(w), alphabet) == w


def test_alphabet_mismatch_rejected():
    with pytest.raises(WordError):
        parse_word("x1", X_ALPHABET) * parse_word("a1", A_ALPHABET)


def test_alphabets_compare_by_identity():
    # Equal fields make a second alphabet, not a second name for the first.
    twin = Alphabet(ZB_ALPHABET.name, ZB_ALPHABET.plain, ZB_ALPHABET.indexed)
    assert twin != ZB_ALPHABET
    with pytest.raises(WordError, match="^cannot multiply words over different alphabets$"):
        parse_word("z b1", twin) * parse_word("z b1", ZB_ALPHABET)


def test_package_alphabets_equal_themselves_and_hash_stably():
    alphabets = [X_ALPHABET, A_ALPHABET, ZB_ALPHABET, FS_ALPHABET]
    for alphabet in alphabets:
        assert alphabet == alphabet and not alphabet != alphabet
        assert hash(alphabet) == hash(alphabet) == object.__hash__(alphabet)
    assert len(set(alphabets)) == 4
    assert {alphabet: alphabet.name for alphabet in alphabets}[ZB_ALPHABET] == "inner-wreath"
    assert hash(parse_word("z b1", ZB_ALPHABET)) == hash(parse_word("z b1", ZB_ALPHABET))


def test_alphabet_letters_are_single_lowercase_and_of_one_kind():
    with pytest.raises(WordError, match="one lowercase char"):
        Alphabet("bad", plain=frozenset({"ab"}))
    with pytest.raises(WordError, match="one lowercase char"):
        Alphabet("bad", indexed=frozenset({"é"}))  # would print terms parse_word rejects
    with pytest.raises(WordError, match="both plain and indexed"):
        Alphabet("bad", plain=frozenset({"a"}), indexed=frozenset({"a"}))


def test_invert_of_parse_example():
    w = parse_word("f s^2", FS_ALPHABET)
    assert word_to_text(~w) == "s^-2 f^-1"


def test_overlong_numbers_are_positioned_word_errors(int_text_limit):
    # Past max_digits(): Python's integer-to-text limit, 4300 digits by
    # default, and the same 4300 when the limit is off.
    with pytest.raises(WordError) as exc:
        parse_word("z^" + "9" * 4400, ZB_ALPHABET)
    assert exc.value.position == 1
    assert "too many digits" in str(exc.value)


def test_digit_bound_is_exact(int_text_limit):
    assert max_digits() == 4300
    nines = "9" * 4300
    assert parse_word(f"b{nines}^-{nines}", ZB_ALPHABET).runs == (("b", int(nines), -int(nines)),)
    assert parse_word(f"z^+{nines}", ZB_ALPHABET).runs == (("z", None, int(nines)),)
    for text in (f"z b{nines}9", f"z b1^{nines}9", f"z z^-{nines}9", f"z z^+0{nines}"):
        with pytest.raises(WordError, match="^column 3: index or exponent has too many digits$"):
            parse_word(text, ZB_ALPHABET)
        assert _outcome(parse_word_by_tokens, text, ZB_ALPHABET) == (
            "column 3: index or exponent has too many digits", 3
        )


TOO_LONG = "^the result holds an integer of more than 4300 decimal digits, too long to print$"


def test_int_text_bound_is_exact(int_text_limit):
    # The same 4300 digits whether Python's limit is at its default or off;
    # a minus sign is not counted, and Python's own message never shows.
    nines = 10**4300 - 1
    assert int_text(nines) == "9" * 4300
    assert int_text(-nines) == "-" + "9" * 4300
    for n in (nines + 1, -nines - 1):
        with pytest.raises(ValueError, match=TOO_LONG) as exc:
            int_text(n)
        assert "Exceeds the limit" not in str(exc.value)


def test_int_text_refuses_a_million_digits_at_once(int_text_limit):
    # The bit length refuses it before any conversion to text.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=TOO_LONG):
        int_text(1 << 3_400_000)
    assert time.perf_counter() - start < 1


def test_word_to_text_bounds_each_integer(int_text_limit):
    # A word built in the library, not parsed, still prints through the bound.
    nines = Word.make(ZB_ALPHABET, [("z", None, -(10**4300 - 1))])
    assert word_to_text(nines) == "z^-" + "9" * 4300
    for runs in ([("z", None, 10**4300)], [("b", 10**4300, 1)]):
        with pytest.raises(ValueError, match=TOO_LONG):
            word_to_text(Word.make(ZB_ALPHABET, runs))


# -- one range check for every integer argument ---------------------------------

_MOCK = mock_pair()
_ORDER = lifted_order(insep_oracle(_MOCK), pair_adapted_order(_MOCK))

# Each range-checked entry point: (call on one integer, least value allowed,
# message with ``{}`` for the value).
RANGE_CHECKS = {
    "validate": (lambda n: X_ALPHABET.validate("x", n), 1, "index must be >= 1, got x{}"),
    "Word.make": (lambda n: Word.make(A_ALPHABET, [("a", n, 1)]), 1,
                  "index must be >= 1, got a{}"),
    "ZBElement.make": (lambda n: wreath.ZBElement.make([(n, 0, 1)]), 1,
                       "index must be >= 1, got b{}"),
    "value_at": (lambda n: wreath.value_at(wreath.ZBElement(((n, 5, 1),)), 0), 1,
                 "index must be >= 1, got x{}"),
    "prime": (prime, 1, "prime index must be >= 1, got {}"),
    "mock enum_n": (_MOCK.enum_n, 1, "enumeration index must be >= 1, got {}"),
    "mock enum_m": (_MOCK.enum_m, 1, "enumeration index must be >= 1, got {}"),
    "halting enum_n": (lambda n: halting_pair().enum_n(n), 1,
                       "enumeration index must be >= 1, got {}"),
    "halting enum_m": (lambda n: halting_pair().enum_m(n), 1,
                       "enumeration index must be >= 1, got {}"),
    "dovetail halting": (lambda n: machines.DovetailEnumeration().halting(n), 1,
                         "enumeration index must be >= 1, got {}"),
    "index_to_program": (machines.index_to_program, 0, "program index must be >= 0, got {}"),
    "run_status steps": (lambda n: machines.run_status((), n), 0,
                         "max_steps must be >= 0, got {}"),
    "run_status code": (lambda n: machines.run_status((n,), 1), 0,
                        "instruction code must be >= 0, got {}"),
    "program_to_index": (lambda n: machines.program_to_index((n,)), 0,
                         "instruction code must be >= 0, got {}"),
    "program_to_text": (lambda n: machines.program_to_text((n,)), 0,
                        "instruction code must be >= 0, got {}"),
    "generator_word": (twogen.generator_word, 1, "generator index must be >= 1, got {}"),
    "encode_word": (lambda n: twogen.encode_word(Word(X_ALPHABET, (("x", n, 1),))), 1,
                    "generator index must be >= 1, got {}"),
    "separator": (lambda n: reductions.separator(n, _ORDER), 1, "index must be >= 1, got {}"),
    "merge_probe": (lambda n: reductions.merge_probe(n, _MOCK.enum_n, 1), 1,
                    "index must be >= 1, got {}"),
}


@pytest.mark.parametrize("name", RANGE_CHECKS)
def test_each_range_check_names_the_value_within_the_bound(name, int_text_limit):
    call, least, message = RANGE_CHECKS[name]
    call(least)
    for n, shown in ((least - 1, least - 1), (-(10**5000), "<more than 4300 digits>")):
        with pytest.raises(ValueError) as exc:
            call(n)
        assert str(exc.value) == message.format(shown)
        assert "Exceeds the limit" not in str(exc.value)


def test_range_check_shows_a_value_up_to_the_bound(int_text_limit):
    nines = 10**4300 - 1
    with pytest.raises(ValueError, match=f"^n must be >= 0, got -{nines}$"):
        _at_least(-nines, 0, "n")
    for n in (-nines - 1, -(1 << 3_400_000)):  # 4 301 and about a million digits
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^n must be >= 0, got <more than 4300 digits>$"):
            _at_least(n, 0, "n")
        assert time.perf_counter() - start < 1  # not converted to text in full
    assert _at_least(5, 5, "n") == 5


# -- the one-pass tokenizer against the token-by-token parser ------------------

ALPHABETS = [X_ALPHABET, A_ALPHABET, ZB_ALPHABET, FS_ALPHABET]
# Single characters that may break a term: letters of either case, ASCII and
# non-ASCII digits (Arabic-Indic three, fullwidth zero, superscript two,
# Devanagari nine), the exponent marks, and ASCII and non-ASCII whitespace.
NOISE = (
    string.ascii_lowercase + "AZBX" + string.digits + "\u0663\uff10\u00b2\u096f" + "^+-"
    + " \t\n\u00a0\u2003"
)
SPACES = [" ", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]


def _outcome(parse, text, alphabet):
    # The parsed word, or the error text and column.
    try:
        return parse(text, alphabet)
    except WordError as exc:
        return str(exc), exc.position


def _random_text(rng: random.Random, alphabet: Alphabet) -> str:
    # Terms that are mostly well formed, noise, and mixed whitespace.
    letters = sorted(alphabet.plain | alphabet.indexed)
    pieces = [rng.choice(SPACES)] if rng.random() < 0.2 else []
    for _ in range(rng.randrange(0, 8)):
        if rng.random() < 0.85:
            term = rng.choice(letters if rng.random() < 0.95 else string.ascii_lowercase)
            if rng.random() < (0.95 if term in alphabet.indexed else 0.05):
                term += str(rng.randrange(0, 40))
            if rng.random() < 0.4:
                term += "^" + rng.choice(["", "+", "-"]) + str(rng.randrange(0, 10))
            if rng.random() < 0.05:
                term += rng.choice(NOISE)
        else:
            term = "".join(rng.choice(NOISE) for _ in range(rng.randrange(1, 4)))
        pieces += [term, rng.choice(SPACES)]
    return "".join(pieces)


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: a.name)
def test_parse_matches_token_by_token_parser(alphabet):
    rng = random.Random(f"parse-{alphabet.name}")
    kinds = {Word: 0, tuple: 0}
    for _ in range(20_000):
        text = _random_text(rng, alphabet)
        got = _outcome(parse_word, text, alphabet)
        assert got == _outcome(parse_word_by_tokens, text, alphabet), repr(text)
        kinds[type(got)] += 1
    # Both the words and the errors are well represented.
    assert min(kinds.values()) > 4_000, kinds


def test_parse_matches_token_by_token_parser_on_large_texts():
    rng = random.Random(16)
    long_index = "z b" + "1" * 4400 + " z"
    runs = []
    for _ in range(8_000):
        if rng.random() < 0.5:
            runs.append(f"z^{rng.randrange(-10**6, 10**6)}")
        else:
            runs.append(f"b{rng.randrange(1, 10**9)}^{rng.randrange(-10**6, 10**6)}")
    long_word = " ".join(runs)
    assert len(long_word) > 100_000
    for text in (long_index, long_word, long_word + " q1", long_word + " " + long_index):
        got = _outcome(parse_word, text, ZB_ALPHABET)
        assert got == _outcome(parse_word_by_tokens, text, ZB_ALPHABET)
    assert _outcome(parse_word, long_index, ZB_ALPHABET) == (
        "column 3: index or exponent has too many digits",
        3,
    )
    assert isinstance(_outcome(parse_word, long_word, ZB_ALPHABET), Word)


def _long_text(rng: random.Random, alphabet: Alphabet, bound: int) -> str:
    # Well-formed terms past ``bound`` characters, some texts with one noisy
    # piece and some with an index or exponent of ``bound`` or ``bound + 1`` digits.
    letters = sorted(alphabet.plain | alphabet.indexed)
    terms: list[str] = []
    size = 0
    while size <= bound:
        letter = rng.choice(letters)
        term = letter + (str(rng.randrange(1, 10**6)) if letter in alphabet.indexed else "")
        if rng.random() < 0.4:
            term += "^" + rng.choice(["", "+", "-"]) + str(rng.randrange(0, 10**4))
        terms.append(term)
        size += len(term) + 1
    if rng.random() < 0.3:
        terms.insert(rng.randrange(len(terms) + 1), _random_text(rng, alphabet) or "b0")
    if rng.random() < 0.6:
        digits = rng.choice("123456789") + "".join(
            rng.choices(string.digits, k=rng.choice((bound, bound + 1)) - 1)
        )
        letter = rng.choice(letters)
        if rng.random() < 0.5:
            term = letter + digits
        else:
            term = letter + ("1" if letter in alphabet.indexed else "")
            term += "^" + rng.choice(["", "+", "-"]) + digits
        terms.insert(rng.randrange(len(terms) + 1), term)
    return "".join(piece + rng.choice(SPACES) for piece in terms)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no integer-to-text limit"
)
@pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: a.name)
def test_parse_matches_token_by_token_parser_at_the_smallest_digit_limit(alphabet):
    # At the smallest limit CPython accepts every text here is longer than the
    # bound, so each term is checked against it, and some numbers reach it.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rng = random.Random(f"parse-640-{alphabet.name}")
        kinds = {Word: 0, "too many digits": 0, "other error": 0}
        longest = 0
        for _ in range(1_000):
            text = _long_text(rng, alphabet, 640)
            assert len(text) > 640
            got = _outcome(parse_word, text, alphabet)
            assert got == _outcome(parse_word_by_tokens, text, alphabet), repr(text)
            if isinstance(got, Word):
                kinds[Word] += 1
                numbers = [n for _, i, e in got.runs for n in (i or 0, e)]
                longest = max([longest] + [len(str(abs(n))) for n in numbers])
            else:
                kinds["too many digits" if "too many digits" in got[0] else "other error"] += 1
        assert min(kinds.values()) > 100, kinds
        assert longest == 640
    finally:
        sys.set_int_max_str_digits(saved)
