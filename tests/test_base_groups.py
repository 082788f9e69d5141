import gc
import os
import random
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    check,
    free_abelian_trivial,
    insep_trivial,
    insep_trivial_bruteforce,
    re_check_by_scan,
)
from wreathembed import base_groups, machines
from wreathembed.base_groups import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    EnumeratedPair,
    SemiVerdict,
    _prime_index,
    exponent_vector,
    free_abelian_oracle,
    halting_pair,
    insep_oracle,
    mock_pair,
    pair_basis_vector,
    prime,
    re_oracle,
)
from wreathembed.orders import pair_adapted_order
from wreathembed.reductions import merge_probe
from wreathembed.words import A_ALPHABET, FS_ALPHABET, X_ALPHABET, Word, parse_word


def a_word(text: str) -> Word:
    return parse_word(text, A_ALPHABET)


def random_a_word(rng: random.Random, max_letters: int = 40, max_index: int = 20) -> Word:
    runs = []
    for _ in range(rng.randrange(0, max_letters + 1)):
        runs.append(("a", rng.randrange(1, max_index + 1), rng.choice([-1, 1])))
    return Word.make(A_ALPHABET, runs)


def sparse_pair() -> EnumeratedPair:
    """N = {4, 8, ...}, M = {6, 10, ...}; every other coordinate pair is free."""

    def classify(k: int):
        if k >= 4 and k % 4 == 0:
            return ("n", k // 4)
        if k >= 6 and k % 4 == 2:
            return ("m", (k - 2) // 4)
        return ("free", None)

    return EnumeratedPair(
        name="sparse", enum_n=lambda i: 4 * i, enum_m=lambda i: 4 * i + 2, classify=classify
    )


def relator_product_word(rng: random.Random, pair: EnumeratedPair) -> Word:
    """A product of relator multiples ``a(2k)^t a(2k-1)^(-+p_i t)``, with a
    little random noise on every other word."""
    runs = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(2, 6)  # p_i > 2
        side = rng.choice("nm")
        k = (pair.enum_n if side == "n" else pair.enum_m)(i)
        t = rng.choice([-2, -1, 1, 2])
        q = prime(i) if side == "n" else -prime(i)
        runs += [("a", 2 * k, t), ("a", 2 * k - 1, -q * t)]
    rng.shuffle(runs)
    word = Word.make(A_ALPHABET, runs)
    if rng.random() < 0.5:
        word = word * random_a_word(rng, max_letters=3, max_index=2 * pair.enum_m(6))
    return word


def test_semi_verdict_has_three_exclusive_members_named_as_the_cli_prints_them():
    assert list(SemiVerdict) == [TRIVIAL, NONTRIVIAL, UNKNOWN]
    for verdict in SemiVerdict:
        flags = (verdict.trivial, verdict.nontrivial, verdict is UNKNOWN)
        assert all(type(flag) is bool for flag in flags)
        assert flags.count(True) == 1
    assert [v.value for v in SemiVerdict] == ["TRIVIAL", "NONTRIVIAL", "UNKNOWN"]
    assert (TRIVIAL.trivial, NONTRIVIAL.nontrivial) == (True, True)


class TestPrimes:
    def test_first_primes(self):
        # Independent fixed table.
        assert [prime(i) for i in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_twenty_thousandth_prime(self):
        assert prime(20000) == 224737

    def test_prime_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime(0)

    def test_prime_index_grows_the_list_past_fermat_pseudoprimes(self, monkeypatch):
        primes = [2, 3]
        monkeypatch.setattr(base_groups, "_primes", primes)
        # 341 = 11 * 31 and 561 = 3 * 11 * 17 pass the base-2 Fermat test,
        # so only the grown list tells them from primes.
        assert _prime_index(341) is None
        assert len(primes) > 2
        assert _prime_index(561) is None
        assert _prime_index(563) == 103

    def test_threads_read_the_list_as_a_sequential_run_does(self, monkeypatch):
        # The list only grows, and only under the lock, so a read of a prefix
        # it already holds takes no lock; four threads switching often must
        # still answer, and leave the list, as one thread asking in turn does.
        ks = range(1, 2001)
        monkeypatch.setattr(base_groups, "_primes", [2, 3])
        expected = {k: (prime(k), _prime_index(prime(k))) for k in ks}
        sequential = list(base_groups._primes)
        monkeypatch.setattr(base_groups, "_primes", [2, 3])
        answers: list[dict] = [{} for _ in range(4)]
        start = threading.Barrier(4, timeout=60)

        def ask(out: dict, seed: int) -> None:
            order = list(ks)
            random.Random(seed).shuffle(order)
            start.wait()
            for k in order:
                p = prime(k)
                out[k] = (p, _prime_index(p))

        threads = [threading.Thread(target=ask, args=(out, t)) for t, out in enumerate(answers)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 4
        assert base_groups._primes == sequential
        assert expected[2000] == (17389, 2000)


def test_a_large_prime_ratio_is_indexed_in_a_fresh_interpreter_within_five_seconds():
    # 10 000 019 is the 664 580-th prime.  Listing the primes up to it by trial
    # division, one candidate at a time, took about half a minute.  The sieve
    # takes one segment of at most 2**21 numbers at a time, so the list ends
    # within one segment past the prime looked up: a doubling segment would
    # run from just below 10 200 007 to past 20 000 000.  A fresh interpreter
    # starts from [2, 3].
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    code = (
        "from wreathembed.base_groups import _prime_index, _primes\n"
        "print(_prime_index(10_000_019), _prime_index(10_200_007), _primes[-1])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert done.returncode == 0, done.stderr
    first, second, last = map(int, done.stdout.split())
    assert (first, second) == (664_580, 676_971)
    assert 10_200_007 <= last <= 10_200_007 + 2**21


class TestFreeAbelian:
    def test_commutator_is_trivial(self):
        w = parse_word("x1 x2 x1^-1 x2^-1", X_ALPHABET)
        assert free_abelian_trivial(w)

    def test_single_generator_is_not(self):
        assert not free_abelian_trivial(parse_word("x3", X_ALPHABET))

    def test_exponent_vector(self):
        w = parse_word("x2^3 x1 x2^-1", X_ALPHABET)
        assert exponent_vector(w) == {1: 1, 2: 2}

    def test_exponent_vector_rejects_letter_without_index(self):
        with pytest.raises(ValueError, match="carries no index"):
            exponent_vector(parse_word("f", FS_ALPHABET))

    def test_oracle_is_total(self):
        oracle = free_abelian_oracle()
        assert oracle.total
        assert check(oracle, parse_word("x1 x1^-1", X_ALPHABET), 0).trivial
        assert check(oracle, parse_word("x1", X_ALPHABET), 0).nontrivial


class TestMockPair:
    def test_enumerations(self):
        pair = mock_pair()
        assert [pair.enum_n(i) for i in (1, 2, 3)] == [1, 3, 5]
        assert [pair.enum_m(i) for i in (1, 2, 3)] == [2, 4, 6]

    def test_classify(self):
        pair = mock_pair()
        assert pair.classify(5) == ("n", 3)
        assert pair.classify(4) == ("m", 2)
        assert pair.classify(0) == ("free", None)


class TestInsepDecider:
    def test_relator_n_side(self):
        # First pair (k = 1 in N, p = 2): a2 = a1^2.
        pair = mock_pair()
        assert insep_trivial(a_word("a2 a1^-2"), pair)
        assert not insep_trivial(a_word("a2 a1^-1"), pair)

    def test_relator_m_side(self):
        # First M pair (k = 2, p = 2): a4 = a3^-2.
        pair = mock_pair()
        assert insep_trivial(a_word("a4 a3^2"), pair)
        assert not insep_trivial(a_word("a4 a3^-2"), pair)

    def test_free_coordinates_never_cancel(self):
        # With the odd-even mock no coordinate is free, so use a sparser pair.
        sparse = sparse_pair()
        assert not insep_trivial(a_word("a1 a2^-1"), sparse)
        assert insep_trivial(a_word("a8 a7^-2"), sparse)  # k=4 is N's first member, p=2

    def test_bruteforce_matches_examples(self):
        pair = mock_pair()
        for text in ("a2 a1^-2", "a2 a1^-1", "a4 a3^2", "a4 a3^-2", ""):
            w = a_word(text)
            assert insep_trivial(w, pair) == insep_trivial_bruteforce(w, pair)

    @pytest.mark.parametrize("pair", [mock_pair(), sparse_pair()], ids=lambda pair: pair.name)
    def test_bulk_agreement_with_bruteforce(self, pair):
        # Random words are almost never trivial, so half of the words are
        # products of relator multiples, with or without noise.
        rng = random.Random(7)
        verdicts = []
        for j in range(1500):
            w = random_a_word(rng) if j % 2 else relator_product_word(rng, pair)
            verdicts.append(insep_trivial(w, pair))
            assert verdicts[-1] == insep_trivial_bruteforce(w, pair)
        assert 100 < sum(verdicts) < 1400  # both verdicts occur

    def test_multiplicativity_on_trivial_products(self):
        pair = mock_pair()
        rng = random.Random(11)
        for _ in range(300):
            w = random_a_word(rng, max_letters=15, max_index=10)
            assert insep_trivial(w * ~w, pair)

    def test_basis_vector_example(self):
        pair = mock_pair()
        assert pair_basis_vector(exponent_vector(a_word("a4 a3^2")), pair) == {}
        assert pair_basis_vector(exponent_vector(a_word("a3 a4")), pair) == {3: -1}

    def test_adapted_order_needs_a_hint(self):
        order = pair_adapted_order(halting_pair())
        with pytest.raises(ValueError, match="has no membership hint"):
            order.compare(a_word("a1"), a_word("a2"))

    def test_oracle_works_for_halting_pair_without_hint(self):
        oracle = insep_oracle(halting_pair())
        assert oracle.total
        assert check(oracle, a_word("a2 a1^-1"), 0).nontrivial
        assert check(oracle, a_word("a1 a1^-1"), 0).trivial


class TestHaltingPair:
    def test_values_are_positive_and_disjoint(self):
        pair = halting_pair()
        ns = [pair.enum_n(i) for i in range(1, 40)]
        ms = [pair.enum_m(i) for i in range(1, 20)]
        assert all(v >= 1 for v in ns + ms)
        assert len(set(ns)) == len(ns)
        assert not set(ns) & set(ms)

    def test_halt_program_is_enumerated(self):
        # Program number 1 is the single instruction HALT.
        pair = halting_pair()
        assert pair.enum_n(1) == 1

    def test_no_hint(self):
        assert halting_pair().classify is None

    def test_streams_skip_only_the_empty_program(self, monkeypatch):
        enum = machines.DovetailEnumeration()
        monkeypatch.setattr(machines, "_shared", enum)
        pair = halting_pair()
        for i in range(1, 2001):
            assert pair.enum_n(i) == enum.halting(i + 1)
        for i in range(1, 2001):
            assert pair.enum_m(i) == enum.cycling_at(i)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                pair.enum_n(bad)
            with pytest.raises(ValueError):
                pair.enum_m(bad)

    def test_concurrent_readers_see_one_stream(self, monkeypatch):
        # Eight threads read one fresh pair while the interpreter switches
        # between them as often as it can; each must see the serial stream.
        expected = [halting_pair().enum_n(i) for i in range(1, 401)]
        monkeypatch.setattr(machines, "_shared", machines.DovetailEnumeration())
        pair = halting_pair()
        seen: list[list[int]] = [[] for _ in range(8)]

        def read(out: list[int]) -> None:
            out.extend(pair.enum_n(i) for i in range(1, 401))

        threads = [threading.Thread(target=read, args=(out,), daemon=True) for out in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in seen)


def re_semi_trivial(word: Word, enum_n, fuel: int) -> bool:
    """One fueled check on a fresh merge oracle."""
    return check(re_oracle(enum_n), word, fuel).trivial


class TestReSemiDecider:
    def test_merged_pair_becomes_trivial(self):
        enum = mock_pair().enum_n  # 1, 3, 5, ...
        assert not re_semi_trivial(a_word("a2 a1^-1"), enum, fuel=0)
        assert re_semi_trivial(a_word("a2 a1^-1"), enum, fuel=1)

    def test_monotone_in_fuel(self):
        enum = mock_pair().enum_n
        rng = random.Random(13)
        for _ in range(200):
            w = random_a_word(rng, max_letters=12, max_index=8)
            budgets = [0, 1, 2, 4, 8]
            answers = [re_semi_trivial(w, enum, f) for f in budgets]
            assert answers == sorted(answers)  # False may only turn True

    def test_sound_for_unmerged_pairs(self):
        enum = mock_pair().enum_n
        # Coordinates 3,4 merge only via n = 2, which is not enumerated.
        assert not re_semi_trivial(a_word("a4 a3^-1"), enum, fuel=50)

    def test_verdict_ignores_earlier_calls(self):
        oracle = re_oracle(mock_pair().enum_n, name="mock")
        assert check(oracle, a_word("a2 a1^-1"), 5).trivial
        assert check(oracle, a_word("a2 a1^-1"), 0) is UNKNOWN

    def test_oracle_channel(self):
        oracle = re_oracle(mock_pair().enum_n, name="mock")
        assert not oracle.total
        assert check(oracle, a_word("a2 a1^-1"), 3).trivial
        assert check(oracle, a_word("a4 a3^-1"), 3) is UNKNOWN  # never refutes


def merge_words(rng: random.Random, enum_n, fuel: int, count: int) -> list[Word]:
    """Products of one to three multiples ``(a(2k) a(2k-1)^-1)^t``.

    Each k is either enumerated within twice the fuel or drawn at random
    below the largest such value; one word in four gets a stray letter,
    which leaves some pair with a nonzero exponent sum.
    """
    values = [enum_n(i) for i in range(1, 2 * fuel + 1)]
    words = []
    for _ in range(count):
        runs = []
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(values) if rng.random() < 0.7 else rng.randint(1, max(values))
            t = rng.choice([-2, -1, 1, 2])
            runs += [("a", 2 * k, t), ("a", 2 * k - 1, -t)]
        if rng.random() < 0.25:
            runs.append(("a", rng.randint(1, 2 * max(values)), rng.choice([-1, 1])))
        rng.shuffle(runs)
        words.append(Word.make(A_ALPHABET, runs))
    return words


class TestPositionIndex:
    FUEL = 120

    @pytest.mark.parametrize("oracles", [1, 3], ids=["one-oracle", "shared-enum"])
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    @pytest.mark.parametrize("make_pair", [mock_pair, sparse_pair, halting_pair],
                             ids=["mock", "sparse", "halting"])
    def test_matches_the_scan(self, make_pair, order, oracles):
        # A fresh pair starts a fresh index; the fuel order decides how the
        # index grows, and sharing it between oracles must not matter.
        rng = random.Random(f"{make_pair.__name__}-{order}-{oracles}")
        enum_n = make_pair().enum_n
        bases = [re_oracle(enum_n, name=f"re{j}") for j in range(oracles)]
        fuels = [0, 1, 2, 3, 5, 8, 13, 30, 60, self.FUEL]
        queries = [(w, f) for f in fuels for w in merge_words(rng, enum_n, self.FUEL, 40)]
        if order == "decreasing":
            queries.reverse()
        elif order == "shuffled":
            rng.shuffle(queries)
        seen = set()
        for j, (word, fuel) in enumerate(queries):
            verdict = check(bases[j % oracles], word, fuel)
            assert verdict == re_check_by_scan(word, enum_n, fuel), (str(word), fuel)
            seen.add(verdict)
        assert seen == {TRIVIAL, UNKNOWN}

    def test_each_position_is_fetched_once_and_no_further_than_needed(self):
        enum = mock_pair().enum_n  # n = 2i - 1 sits at position i
        fetched: Counter[int] = Counter()

        def counted(i: int) -> int:
            fetched[i] += 1
            return enum(i)

        # Odd n (positions up to 30) get fuel up to 400; even n, never
        # enumerated, walk their whole fuel of at most 40.
        probes = [(n, fuel) for n in range(1, 61) for fuel in (5, 10, 20, 40, 400)
                  if n % 2 or fuel <= 40]
        random.Random(5).shuffle(probes)
        for n, fuel in probes:
            assert merge_probe(n, counted, fuel).trivial == (n % 2 == 1 and (n + 1) // 2 <= fuel)
        assert max(fetched.values()) == 1
        assert set(fetched) == set(range(1, 41))

    def test_index_dies_with_its_enumeration(self):
        pair = mock_pair()
        ref = weakref.ref(pair.enum_n)
        oracle = re_oracle(pair.enum_n)
        assert check(oracle, a_word("a2 a1^-1 a6 a5^-1"), 4).trivial
        assert merge_probe(5, pair.enum_n, 10).trivial
        del pair, oracle
        gc.collect()
        assert ref() is None

    def test_concurrent_probes_agree_with_a_serial_run(self, monkeypatch):
        # Eight threads probe one fresh enumeration at mixed fuels while the
        # interpreter switches between them as often as it can; each must
        # answer as a serial run does, and no position may be fetched twice.
        rng = random.Random(8)
        probes = [(n, rng.choice((0, 1, 10, 50, 200, 400))) for n in range(1, 41) for _ in range(2)]
        serial = halting_pair().enum_n
        expected = {probe: merge_probe(probe[0], serial, probe[1]) for probe in probes}
        assert set(expected.values()) == {TRIVIAL, UNKNOWN}
        monkeypatch.setattr(machines, "_shared", machines.DovetailEnumeration())
        fresh = halting_pair().enum_n
        fetched: Counter[int] = Counter()

        def enum_n(i: int) -> int:
            fetched[i] += 1
            return fresh(i)

        seen: list[dict] = [{} for _ in range(8)]

        def probe_all(out: dict, seed: int) -> None:
            mine = list(probes)
            random.Random(seed).shuffle(mine)
            for n, fuel in mine:
                out[n, fuel] = merge_probe(n, enum_n, fuel)

        threads = [threading.Thread(target=probe_all, args=(out, seed), daemon=True)
                   for seed, out in enumerate(seen)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in seen)
        assert max(fetched.values()) == 1


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(-3, 3)), max_size=10))
def test_insep_respects_free_reduction(pairs):
    pair = mock_pair()
    w = Word.make(A_ALPHABET, [("a", i, e) for i, e in pairs])
    shuffled = Word.make(A_ALPHABET, [("a", i, e) for i, e in reversed(pairs)])
    # Abelian base: order of letters cannot change the verdict.
    assert insep_trivial(w, pair) == insep_trivial(shuffled, pair)
