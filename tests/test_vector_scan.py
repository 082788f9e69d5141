"""The inner scan over a running exponent vector, against the word rule.

Every base in ``base_groups`` states its one rule on exponent vectors
(``on_vectors``), and the inner scan walks one running vector through that
rule.  Here every decider that reaches the inner scan runs twice on the same
elements: over the base as it is, and over a copy whose rule reads words
(:func:`as_words`), whose scan builds the value word at each point and hands
it to the base's ``check``.  The compare among them is the library's
``zb_compare``: in one walk it reads the order's sign on the running vector
and asks the base to confirm each zero sign it passes, so every compare that
passes a zero sign reaches the rule, and an EQ compare reaches it at every
step point.  The compares are also checked against the two-walk compares
they replaced.  Each scan is a lazy stream, and the last test checks that it
stops at its deciding point.
"""

import dataclasses
import random
import time
from collections import Counter
from functools import partial

import pytest

from oracles import FREE as FREE_GROUP
from oracles import HEISENBERG
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    SemiVerdict,
    free_abelian_oracle,
    insep_oracle,
    mock_pair,
    prime,
    re_oracle,
)
from wreathembed.cli import ORDERS
from wreathembed.orders import OrderOracle, fs_compare, lex_order, pair_adapted_order, zb_compare
from wreathembed.twogen import FSElement
from wreathembed.words import FS_ALPHABET, X_ALPHABET, ZB_ALPHABET, Word, WordError, parse_word
from wreathembed.wreath import ZBElement

from reference_scans import (
    fs_compare_by_two_walks,
    zb_compare_by_two_walks,
    zb_in_diagonal_by_step_points,
    zb_in_diagonal_by_words,
    zb_lifted_sign_by_step_points,
    zb_semi_trivial_by_step_points,
    zb_walk_by_step_points,
)

PAIR = mock_pair()
FREE = free_abelian_oracle()
INSEP = insep_oracle(PAIR)
RE = re_oracle(PAIR.enum_n, name="mock")
BASES = [FREE, INSEP, RE]
FUELS = (0, 1, 50, 400)


def as_words(H):
    """H with a rule on words: ``check``, which reads the word's vector."""
    return dataclasses.replace(H, rule=H.check, on_vectors=False)


def relator(H, k: int) -> list[tuple[int, int]]:
    """``(index, exponent)`` runs of a word trivial in H: one relator of pair
    k, or for the free abelian group a letter and its inverse."""
    if H is FREE:
        return [(k, 1), (k, -1)]
    if H is INSEP:
        side, i = PAIR.classify(k)
        return [(2 * k, 1), (2 * k - 1, -prime(i) if side == "n" else prime(i))]
    return [(2 * k, 1), (2 * k - 1, -1)]  # merged in re:mock iff k is odd


def base_runs(rng: random.Random, H) -> list[tuple[int, int]]:
    """Multiples of relators, sometimes with one stray letter."""
    runs = []
    for _ in range(rng.randrange(1, 4)):
        e = rng.choice((-2, -1, 1, 2))
        runs += [(i, e * x) for i, x in relator(H, rng.randrange(1, 4))]
    if rng.random() < 0.4:
        runs.append((rng.randrange(1, 7), rng.choice((-1, 1))))
    rng.shuffle(runs)
    return runs


def base_word(rng: random.Random, H) -> Word:
    letter = next(iter(H.alphabet.indexed))
    return Word.make(H.alphabet, [(letter, i, e) for i, e in base_runs(rng, H)])


def sample_zb(rng: random.Random, H) -> ZBElement:
    """Relator letters spread over few step points, so that coordinates
    cancel mid-scan and several factors share a step point."""
    kind = rng.randrange(3)
    if kind == 2:
        return wreath.diagonal_encode(base_word(rng, H))
    factors = [(i, rng.randrange(-3, 4), e) for i, e in base_runs(rng, H)]
    tail = rng.choice((0, 0, 0, 1))
    a = ZBElement.make(factors, tail)
    if kind == 1:  # times a permutation's inverse: the identity in an abelian base
        rng.shuffle(factors)
        a = a * ~ZBElement.make(factors, tail)
    return a


def sample_fs(rng: random.Random, H) -> FSElement:
    """Encoded base words, sometimes conjugated or times a commutator."""
    a = twogen.encode_word(base_word(rng, H))
    kind = rng.randrange(3)
    if kind == 1:
        shift = FSElement((), rng.choice((1, -2)))
        a = shift * a * ~shift
    if kind == 2:
        b = FSElement.make([(rng.randrange(-3, 4), 1)])
        c = FSElement.make([(rng.randrange(-3, 4), 1)], rng.choice((1, 3)))
        a = a * b * c * ~b * ~c
    return a


def returns_to_zero(a: ZBElement) -> bool:
    """Whether some coordinate of the running vector is nonzero at one step
    point and zero again at a later one."""
    running: Counter = Counter()
    was_live: set[int] = set()
    for nu in wreath.step_points(a):
        for i, eta, xi in a.factors:
            if 1 - eta == nu:
                running[i] += xi
        if any(running[i] == 0 for i in was_live):
            return True
        was_live |= {i for i, e in running.items() if e}
    return False


def outcomes(a: ZBElement, b: ZBElement, u: FSElement, H) -> list:
    """Every decider that reaches the inner scan, on a, b and u."""
    fuels = FUELS if not H.total else (0,)
    out = [wreath.semi_trivial(a, H, fuel) for fuel in fuels]
    out += [twogen.semi_trivial(u, H, fuel) for fuel in fuels]
    if H.total:
        out += [wreath.in_diagonal(a, H), twogen.in_image(u, H)]
    if H.name in ORDERS:
        same_tail = ZBElement(b.factors, a.tail)
        out.append(zb_compare(a, same_tail, ORDERS[H.name](), H))
    return out


@pytest.mark.parametrize("H", BASES, ids=lambda H: H.name)
def test_vector_scan_matches_word_rule(H):
    rng = random.Random(2001)
    samples = [(sample_zb(rng, H), sample_zb(rng, H), sample_fs(rng, H)) for _ in range(400)]
    fast = [outcomes(*sample, H) for sample in samples]
    slow = [outcomes(*sample, as_words(H)) for sample in samples]
    for sample, f, s in zip(samples, fast, slow):
        assert f == s, sample
    # The shapes a running vector can get wrong must all occur.
    shapes: Counter = Counter()
    for a, _, _ in samples:
        if a.tail == 0:
            etas = Counter(eta for _, eta, _ in a.factors)
            shapes["returns to zero"] += returns_to_zero(a)
            shapes["shared step point"] += max(etas.values(), default=0) > 1
            shapes["0 a step point"] += 1 in etas
    assert len(shapes) == 3 and min(shapes.values()) >= 100, shapes
    if H.name in ORDERS:  # an EQ compare reaches the verdict rule at every point, to confirm 0
        assert sum(out[-1][0] == "EQ" for out in fast) >= 100
    verdicts = {verdict for out in fast for verdict in out if isinstance(verdict, SemiVerdict)}
    assert verdicts == ({TRIVIAL, NONTRIVIAL, UNKNOWN} if not H.total else {TRIVIAL, NONTRIVIAL})


def raw_zb(rng: random.Random, H) -> ZBElement:
    """A sample with one factor's index moved below 1, built without make's
    check, so that the scan reports it where the walk reaches it."""
    factors = list(sample_zb(rng, H).factors) or [(1, 0, 1)]
    k = rng.randrange(len(factors))
    factors[k] = (rng.choice((0, -1)),) + factors[k][1:]
    return ZBElement(tuple(factors), 0)


def expected_error(exc: ValueError) -> str:
    """The message of a WordError or of an order that is not total; any other
    error is a fault of the scan or of its reference, and is raised again."""
    message = str(exc)
    if isinstance(exc, WordError) or (message.startswith("order ") and "is not total" in message):
        return message
    raise exc


@pytest.mark.parametrize("H", BASES, ids=lambda H: H.name)
def test_walk_matches_the_two_sort_walk(H):
    # The library's walk against the walk over sorted step points that it
    # replaced: the same verdicts, signs and memberships, the same rule calls
    # on the same vectors, and a bad raw factor reported at the same call.
    # The lifted sign's calls are its signs, each zero one followed by the
    # base's confirmation; re:mock at fuel 0 confirms only the empty vector,
    # so both raise at any other zero sign.  The walk yields its live
    # vector, so the stream copies it.
    # in_diagonal, the scan of a moved element, meets the walk that read the
    # step point 0 as 1.
    rng = random.Random(f"walk-{H.name}")
    order = ORDERS[H.name]() if H.name in ORDERS else pair_adapted_order(PAIR)
    log: list[dict] = []

    def logged(fn):
        def call(vector, *args):
            log.append(dict(vector))
            return fn(vector, *args)

        return call

    base = dataclasses.replace(H, rule=logged(H.rule))
    signs = dataclasses.replace(order, sign=logged(order.sign))
    scans = [
        (partial(wreath.semi_trivial, H=base, fuel=fuel),
         partial(zb_semi_trivial_by_step_points, H=base, fuel=fuel))
        for fuel in (FUELS if not H.total else (0,))
    ]
    scans.append((partial(wreath._lifted_sign, H_order=signs, H=base),
                  partial(zb_lifted_sign_by_step_points, H_order=signs, H=base)))
    if H.total:
        scans.append((partial(wreath.in_diagonal, H=base),
                      partial(zb_in_diagonal_by_step_points, H=base)))

    def outcome(scan, a):
        log.clear()
        try:
            return scan(a), list(log)
        except ValueError as exc:
            return expected_error(exc), list(log)

    def stream(pairs):
        out = []
        try:
            for point, vector in pairs:
                out.append((point, dict(vector)))
        except WordError as exc:
            out.append(str(exc))
        return out

    seen: Counter = Counter()
    samples = [sample_zb(rng, H) for _ in range(400)] + [raw_zb(rng, H) for _ in range(200)]
    for a in samples:
        for new, old in scans:
            got = outcome(new, a)
            assert got == outcome(old, a), (a, new)
            seen[got[0]] += 1
        old_walk = zb_walk_by_step_points(a, H.alphabet, dict)
        assert stream(wreath._walk(a, H.alphabet)) == stream(old_walk), a
        if a.tail == 0:
            etas = Counter(eta for _, eta, _ in a.factors)
            if 1 in etas:  # the step point 0, read as 1 or, with a factor at eta 0, skipped
                seen["eta 1 and eta 0" if 0 in etas else "eta 1, no eta 0"] += 1
            seen["repeated eta"] += max(etas.values(), default=0) > 1
    shapes = ("eta 1 and eta 0", "eta 1, no eta 0", "repeated eta")
    assert min(seen[shape] for shape in shapes) >= 50, seen
    verdicts = {TRIVIAL, UNKNOWN} if not H.total else {TRIVIAL, NONTRIVIAL, True, False}
    assert all(seen[verdict] >= 20 for verdict in verdicts), seen
    letter = next(iter(H.alphabet.indexed))
    assert seen[f"index must be >= 1, got {letter}0"] >= 20, seen


# Each base with the base whose relators its samples use.
TWO_WALK_BASES = [(FREE, FREE), (INSEP, INSEP), (as_words(FREE), FREE), (as_words(INSEP), INSEP)]


@pytest.mark.parametrize(
    "H, like", TWO_WALK_BASES, ids=["free-abelian", "insep", "free-abelian-words", "insep-words"]
)
def test_compares_match_the_two_walk_compares(H, like):
    # The one-walk compares against the two-walk ones they replaced: the same
    # (verdict, clause, point), or the same error, at both stages.  Each
    # sample meets another, one with its tail, and the identity; raw elements
    # report their bad index at the same point.  ties, an order that is no
    # cone, raises on every nontrivial difference with no tail: where an
    # inner tail's sign followed a nontrivial value read as 0, the two-walk
    # outer compare answered a value verdict, and the one walk raises there.
    rng = random.Random(f"two-walks-{H.name}-{H.on_vectors}")
    cone = ORDERS[H.name]()
    ties = OrderOracle("ties", H.alphabet, lambda vector: 0)
    not_total = "order 'ties' is not total on distinct elements"
    stages = {"zb": (zb_compare, zb_compare_by_two_walks, sample_zb),
              "fs": (fs_compare, fs_compare_by_two_walks, sample_fs)}

    def outcome(compare, a, b, order):
        try:
            return compare(a, b, order, H)
        except ValueError as exc:
            return expected_error(exc)

    seen: Counter = Counter()
    for _ in range(150):
        for stage, (new, old, sample) in stages.items():
            a, b = sample(rng, like), sample(rng, like)
            for other in (b, type(b)(b.factors, a.tail), type(b)()):
                for order in (cone, ties):
                    got, want = outcome(new, a, other, order), outcome(old, a, other, order)
                    if got == not_total and want[1:2] == ("value",):
                        assert stage == "fs" and order is ties, (a, other)
                        seen["fs", "ties raises on a value verdict"] += 1
                    else:
                        assert got == want, (a, other, order.name)
                    seen[stage, order.name, got if isinstance(got, str) else got[0]] += 1
        raw = raw_zb(rng, like)
        got = outcome(zb_compare, raw, ZBElement(), cone)
        assert got == outcome(zb_compare_by_two_walks, raw, ZBElement(), cone), raw
        seen["raw", got if isinstance(got, str) else got[0]] += 1
    for stage in stages:
        assert min(seen[stage, cone.name, verdict] for verdict in ("LT", "EQ", "GT")) >= 20, seen
        assert min(seen[stage, "ties", verdict] for verdict in ("EQ", not_total)) >= 20, seen
    assert seen["fs", "ties raises on a value verdict"] >= 3, seen
    letter = next(iter(H.alphabet.indexed))
    assert seen["raw", f"index must be >= 1, got {letter}0"] >= 20, seen


def test_non_commuting_base_keeps_the_word_path():
    # The value at 1 is the commutator x1 x2 x1^-1 x2^-1, whose exponent
    # vector is empty: only a check of the word itself refutes it.
    a = ZBElement.from_word(parse_word("b1 b2 b1^-1 b2^-1", ZB_ALPHABET))
    assert wreath.value_at(a, 1) == parse_word("x1 x2 x1^-1 x2^-1", X_ALPHABET)
    assert not FREE_GROUP.on_vectors
    assert wreath.semi_trivial(a, FREE_GROUP, 0).nontrivial
    assert not wreath.in_diagonal(a, FREE_GROUP)
    as_vectors = dataclasses.replace(
        FREE_GROUP, rule=lambda vector, _: TRIVIAL if not vector else NONTRIVIAL, on_vectors=True
    )
    assert wreath.semi_trivial(a, as_vectors, 0).trivial


# Word-path bases, each with the base whose relators its samples use.
WORD_PATH = [
    (FREE_GROUP, FREE), (HEISENBERG, FREE), (as_words(FREE), FREE), (as_words(INSEP), INSEP)
]


@pytest.mark.parametrize("H, like", WORD_PATH, ids=[H.name for H, _ in WORD_PATH])
def test_in_diagonal_matches_the_word_route(H, like):
    # On the word path, in_diagonal asks the base about the same words, in
    # the same order, as the rule on the value word at each step point with
    # 0 read as 1, and reports a bad raw factor at the same call.
    rng = random.Random(f"diagonal-{H.name}")
    log: list[Word] = []

    def logged(word, fuel):
        log.append(word)
        return H.rule(word, fuel)

    base = dataclasses.replace(H, rule=logged)

    def outcome(scan, a):
        log.clear()
        try:
            return scan(a, base), list(log)
        except WordError as exc:
            return str(exc), list(log)

    seen: Counter = Counter()
    samples = [sample_zb(rng, like) for _ in range(400)] + [raw_zb(rng, like) for _ in range(100)]
    for a in samples:
        got = outcome(wreath.in_diagonal, a)
        assert got == outcome(zb_in_diagonal_by_words, a), a
        seen[got[0]] += 1
        etas = {eta for _, eta, _ in a.factors}
        if a.tail == 0 and 1 in etas:
            seen["eta 1 and eta 0" if 0 in etas else "eta 1, no eta 0"] += 1
    shapes = (True, False, "eta 1 and eta 0", "eta 1, no eta 0")
    assert min(seen[shape] for shape in shapes) >= 30, seen
    letter = next(iter(H.alphabet.indexed))
    assert seen[f"index must be >= 1, got {letter}0"] >= 20, seen


@pytest.mark.parametrize("H", [FREE, INSEP], ids=lambda H: H.name)
def test_raw_factor_with_index_zero_rejected_on_both_paths(H):
    # A raw element skips make's check; the scan reaches x0 at its second point.
    letter = next(iter(H.alphabet.indexed))
    a = ZBElement(((1, 7, 1), (1, 7, -1), (0, 6, 1)), 0)
    for base in (H, as_words(H)):
        with pytest.raises(WordError, match=f"^index must be >= 1, got {letter}0$"):
            wreath.semi_trivial(a, base, 0)


def test_long_trivial_element_decides_in_near_linear_time():
    # 20 000 factors over 10 001 step points.  Rebuilding the value word at
    # every step point is quadratic: 8 000 factors took seconds that way.
    rng = random.Random(2002)
    half = [
        (rng.randint(1, 50), rng.randint(-5000, 5000), rng.choice((-2, -1, 1, 2)))
        for _ in range(10_000)
    ]
    shuffled = list(half)
    rng.shuffle(shuffled)
    whole, mixed = ZBElement.make(half), ZBElement.make(shuffled)
    a = whole * ~mixed
    i, eta, _ = half[0]
    b = a * ZBElement(((i, eta, 1),))
    start = time.perf_counter()
    assert len(a.factors) == 20_000
    assert wreath.is_trivial(a, FREE)
    assert wreath.in_diagonal(a, FREE)
    # The EQ compare confirms each zero sign of a within its one walk.
    assert zb_compare(whole, mixed, lex_order(), FREE) == ("EQ", "equal", None)
    assert zb_compare(b, ZBElement(), lex_order(), FREE) == ("GT", "value", 1 - eta)
    assert time.perf_counter() - start < 5


def test_each_scan_stops_at_its_deciding_point(monkeypatch):
    # Each element is refuted at its least point and nonzero at later ones,
    # so a scan that read its whole stream first would make more calls.
    calls: Counter = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    a = ZBElement.from_word(parse_word("b1 z^-1 b2 z z^-2 b3 z^2", ZB_ALPHABET))
    assert wreath.step_points(a) == [1, 2, 3]
    counted_base = dataclasses.replace(FREE, rule=counted("vector", FREE.rule))
    assert wreath.semi_trivial(a, counted_base, 0).nontrivial
    order = lex_order()
    counted_order = dataclasses.replace(order, sign=counted("sign", order.sign))
    assert zb_compare(a, ZBElement(), counted_order, FREE) == ("GT", "value", 1)
    u = FSElement.from_word(
        parse_word(
            "s^-2 f s^7 f s^-6 f s^3 f s^-4 f^-1 s^7 f^-1 s^-3 f^-1 s^-3 f^-1 s", FS_ALPHABET
        )
    )
    assert twogen.collision_points(u) == [-1, 2, 3, 6]
    monkeypatch.setattr(wreath, "semi_trivial", counted("inner", wreath.semi_trivial))
    assert twogen.semi_trivial(u, FREE, 0).nontrivial
    assert calls == {"vector": 1, "sign": 1, "inner": 1}
