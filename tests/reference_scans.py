"""Slow reference deciders: the window scans the library used to run.

Each function here visits every point of a bounded window, which is simple
enough to trust but costs time in proportion to the size of the exponents.
The property tests compare the library's sparse deciders, which evaluate
only inner step points and outer collision points, against these.  The
outer scans read values through :func:`fs_value_at_by_product`, which
multiplies the values of single factors, rather than the library's
``twogen.value_at``.

Two more oracles keep the routes through validated words that the library
replaced by building normal forms directly: :func:`encode_word_by_words`
multiplies the generator words and parses the product, where
``twogen.encode_word`` pushes the generators' factors in one pass over the
runs, and :func:`zb_value_at_by_make` canonicalizes the base value with
``Word.make``.  :func:`parse_word_by_tokens` is the word parser the library
replaced by a one-pass tokenizer: it cuts the text into runs of
non-whitespace first and matches each with a second pattern, and it bounds
each index and exponent by ``words.max_digits()`` digit by digit.
:func:`parse_program_by_checks` is the register-machine text parser that
``machines.parse_program``'s one instruction pattern replaced: it splits a
line into words and checks the operands one by one.
The two compares are the lifted orders as they were computed before each
order became a sign rule on its positive cone.
:func:`zb_compare_by_min_support` finds the least support point of
``a * ~b`` with the window scan :func:`zb_min_support` and compares the two
value words there lexicographically on their vectors;
:func:`fs_compare_by_min_support` finds the outer least support point with
the window scan :func:`fs_min_support` and calls it there.  Neither reads a
sign, and neither calls a library scan.
:func:`zb_compare_by_two_walks` and :func:`fs_compare_by_two_walks` are
the compares as they were before the lifted sign confirmed its own zero
signs: the sign walk with no base call, then, on a zero sign, the stage's
``is_trivial`` over the same points, raising "not total" when it refutes.

Two more keep the sign path's routes that the library replaced by reading
a sign straight off a normal form: :func:`sign_by_compare` signs a word by
comparing the identity with it, so it applies the order's rule to the
normal form of ``1 * ~w``, as ``OrderOracle.compare`` did before
``OrderOracle.sign_of``, and :func:`support_points_by_sort` finds the least
first-active point of a class with a nonzero sum by sorting them all and
appends it to a copy of the collision points below it.

:func:`zb_decode` is the inverse of ``wreath.diagonal_encode``, which the
library no longer needs.

:func:`step_points` is the sorted set of the points ``1 - eta``, which the
library's word path read before every inner scan took its points from
``wreath._walk``.  :func:`zb_walk_by_points` is the inner running-vector
walk as it was before it took its points from its own sort of the factors:
it walks a point list that :func:`zb_walk_by_step_points` gets by sorting
:func:`step_points` (read with the step point 0 as 1 for ``in_diagonal``),
so each scan sorted the factors twice.  :func:`zb_semi_trivial_by_step_points`,
:func:`zb_lifted_sign_by_step_points` (its zero signs confirmed by the base
rule on the same vector) and :func:`zb_in_diagonal_by_step_points` are the
three inner scans over it, which ``test_vector_scan.py`` checks the
library's one-sort walk against.  :func:`zb_in_diagonal_by_words` is diagonal
membership on the word path as it was before ``wreath.in_diagonal`` became
the triviality scan of a moved element: the base rule on the value word at
each step point, with the step point 0 read as 1.
:func:`zb_semi_trivial_by_words` is the fueled word problem on the word
path as it was before its points came from ``wreath._walk``: the base rule
on the value word at each of the :func:`step_points`.  The library's own
word path, taken by a base with no vector rule, serves as the oracle for
its running-vector walk (see ``test_vector_scan.py``).

The classes named ``...ByDataclass`` at the end are the dataclass
declarations that the library's value types replaced with ``__slots__``
classes, their fields kept and their methods dropped:
``test_value_types.py`` checks that both kinds compare, hash, print, copy,
pickle and refuse assignment alike.
"""

from __future__ import annotations

import re
import threading
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, ClassVar, Iterable, Iterator

from oracles import check
from wreathembed import twogen, wreath
from wreathembed.base_groups import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    GroupOracle,
    SemiVerdict,
    _shift,
    exponent_vector,
)
from wreathembed.twogen import FSElement
from wreathembed.words import (
    FS_ALPHABET,
    X_ALPHABET,
    ZB_ALPHABET,
    Alphabet,
    Word,
    WordError,
    _push,
    max_digits,
)
from wreathembed.wreath import ZBElement

# -- the routes through words ---------------------------------------------------


def encode_word_by_words(word: Word) -> FSElement:
    """The embedding as the product of ``generator_word(i) ** e``, parsed."""
    out = Word.identity(FS_ALPHABET)
    for _, index, exp in word.runs:
        out = out * twogen.generator_word(index) ** exp
    return FSElement.from_word(out)


def zb_value_at_by_make(a: ZBElement, nu: int, alphabet: Alphabet = X_ALPHABET) -> Word:
    """The base value at ``nu``, canonicalized and validated by ``Word.make``."""
    letter = next(iter(alphabet.indexed))
    return Word.make(alphabet, [(letter, i, xi) for i, eta, xi in a.factors if nu + eta >= 1])


_TERM = re.compile(r"([a-z])([0-9]*)(?:\^([+-]?[0-9]+))?\Z")


def parse_word_by_tokens(text: str, alphabet: Alphabet) -> Word:
    """Word text parsed token by token: each run of non-whitespace is one
    term, matched on its own."""
    runs: list = []
    for token_match in re.finditer(r"\S+", text):
        token = token_match.group(0)
        pos = token_match.start() + 1
        m = _TERM.match(token)
        if m is None:
            raise WordError(f"malformed term {token!r}", pos)
        letter, digits, exp_text = m.group(1), m.group(2), m.group(3)
        if any(len(d.lstrip("+-")) > max_digits() for d in (digits, exp_text or "")):
            raise WordError("index or exponent has too many digits", pos)
        index = int(digits) if digits else None
        exp = int(exp_text) if exp_text is not None else 1
        try:
            alphabet.validate(letter, index)
        except WordError as exc:
            raise WordError(str(exc), pos) from None
        _push(runs, (letter, index, exp))
    return Word(alphabet, tuple(runs))


def parse_program_by_checks(text: str) -> tuple[int, ...]:
    """Program text parsed by splitting each line into words and checking
    the operands one by one."""
    out: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        op, *args = line.split()
        try:
            if not all(a.isascii() and a.isdigit() and (a == "0" or a[0] != "0") for a in args):
                raise ValueError
            nums = [int(a) for a in args]
            if op == "HALT" and not nums:
                out.append(0)
            elif op == "INC" and nums in ([0], [1]):
                out.append(1 + nums[0])
            elif op == "JZDEC" and len(nums) == 2 and nums[0] in (0, 1) and nums[1] >= 1:
                out.append(3 + 2 * (nums[1] - 1) + nums[0])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: bad instruction {line!r}") from None
    return tuple(out)


def zb_decode(a: ZBElement, H: GroupOracle) -> Word:
    """Inverse of ``wreath.diagonal_encode`` on its image: the value at 0."""
    if not wreath.in_diagonal(a, H):
        raise ValueError("element is not in the diagonal subgroup")
    return wreath.value_at(a, 0, H.alphabet)


# -- the inner walk over a sorted point list -----------------------------------


def step_points(a: ZBElement) -> list[int]:
    """The distinct points ``1 - eta`` where some factor switches on, sorted,
    as ``wreath.step_points`` found them before ``wreath._walk`` yielded them."""
    return sorted({1 - eta for _, eta, _ in a.factors})


def zb_walk_by_points(
    a: ZBElement, points: Iterable[int], alphabet: Alphabet, rule: Callable[..., Any], *args
) -> Iterator[tuple[int, Any]]:
    """``(nu, rule(vector, *args))`` at each of the ascending ``points``:
    the factors sorted once by step point, each added to one running vector
    as the walk passes its step point ``1 - eta``."""
    pending = sorted(a.factors, key=itemgetter(1))  # the least step point last
    vector: dict[int, int] = {}
    for nu in points:
        while pending and nu + pending[-1][1] >= 1:
            i, _, xi = pending.pop()
            if i < 1:
                alphabet.validate(next(iter(alphabet.indexed)), i)
            _shift(vector, i, xi)
        yield nu, rule(vector, *args)


def zb_walk_by_step_points(
    a: ZBElement, alphabet: Alphabet, rule: Callable[..., Any], *args, zero_as_one: bool = False
) -> Iterator[tuple[int, Any]]:
    """:func:`zb_walk_by_points` over :func:`step_points`, sorted a second
    time, with the step point 0 read as 1 for ``zero_as_one``."""
    points = step_points(a)
    if zero_as_one:
        points = sorted({nu or 1 for nu in points})
    return zb_walk_by_points(a, points, alphabet, rule, *args)


def zb_semi_trivial_by_step_points(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    if a.tail != 0:
        return NONTRIVIAL
    return wreath._first_failure(zb_walk_by_step_points(a, H.alphabet, H.rule, fuel))[1]


def zb_lifted_sign_by_step_points(a: ZBElement, H_order, H: GroupOracle) -> tuple[int | None, int]:
    """The sign at the first step point where it is not 0, the base rule
    confirming the vector at each point where it is."""
    if a.tail:
        return None, wreath._sign_of(a.tail)

    def confirmed(vector):
        sign = H_order.sign(vector)
        if not sign and not H.rule(vector, 0).trivial:
            raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
        return sign

    walk = zb_walk_by_step_points(a, H_order.alphabet, confirmed)
    return next(((nu, sign) for nu, sign in walk if sign), (None, 0))


def zb_in_diagonal_by_step_points(a: ZBElement, H: GroupOracle) -> bool:
    H.require_total()
    if a.tail != 0:
        return False
    walk = zb_walk_by_step_points(a, H.alphabet, H.rule, 0, zero_as_one=True)
    return wreath._first_failure(walk)[0] is None


def zb_in_diagonal_by_words(a: ZBElement, H: GroupOracle) -> bool:
    """Diagonal membership on the word path: the base rule on the word
    ``wreath.value_at`` builds at each of the :func:`step_points`, with the
    step point 0 read as 1, up to the first that is not trivial."""
    H.require_total()
    if a.tail != 0:
        return False
    points = sorted({nu or 1 for nu in step_points(a)})
    return all(H.rule(wreath.value_at(a, nu, H.alphabet), 0).trivial for nu in points)


def zb_semi_trivial_by_words(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    """The fueled word problem on the word path as it was before its points
    came from ``wreath._walk``: the base rule on the word ``wreath.value_at``
    builds at each of the :func:`step_points`, up to the first that is not
    TRIVIAL."""
    if a.tail != 0:
        return NONTRIVIAL
    for nu in step_points(a):
        verdict = H.rule(wreath.value_at(a, nu, H.alphabet), fuel)
        if verdict is not TRIVIAL:
            return verdict
    return TRIVIAL


# -- inner stage: every integer between the smallest and largest step point --


def window(a: ZBElement) -> range:
    """The closed interval of step points, as a range; empty when constant."""
    if not a.factors:
        return range(0)
    etas = [eta for _, eta, _ in a.factors]
    return range(1 - max(etas), 2 - min(etas))


def _point_trivial(a: ZBElement, nu: int, H: GroupOracle) -> bool:
    assert H.total
    return check(H, wreath.value_at(a, nu, H.alphabet), 0).trivial


def zb_is_trivial(a: ZBElement, H: GroupOracle) -> bool:
    return a.tail == 0 and all(_point_trivial(a, nu, H) for nu in window(a))


def zb_semi_trivial(a: ZBElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    if a.tail != 0:
        return NONTRIVIAL
    if H.total:
        return TRIVIAL if zb_is_trivial(a, H) else NONTRIVIAL
    for nu in window(a):
        if not check(H, wreath.value_at(a, nu, H.alphabet), fuel).trivial:
            return UNKNOWN
    return TRIVIAL


def zb_min_support(a: ZBElement, H: GroupOracle) -> int | None:
    for nu in window(a):
        if not _point_trivial(a, nu, H):
            return nu
    return None


def zb_in_diagonal(a: ZBElement, H: GroupOracle) -> bool:
    if a.tail != 0:
        return False
    eta0 = max((abs(eta) for _, eta, _ in a.factors), default=0)
    points = [nu for nu in range(-eta0, eta0 + 1) if nu != 0] + [eta0 + 1]
    return all(_point_trivial(a, nu, H) for nu in points)


# -- outer stage: every active point within a multiple of the largest |gamma| --


def gamma_bound(a: FSElement) -> int:
    return max((abs(gamma) for gamma, _ in a.factors), default=0)


def is_active(n: int) -> bool:
    """Whether ``f`` takes a value at ``n``: n is 1 or a power of two."""
    return n >= 1 and n & (n - 1) == 0


def active_points(a: FSElement, lo: int, hi: int) -> list[int]:
    """Sorted points in [lo, hi] where some factor takes a value."""
    points: set[int] = set()
    for gamma, _ in a.factors:
        mu = 1 - gamma
        if lo <= mu <= hi:
            points.add(mu)
        power = 2
        while power <= hi + gamma:
            if power - gamma >= lo:
                points.add(power - gamma)
            power <<= 1
    return sorted(points)


def _f_value_at(n: int, beta: int) -> ZBElement | None:
    # The defining values of f: z at 1, b_i at 2^i, identity elsewhere.
    if n == 1:
        return ZBElement((), beta)
    if n >= 2 and n & (n - 1) == 0:
        return ZBElement(((n.bit_length() - 1, 0, beta),), 0)
    return None


def fs_value_at_by_product(a: FSElement, mu: int) -> ZBElement:
    """The value at ``mu`` as the product of each factor's own value there."""
    out = ZBElement.identity()
    for gamma, beta in a.factors:
        value = _f_value_at(gamma + mu, beta)
        if value is not None:
            out = out * value
    return out


def _balanced(a: FSElement) -> bool:
    return a.tail == 0 and all(total == 0 for total in twogen.class_sums(a).values())


def fs_is_trivial(a: FSElement, H: GroupOracle) -> bool:
    if not _balanced(a):
        return False
    bound = 3 * gamma_bound(a)
    return all(
        zb_is_trivial(fs_value_at_by_product(a, mu), H) for mu in active_points(a, -bound, bound)
    )


def fs_semi_trivial(a: FSElement, H: GroupOracle, fuel: int) -> SemiVerdict:
    if not _balanced(a):
        return NONTRIVIAL
    bound = 3 * gamma_bound(a)
    confirmed = True
    for mu in active_points(a, -bound, bound):
        verdict = zb_semi_trivial(fs_value_at_by_product(a, mu), H, fuel)
        if verdict.nontrivial:
            return NONTRIVIAL
        confirmed = confirmed and verdict.trivial
    return TRIVIAL if confirmed else UNKNOWN


def fs_min_support(a: FSElement, H: GroupOracle) -> int | None:
    """Scan the window of five times the largest conjugating exponent; past
    it a point carries a power of one generator whose exponent is a class
    sum, nontrivial exactly when that sum is (generators of infinite order)."""
    bound = 5 * gamma_bound(a) + 2
    for mu in active_points(a, -bound, bound):
        if not zb_is_trivial(fs_value_at_by_product(a, mu), H):
            return mu
    candidates = []
    for gamma, total in twogen.class_sums(a).items():
        if total != 0:
            top = bound + gamma
            power = 2 if top < 2 else 1 << top.bit_length()
            candidates.append(power - gamma)
    return min(candidates) if candidates else None


def fs_in_image(a: FSElement, H: GroupOracle) -> bool:
    if not _balanced(a):
        return False
    bound = 3 * gamma_bound(a)
    for mu in active_points(a, -bound, bound):
        if mu != 1 and not zb_is_trivial(fs_value_at_by_product(a, mu), H):
            return False
    return zb_in_diagonal(fs_value_at_by_product(a, 1), H)


def zb_compare_by_min_support(
    a: ZBElement, b: ZBElement, vector: Callable[[Word], dict[int, int]], H: GroupOracle
):
    """The tail clause, then the values at the least support point of
    ``a * ~b``, compared lexicographically on their ``vector`` (the exponent
    vector, or the adapted one for a pair-relation base): the least
    differing coordinate decides."""
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)
    point = zb_min_support(a * ~b, H)
    if point is None:
        return ("EQ", "equal", None)
    u, v = (vector(wreath.value_at(x, point, H.alphabet)) for x in (a, b))
    key = min(k for k in set(u) | set(v) if u.get(k, 0) != v.get(k, 0))
    return ("LT" if u.get(key, 0) < v.get(key, 0) else "GT", "value", point)


def fs_compare_by_min_support(
    a: FSElement, b: FSElement, vector: Callable[[Word], dict[int, int]], H: GroupOracle
):
    """The tail clause, then the inner compare of the values at the least
    support point of ``a * ~b``, found by :func:`fs_min_support`."""
    if a.tail != b.tail:
        return ("LT" if a.tail < b.tail else "GT", "tail", None)
    point = fs_min_support(a * ~b, H)
    if point is None:
        return ("EQ", "equal", None)
    u, v = fs_value_at_by_product(a, point), fs_value_at_by_product(b, point)
    verdict = zb_compare_by_min_support(u, v, vector, H)[0]
    assert verdict != "EQ", (a, b, point)
    return (verdict, "value", point)


# -- the sign path's replaced routes -------------------------------------------


def sign_by_compare(word: Word, order) -> str:
    """The sign of ``word`` in ``order`` as "0", "+" or "-", read from the
    verdict of the identity against ``word`` as ``compare`` reached it
    before ``sign_of``: the order's rule on the normal form of ``1 * ~word``,
    whose sign -1 ("LT") is "+"."""
    w = Word.identity(order.alphabet) * ~word
    form = FSElement.from_word(w) if order.alphabet is FS_ALPHABET else exponent_vector(w)
    return {-1: "+", 0: "0", 1: "-"}[order.sign(form)]


def support_points_by_sort(a: FSElement) -> list[int]:
    """The candidates of ``twogen._support_points``: the collision points
    below the least sorted first-active point of a class with a nonzero sum,
    then that point, if any."""
    best = sorted(1 - gamma for gamma, total in twogen.class_sums(a).items() if total != 0)[:1]
    return [mu for mu in twogen.collision_points(a) if not best or mu < best[0]] + best


# -- the compares that walked twice ----------------------------------------------


def _zb_sign_unconfirmed(c: ZBElement, H_order) -> tuple[int | None, int]:
    # The tail's sign, else the first nonzero sign on the walk; no base call.
    if c.tail:
        return None, wreath._sign_of(c.tail)
    signs = ((nu, H_order.sign(vector)) for nu, vector in wreath._walk(c, H_order.alphabet))
    return next(((nu, sign) for nu, sign in signs if sign), (None, 0))


def _fs_sign_unconfirmed(c: FSElement, H_order) -> tuple[int | None, int]:
    # The same one level up, over ``twogen._support_points``.
    if c.tail:
        return None, wreath._sign_of(c.tail)
    signs = (
        (mu, _zb_sign_unconfirmed(twogen.value_at(c, mu), H_order)[1])
        for mu in twogen._support_points(c)
    )
    return next(((mu, sign) for mu, sign in signs if sign), (None, 0))


def _compare_by_two_walks(c, H_order, H: GroupOracle, stage, sign):
    if H.alphabet is not H_order.alphabet:
        raise ValueError(f"oracle {H.name!r} and order {H_order.name!r} use different alphabets")
    if not c.tail:
        H.require_total()
    point, value = sign(c, H_order)
    if not value and not stage.is_trivial(c, H):
        raise ValueError(f"order {H_order.name!r} is not total on distinct elements")
    clause = "tail" if c.tail else "value" if value else "equal"
    return {-1: "LT", 0: "EQ", 1: "GT"}[value], clause, point


def zb_compare_by_two_walks(a: ZBElement, b: ZBElement, H_order, H: GroupOracle):
    """The lifted sign of ``a * ~b`` with no base call, then, on a zero
    sign, ``wreath.is_trivial`` over the same step points."""
    return _compare_by_two_walks(a * ~b, H_order, H, wreath, _zb_sign_unconfirmed)


def fs_compare_by_two_walks(a: FSElement, b: FSElement, H_order, H: GroupOracle):
    """The same one level up: on a zero sign, ``twogen.is_trivial`` over
    the collision points the sign walked."""
    return _compare_by_two_walks(a * ~b, H_order, H, twogen, _fs_sign_unconfirmed)


# -- the value types as dataclasses ----------------------------------------------


@dataclass(frozen=True, eq=False)
class AlphabetByDataclass:
    name: str
    plain: frozenset[str] = frozenset()
    indexed: frozenset[str] = frozenset()


@dataclass(frozen=True)
class WordByDataclass:
    alphabet: Alphabet
    runs: tuple[tuple[str, int | None, int], ...] = ()


@dataclass(frozen=True)
class WreathElementByDataclass:
    factors: tuple[tuple[int, ...], ...] = ()
    tail: int = 0

    ALPHABET: ClassVar[Alphabet]
    SHIFT: ClassVar[str]
    GENERATOR: ClassVar[str]


class ZBElementByDataclass(WreathElementByDataclass):
    ALPHABET, SHIFT, GENERATOR = ZB_ALPHABET, "z", "b"


class FSElementByDataclass(WreathElementByDataclass):
    ALPHABET, SHIFT, GENERATOR = FS_ALPHABET, "s", "f"


@dataclass(frozen=True)
class EnumeratedPairByDataclass:
    name: str
    enum_n: Callable[[int], int]
    enum_m: Callable[[int], int]
    classify: Callable[[int], tuple[str, int | None]] | None = None


@dataclass
class RunStateByDataclass:
    program: tuple[int, ...]
    config: tuple[int, int, int] = field(default=(1, 0, 0), init=False)
    steps: int = field(default=0, init=False)
    tortoise: tuple[int, int, int] = field(default=(1, 0, 0), init=False)
    power: int = field(default=1, init=False)
    lam: int = field(default=0, init=False)


@dataclass
class DovetailEnumerationByDataclass:
    halted: array = field(default_factory=lambda: array("q"), init=False)
    cycling: array = field(default_factory=lambda: array("q"), init=False)
    _halted_at: array = field(default_factory=lambda: array("q"), init=False)
    _tick: int = field(default=0, init=False)
    _states: dict[int, Any] = field(default_factory=dict, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
