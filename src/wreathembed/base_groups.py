"""Base groups handed to the embedding as word-problem oracles.

Every group here is a quotient of the free abelian group on the letters
``a1, a2, ...`` (or ``x1, x2, ...`` for the plain free abelian group).  The
two paired families put each relator on one coordinate pair
``(a(2k-1), a(2k))``, so they are direct sums over pairs, and a word is
trivial exactly when each of its pairs ``(e_lo, e_hi)`` of exponent sums
(see :func:`_pairs`) is:

* the free abelian group itself, with a total decider;
* for a disjoint pair of injectively enumerated index sets (N, M) and the
  primes p_i, the group with relations ``a(2n_i) = a(2n_i-1)^(p_i)`` and
  ``a(2m_i) = a(2m_i-1)^(-p_i)``.  A pair vanishes iff it is a multiple of
  its relator: ``e_hi != 0`` and ``q = -e_lo / e_hi`` is ``p_i`` with
  ``enum_n(i) == k`` or ``-p_i`` with ``enum_m(i) == k``.  One fetch per pair
  decides that, so the word problem is decidable although neither index set
  need be; a membership hint is needed only to order the group;
* for a single enumerated index set N, the group that only identifies
  ``a(2n)`` with ``a(2n-1)`` for n in N.  A pair vanishes iff
  ``e_lo + e_hi == 0`` and k lies in N, which a fueled check certifies by
  finding k among the first ``fuel`` members.  It reads k's position from
  an index of the values fetched so far, one per ``enum_n``, shared by all
  its oracles, held no longer than ``enum_n`` is alive, no larger than the
  largest fuel asked for, and guarded by one lock (see :func:`re_oracle`).

A :class:`GroupOracle` packages an alphabet, a ``total`` flag and one rule
answering a :class:`SemiVerdict`.  A total rule decides the word problem
(TRIVIAL or NONTRIVIAL) and ignores the fuel; a fueled one answers TRIVIAL
within its budget, else UNKNOWN, never refuting.

Every group here is abelian, so each states its rule on exponent vectors
``{index: exponent}`` with zero entries dropped (see :func:`exponent_vector`),
reading only their live coordinates, and sets ``on_vectors``: the inner scan
of :mod:`wreathembed.wreath` hands the rule one running vector per point.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from wreathembed import machines
from wreathembed.words import A_ALPHABET, X_ALPHABET, Alphabet, Word, _at_least, _Frozen


class SemiVerdict(enum.Enum):
    """Outcome of a fuel-bounded triviality check; the value is its CLI name."""

    TRIVIAL = "TRIVIAL"  # a proof of triviality
    NONTRIVIAL = "NONTRIVIAL"  # a fuel-independent refutation
    UNKNOWN = "UNKNOWN"  # the budget ran out first

    @property
    def trivial(self) -> bool:
        return self is TRIVIAL

    @property
    def nontrivial(self) -> bool:
        return self is NONTRIVIAL


TRIVIAL, NONTRIVIAL, UNKNOWN = SemiVerdict


@dataclass(frozen=True, eq=False, repr=False)
class GroupOracle:
    """A group given by generators plus one triviality rule.

    ``rule(value, fuel)`` returns one of the three :class:`SemiVerdict`
    members.  With ``total`` set the group has decidable word problem: the
    rule answers TRIVIAL or NONTRIVIAL, never UNKNOWN, and ignores the
    fuel.  Otherwise the group is merely recursively presented: the rule
    answers TRIVIAL when triviality is certified within the fuel budget and
    UNKNOWN when it is not, never NONTRIVIAL.

    With ``on_vectors`` set the group is a quotient of the free abelian group
    on the indexed letters and the value is a word's exponent vector: the
    inner scan hands the rule one live running vector, which it may read but
    must neither change nor keep.  Otherwise the value is the word itself.
    Equality is identity, as for an alphabet.
    """

    name: str
    alphabet: Alphabet
    rule: Callable[[Any, int], SemiVerdict]
    total: bool = False
    on_vectors: bool = False

    def require_total(self) -> None:
        if not self.total:
            raise ValueError(f"oracle {self.name!r} has no total word-problem decider")


# The primes found so far, in order.  The list only grows, and only under the
# lock, so a read of a prefix it already holds needs no lock.
_primes: list[int] = [2, 3]
_primes_lock = threading.Lock()


def _grow_primes() -> None:
    # Append the primes in (last, last + min(last, 2**21)]: a sieve of its odd
    # numbers by the odd primes up to its square root, all held since
    # last >= 3.  The segment holds a prime, by Bertrand's postulate while it
    # reaches 2 * last and by the known prime gaps (under 1 600 below 2**64)
    # beyond, and its width bound keeps the list at the primes up to a lookup
    # plus one segment.  The segment is sieved in full before the list grows.
    last = _primes[-1]
    odd = range(last + 2, last + min(last, 2**21) + 1, 2)
    keep = bytearray([1]) * len(odd)
    for p in itertools.islice(_primes, 1, None):
        if p * p > odd[-1]:
            break
        multiple = -(-odd[0] // p) * p  # the least multiple of p in the segment
        start = (multiple + p * (multiple % 2 == 0) - odd[0]) // 2  # the least odd one
        keep[start::p] = bytes(len(range(start, len(odd), p)))
    _primes.extend(list(itertools.compress(odd, keep)))


def prime(i: int) -> int:
    """The i-th prime, 1-based: prime(1) = 2."""
    _at_least(i, 1, "prime index")
    if len(_primes) < i:
        with _primes_lock:
            while len(_primes) < i:
                _grow_primes()
    return _primes[i - 1]


def _prime_index(q: int) -> int | None:
    """The i with prime(i) == q, or None when q is not prime."""
    # A failed Fermat test proves q composite without growing the cache.
    if q < 2 or (q > 2 and pow(2, q - 1, q) != 1):
        return None
    if _primes[-1] < q:
        with _primes_lock:
            while _primes[-1] < q:
                _grow_primes()
    i = bisect.bisect_left(_primes, q)
    return i + 1 if _primes[i] == q else None


def _shift(vec: dict[int, int], key: int, delta: int) -> None:
    # Add delta at key, keeping the vector free of zero entries.
    total = vec.get(key, 0) + delta
    if total:
        vec[key] = total
    else:
        vec.pop(key, None)


def exponent_vector(word: Word) -> dict[int, int]:
    """Total exponent per generator index; zero entries are dropped."""
    out: dict[int, int] = {}
    for letter, index, exp in word.runs:
        if index is None:
            raise ValueError(f"generator {letter} carries no index")
        _shift(out, index, exp)
    return out


def _decided(trivial: bool) -> SemiVerdict:
    return TRIVIAL if trivial else NONTRIVIAL


def _pairs(vector: dict[int, int]) -> dict[int, tuple[int, int]]:
    """``{k: (e_lo, e_hi)}``: the exponents of ``a(2k-1)`` and ``a(2k)``.

    Pairs whose two exponents are zero are dropped.
    """
    out: dict[int, tuple[int, int]] = {}
    for index, exp in vector.items():
        k = (index + 1) // 2
        lo, hi = out.get(k, (0, 0))
        out[k] = (lo + exp, hi) if index % 2 else (lo, hi + exp)
    return out


def free_abelian_oracle() -> GroupOracle:
    return GroupOracle(
        "free-abelian", X_ALPHABET, lambda vector, _: _decided(not vector), True, on_vectors=True
    )


class EnumeratedPair(_Frozen):
    """A disjoint pair of injectively enumerated subsets of {1, 2, ...}.

    ``enum_n(i)`` / ``enum_m(i)`` give the i-th member (1-based) of either
    set.  ``classify`` is an optional decidable membership hint: ``("n", i)``
    or ``("m", i)`` when k is the i-th member of N or M, else
    ``("free", None)``; the interesting providers do not have one.
    """

    __slots__ = _fields = ("name", "enum_n", "enum_m", "classify")

    def __init__(self, name: str, enum_n: Callable[[int], int], enum_m: Callable[[int], int],
                 classify: Callable[[int], tuple[str, int | None]] | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "enum_n", enum_n)
        object.__setattr__(self, "enum_m", enum_m)
        object.__setattr__(self, "classify", classify)


def _classify_odd_even(k: int) -> tuple[str, int | None]:
    if k < 1:
        return ("free", None)
    return ("n", (k + 1) // 2) if k % 2 else ("m", k // 2)


def mock_pair() -> EnumeratedPair:
    """A decidable stand-in pair: N the odd naturals, M the even ones."""
    return EnumeratedPair(
        name="mock-odd-even",
        enum_n=lambda i: 2 * _at_least(i, 1, "enumeration index") - 1,
        enum_m=lambda i: 2 * _at_least(i, 1, "enumeration index"),
        classify=_classify_odd_even,
    )


def halting_pair() -> EnumeratedPair:
    """N: halting register programs; M: programs caught cycling.

    Values are the machine numbering of :mod:`wreathembed.machines`
    restricted to {1, 2, ...}; the empty program (number 0) is skipped so
    the values are usable as generator indices.  No membership hint exists.

    The empty program halts at the first tick, so it is always the first
    halting program and never a cycling one: the i-th value of N is the
    (i+1)-th halting program, and M is the cycling stream as it stands.
    Both are read through the enumeration's one locked read.
    """
    enum = machines.shared_enumeration()

    def enum_n(i: int) -> int:
        return enum.halting(_at_least(i, 1, "enumeration index") + 1)

    return EnumeratedPair(name="halting", enum_n=enum_n, enum_m=enum.cycling_at)


def pair_basis_vector(vector: dict[int, int], pair: EnumeratedPair) -> dict[int, int]:
    """An exponent vector's coordinates in a basis adapted to the pair's relations.

    A pair k in N (as its i-th member) satisfies ``a(2k) = a(2k-1)^(p_i)``,
    so it contributes ``e_lo + p_i * e_hi`` on the single surviving basis
    vector 2k-1; for k in M the sign of the p_i term flips; a free pair
    keeps both coordinates.  The vector is trivial in the group iff the
    result is empty.  Needs the pair's membership hint, asked once per live
    pair of the vector.
    """
    if pair.classify is None:
        raise ValueError(f"pair {pair.name!r} has no membership hint")
    out: dict[int, int] = {}
    for k, (lo, hi) in _pairs(vector).items():
        side, i = pair.classify(k)
        if side == "free":
            _shift(out, 2 * k - 1, lo)
            _shift(out, 2 * k, hi)
        else:
            p = prime(i) if hi else 0
            _shift(out, 2 * k - 1, lo + (p if side == "n" else -p) * hi)
    return out


def _insep_vanishes(vector: dict[int, int], pair: EnumeratedPair) -> bool:
    # The relator of pair k is a(2k) a(2k-1)^(-q) with q = p_i (k = enum_n(i))
    # or q = -p_i (k = enum_m(i)); each pair must be a multiple of its relator.
    for k, (lo, hi) in _pairs(vector).items():
        if hi == 0 or lo % hi:
            return False
        q = -lo // hi
        i = _prime_index(abs(q))
        if i is None or (pair.enum_n if q > 0 else pair.enum_m)(i) != k:
            return False
    return True


def insep_oracle(pair: EnumeratedPair) -> GroupOracle:
    def rule(vector: dict[int, int], _fuel: int) -> SemiVerdict:
        return _decided(_insep_vanishes(vector, pair))

    return GroupOracle(f"insep:{pair.name}", A_ALPHABET, rule, True, on_vectors=True)


_positions: weakref.WeakKeyDictionary[Callable[[int], int], dict[int, int]] = (
    weakref.WeakKeyDictionary()
)
_positions_lock = threading.Lock()


def re_oracle(enum_n: Callable[[int], int], name: str = "re") -> GroupOracle:
    """The merge-relation group over ``enum_n``, with a fueled rule.

    ``rule(vector, fuel)`` answers TRIVIAL iff every pair is a multiple of
    ``a(2k) a(2k-1)^-1`` and each such k is among ``enum_n(1..fuel)``, else
    UNKNOWN; the verdict depends only on (vector, fuel).

    Every oracle over the same ``enum_n`` object answers from one position
    index: a dict from each value fetched so far to its first 1-based
    position.  A rule call extends it only while some needed k is missing
    and the fuel is not reached, so each position is fetched at most once per
    ``enum_n``, and the index holds at most as many entries as the largest
    fuel asked for.  It lives as long as ``enum_n`` does: the module keeps
    it under a weak reference to ``enum_n``, which must therefore be weakly
    referenceable (functions, lambdas and bound methods are).  Each oracle
    looks its index up once, when it is built.  One lock guards every lookup
    and extension, so threads may share ``enum_n``.
    """
    with _positions_lock:
        index = _positions.setdefault(enum_n, {})

    def rule(vector: dict[int, int], fuel: int) -> SemiVerdict:
        pairs = _pairs(vector)
        for lo, hi in pairs.values():
            if lo + hi:
                return UNKNOWN
        with _positions_lock:
            missing = set(pairs).difference(index)
            # The enumeration is injective, so positions 1..len(index) are
            # the ones fetched so far.
            i = len(index)
            while missing and i < fuel:
                i += 1
                value = enum_n(i)
                index.setdefault(value, i)
                missing.discard(value)
            for k in pairs:
                if index.get(k, fuel + 1) > fuel:
                    return UNKNOWN
            return TRIVIAL

    return GroupOracle(f"re:{name}", A_ALPHABET, rule, on_vectors=True)
