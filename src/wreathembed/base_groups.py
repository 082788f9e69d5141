"""Base groups handed to the embedding as word-problem oracles.

Three families are provided, all quotients of the free abelian group on the
letters ``a1, a2, ...`` (or ``x1, x2, ...`` for the plain free abelian
group):

* the free abelian group itself, with a total decider;
* for a disjoint pair of enumerable index sets (N, M) and the primes p_i,
  the abelian group with relations ``a(2n_i) = a(2n_i-1)^(p_i)`` and
  ``a(2m_i) = a(2m_i-1)^(-p_i)``; with a membership hint for the pair this
  word problem is decidable even though neither index set need be;
* for a single enumerable index set, the group that only identifies
  ``a(2n_i)`` with ``a(2n_i-1)``, exposed as a fueled semi-decider.

A :class:`GroupOracle` packages an alphabet with one triviality check,
``check(word, fuel)``, and a ``total`` flag.  A total check decides the word
problem and ignores the fuel; a fueled one certifies triviality within its
budget and otherwise gives up, never refuting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from wreathembed import machines
from wreathembed.words import A_ALPHABET, X_ALPHABET, Alphabet, Word


@dataclass(frozen=True)
class SemiVerdict:
    """Outcome of a fuel-bounded triviality check.

    ``trivial`` is a proof of triviality, ``nontrivial`` a fuel-independent
    refutation; with both flags down the budget was simply exhausted.
    """

    trivial: bool = False
    nontrivial: bool = False

    @property
    def unknown(self) -> bool:
        return not (self.trivial or self.nontrivial)


TRIVIAL = SemiVerdict(trivial=True)
NONTRIVIAL = SemiVerdict(nontrivial=True)
UNKNOWN = SemiVerdict()


@dataclass(frozen=True)
class GroupOracle:
    """A group given by generators plus a triviality check for words.

    ``check(word, fuel)`` returns a :class:`SemiVerdict`.  With ``total``
    set the group has decidable word problem: the check answers TRIVIAL or
    NONTRIVIAL and ignores the fuel.  Otherwise the group is merely
    recursively presented: the check answers TRIVIAL when triviality is
    certified within the fuel budget and UNKNOWN when it is not, and never
    refutes.
    """

    name: str
    alphabet: Alphabet
    check: Callable[[Word, int], SemiVerdict]
    total: bool = False

    @classmethod
    def deciding(
        cls, name: str, alphabet: Alphabet, trivial: Callable[[Word], bool]
    ) -> GroupOracle:
        """A total oracle from a decider of the word problem."""
        return cls(name, alphabet, lambda word, _fuel: TRIVIAL if trivial(word) else NONTRIVIAL, True)

    def require_total(self) -> None:
        if not self.total:
            raise ValueError(f"oracle {self.name!r} has no total word-problem decider")


_primes: list[int] = [2, 3]
_primes_lock = threading.Lock()


def prime(i: int) -> int:
    """The i-th prime, 1-based: prime(1) = 2."""
    if i < 1:
        raise ValueError("prime index must be >= 1")
    with _primes_lock:
        while len(_primes) < i:
            candidate = _primes[-1] + 2
            while any(candidate % p == 0 for p in _primes if p * p <= candidate):
                candidate += 2
            _primes.append(candidate)
        return _primes[i - 1]


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
    for gen, exp in word.runs:
        if gen.index is None:
            raise ValueError(f"generator {gen} carries no index")
        _shift(out, gen.index, exp)
    return out


def free_abelian_trivial(word: Word) -> bool:
    return not exponent_vector(word)


def free_abelian_oracle(alphabet: Alphabet = X_ALPHABET) -> GroupOracle:
    return GroupOracle.deciding("free-abelian", alphabet, free_abelian_trivial)


@dataclass(frozen=True)
class EnumeratedPair:
    """A disjoint pair of injectively enumerated subsets of {1, 2, ...}.

    ``enum_n(i)`` / ``enum_m(i)`` give the i-th member (1-based) of either
    set.  ``in_n`` / ``in_m`` are an optional decidable membership hint; the
    interesting providers do not have one.
    """

    name: str
    enum_n: Callable[[int], int]
    enum_m: Callable[[int], int]
    in_n: Callable[[int], bool] | None = None
    in_m: Callable[[int], bool] | None = None

    @property
    def has_hint(self) -> bool:
        return self.in_n is not None and self.in_m is not None


def mock_pair(kind: str = "odd-even") -> EnumeratedPair:
    """A decidable stand-in pair: N the odd naturals, M the even ones."""
    if kind != "odd-even":
        raise ValueError(f"unknown mock pair kind {kind!r}")
    return EnumeratedPair(
        name="mock-odd-even",
        enum_n=lambda i: 2 * i - 1,
        enum_m=lambda i: 2 * i,
        in_n=lambda k: k >= 1 and k % 2 == 1,
        in_m=lambda k: k >= 1 and k % 2 == 0,
    )


def halting_pair() -> EnumeratedPair:
    """N: halting register programs; M: programs caught cycling.

    Values are the machine numbering of :mod:`wreathembed.machines`
    restricted to {1, 2, ...}; the empty program (number 0) is skipped so
    the values are usable as generator indices.  No membership hint exists.
    """
    enum = machines.shared_enumeration()

    def positive(fetch: Callable[[int], int]) -> Callable[[int], int]:
        values: list[int] = []
        raw = [1]

        def at(i: int) -> int:
            while len(values) < i:
                value = fetch(raw[0])
                raw[0] += 1
                if value > 0:
                    values.append(value)
            return values[i - 1]

        return at

    return EnumeratedPair(
        name="halting",
        enum_n=positive(enum.halting),
        enum_m=positive(enum.cycling_at),
    )


def classify_coordinate(pair: EnumeratedPair, k: int) -> tuple[str, int | None]:
    """("n", i) / ("m", i) if k is the i-th member of N or M, else ("free", None).

    Needs the pair's membership hint; the enumeration position is then
    recovered by searching the (injective) enumeration.
    """
    if not pair.has_hint:
        raise ValueError(f"pair {pair.name!r} has no membership hint")
    assert pair.in_n is not None and pair.in_m is not None
    if pair.in_n(k):
        fetch, side = pair.enum_n, "n"
    elif pair.in_m(k):
        fetch, side = pair.enum_m, "m"
    else:
        return ("free", None)
    i = 1
    while fetch(i) != k:
        i += 1
    return (side, i)


def _paired_coordinate_bound(vec: dict[int, int]) -> int:
    return max((k + 1) // 2 for k in vec) if vec else 0


def pair_basis_vector(word: Word, pair: EnumeratedPair) -> dict[int, int]:
    """Coordinates of the word in a basis adapted to the pair's relations.

    Indices are grouped two by two; a group k in N (as its i-th member)
    satisfies ``a(2k) = a(2k-1)^(p_i)``, so it contributes
    ``e(2k-1) + p_i * e(2k)`` on the single surviving basis vector 2k-1;
    for k in M the sign of the p_i term flips; a free group keeps both
    coordinates.  The word is trivial iff the result is empty.
    """
    vec = exponent_vector(word)
    out: dict[int, int] = {}
    for k in range(1, _paired_coordinate_bound(vec) + 1):
        e_lo = vec.get(2 * k - 1, 0)
        e_hi = vec.get(2 * k, 0)
        if not (e_lo or e_hi):
            continue
        side, i = classify_coordinate(pair, k)
        if side == "free":
            _shift(out, 2 * k - 1, e_lo)
            _shift(out, 2 * k, e_hi)
        else:
            assert i is not None
            sign = 1 if side == "n" else -1
            _shift(out, 2 * k - 1, e_lo + sign * prime(i) * e_hi)
    return out


def insep_trivial(word: Word, pair: EnumeratedPair) -> bool:
    """Decide triviality by greedy relator removal.

    A word of total letter count c can only involve a relator instance for
    the i-th pair when ``p_i + 1 <= c``, so only finitely many relators are
    searched.  Each removal strictly shrinks the letter count, hence
    termination; no hint is needed.
    """
    vec = exponent_vector(word)

    def removal() -> bool:
        letters = sum(abs(e) for e in vec.values())
        i = 1
        while prime(i) + 1 <= letters:
            p = prime(i)
            for k, q in ((pair.enum_n(i), p), (pair.enum_m(i), -p)):
                hi, lo = 2 * k, 2 * k - 1
                e_hi = vec.get(hi, 0)
                e_lo = vec.get(lo, 0)
                # relator instance: a(hi) * a(lo)^(-q), or its inverse
                if e_hi >= 1 and (e_lo <= -p if q > 0 else e_lo >= p):
                    _shift(vec, hi, -1)
                    _shift(vec, lo, q)
                    return True
                if e_hi <= -1 and (e_lo >= p if q > 0 else e_lo <= -p):
                    _shift(vec, hi, 1)
                    _shift(vec, lo, -q)
                    return True
            i += 1
        return False

    while vec and removal():
        pass
    return not vec


def insep_oracle(pair: EnumeratedPair, alphabet: Alphabet = A_ALPHABET) -> GroupOracle:
    return GroupOracle.deciding(f"insep:{pair.name}", alphabet, lambda word: insep_trivial(word, pair))


class _MergeState:
    """Coordinate merges applied so far, grown lazily as fuel demands.

    Keeping the union-find between queries makes the cost of a batch of
    checks proportional to the largest fuel used, not to its sum.  Extra
    merges from an earlier, larger budget are harmless: every enumerated
    value is a genuine relator, so a trivial verdict stays sound.
    """

    def __init__(self, enum_n: Callable[[int], int]):
        self.enum_n = enum_n
        self.applied = 0
        self.parent: dict[int, int] = {}

    def find(self, k: int) -> int:
        parent = self.parent
        root = k
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(k, k) != k:
            parent[k], k = root, parent[k]
        return root

    def check(self, word: Word, fuel: int) -> SemiVerdict:
        """TRIVIAL when the merges applied so far (at least the first
        ``fuel``) make every class sum to zero; UNKNOWN otherwise."""
        vec = exponent_vector(word)
        if not vec:
            return TRIVIAL
        while self.applied < fuel:
            self.applied += 1
            n = self.enum_n(self.applied)
            self.parent[self.find(2 * n - 1)] = self.find(2 * n)
        sums: dict[int, int] = {}
        for k, e in vec.items():
            root = self.find(k)
            sums[root] = sums.get(root, 0) + e
        return TRIVIAL if all(v == 0 for v in sums.values()) else UNKNOWN


def re_oracle(enum_n: Callable[[int], int], alphabet: Alphabet = A_ALPHABET, name: str = "re") -> GroupOracle:
    state = _MergeState(enum_n)
    return GroupOracle(f"re:{name}", alphabet, state.check)
