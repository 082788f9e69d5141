"""Words over indexed generator alphabets.

A word is a whitespace-separated sequence of terms.  Each term is a generator
name, optionally followed by ``^`` and a decimal exponent (with optional
sign).  Generator names are a single lowercase letter; indexed letters carry
a positive decimal index glued to the letter.  Examples of terms::

    f    s^-1    z^3    b3    x17^-2

Words are stored in run-length canonical form: a tuple of (generator,
exponent) runs with no zero exponents and no two adjacent runs sharing a
generator.  Canonical form is exactly free reduction for words in distinct
letters, so two words are freely equal iff their canonical forms are equal.

The normal forms of both wreath stages are run lists too, with factors
keyed by a generator index and a conjugating shift: :class:`WreathElement`
holds them, and one push keeps words and both stages canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, NamedTuple


class WordError(ValueError):
    """Raised for malformed word text or alphabet violations.

    ``position`` is the 1-based column of the offending term when the error
    comes from parsing, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"column {position}: {message}"
        super().__init__(message)
        self.position = position


class Gen(NamedTuple):
    """A single generator: a letter plus an index (None for plain letters)."""

    letter: str
    index: int | None

    def __str__(self) -> str:
        return self.letter if self.index is None else f"{self.letter}{self.index}"


@dataclass(frozen=True)
class Alphabet:
    """A finite set of plain letters plus a set of indexed letter families."""

    name: str
    plain: frozenset[str] = frozenset()
    indexed: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for letter in self.plain | self.indexed:
            if not (len(letter) == 1 and letter.islower()):
                raise WordError(f"alphabet letter must be one lowercase char, got {letter!r}")
        if self.plain & self.indexed:
            raise WordError("a letter cannot be both plain and indexed")

    def gen(self, letter: str, index: int | None = None) -> Gen:
        """Build a validated generator of this alphabet."""
        if letter in self.plain:
            if index is not None:
                raise WordError(f"letter {letter!r} does not take an index")
            return Gen(letter, None)
        if letter in self.indexed:
            if index is None:
                raise WordError(f"letter {letter!r} requires an index")
            if index < 1:
                raise WordError(f"index must be >= 1, got {letter}{index}")
            return Gen(letter, index)
        raise WordError(f"unknown letter {letter!r} for alphabet {self.name}")


def _push(runs: list, entry: tuple) -> None:
    """Append ``entry = (*key, exponent)`` to a canonical run list.

    The one merge rule of every normal form in the package: an entry whose
    key equals the key of the last run merges into it, a zero sum drops
    that run, and a zero exponent adds nothing.  Since each push looks only
    at the new last run, cancellation cascades.  Keys have one or two
    entries; they are compared in place, without slicing.
    """
    exp = entry[-1]
    if exp == 0:
        return
    if runs:
        last = runs[-1]
        if last[0] == entry[0] and last[-2] == entry[-2]:
            merged = last[-1] + exp
            if merged:
                runs[-1] = entry[:-1] + (merged,)
            else:
                runs.pop()
            return
    runs.append(entry)


@dataclass(frozen=True)
class Word:
    """A canonical word.  Build with :meth:`make` or :func:`parse_word`."""

    alphabet: Alphabet
    runs: tuple[tuple[Gen, int], ...] = ()

    @staticmethod
    def make(alphabet: Alphabet, pairs: Iterable[tuple[Gen, int]]) -> Word:
        """Canonicalize an iterable of (generator, exponent) pairs."""
        runs: list[tuple[Gen, int]] = []
        for gen, exp in pairs:
            alphabet.gen(gen.letter, gen.index)
            _push(runs, (gen, exp))
        return Word(alphabet, tuple(runs))

    @staticmethod
    def identity(alphabet: Alphabet) -> Word:
        return Word(alphabet, ())

    def is_identity(self) -> bool:
        return not self.runs

    def __iter__(self) -> Iterator[tuple[Gen, int]]:
        return iter(self.runs)

    def __mul__(self, other: Word) -> Word:
        if self.alphabet != other.alphabet:
            raise WordError("cannot multiply words over different alphabets")
        runs = list(self.runs)
        for run in other.runs:
            _push(runs, run)
        return Word(self.alphabet, tuple(runs))

    def __invert__(self) -> Word:
        return Word(self.alphabet, tuple((g, -e) for g, e in reversed(self.runs)))

    def __pow__(self, n: int) -> Word:
        if n == 0:
            return Word.identity(self.alphabet)
        base = self if n > 0 else ~self
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __str__(self) -> str:
        return word_to_text(self)


_TERM = re.compile(r"([a-z])([0-9]*)(?:\^([+-]?[0-9]+))?\Z")


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse word text; raises WordError with a 1-based column on bad input."""
    runs: list[tuple[Gen, int]] = []
    for token_match in re.finditer(r"\S+", text):
        token = token_match.group(0)
        pos = token_match.start() + 1
        m = _TERM.match(token)
        if m is None:
            raise WordError(f"malformed term {token!r}", pos)
        letter, digits, exp_text = m.group(1), m.group(2), m.group(3)
        try:
            index = int(digits) if digits else None
            exp = int(exp_text) if exp_text is not None else 1
        except ValueError:  # the digits pass Python's integer-to-text limit
            raise WordError("index or exponent has too many digits", pos) from None
        try:
            gen = alphabet.gen(letter, index)
        except WordError as exc:
            raise WordError(str(exc), pos) from None
        _push(runs, (gen, exp))
    return Word(alphabet, tuple(runs))


def word_to_text(word: Word) -> str:
    """Inverse of parse_word on canonical words; identity prints as ''."""
    terms = []
    for gen, exp in word.runs:
        terms.append(str(gen) if exp == 1 else f"{gen}^{exp}")
    return " ".join(terms)


def commutator(a, b):
    """``a b a^-1 b^-1``, for words or any element type with ``*`` and ``~``."""
    return a * b * ~a * ~b


# Alphabets used across the package.  ``x`` generates the rank-omega free
# abelian target of the diagonal encoding, ``a`` the presented base groups,
# ``z``/``b`` the inner wreath stage, ``f``/``s`` the two-generator group.
X_ALPHABET = Alphabet("free-abelian", indexed=frozenset({"x"}))
A_ALPHABET = Alphabet("presented-base", indexed=frozenset({"a"}))
ZB_ALPHABET = Alphabet("inner-wreath", plain=frozenset({"z"}), indexed=frozenset({"b"}))
FS_ALPHABET = Alphabet("two-generator", plain=frozenset({"f", "s"}))


@dataclass(frozen=True)
class WreathElement:
    """Normal form in a restricted wreath product ``B wr Z``, either stage.

    The infinite cyclic top is generated by a shift letter (``z`` or ``s``)
    and the base by the conjugates of a generator letter (indexed ``b_i``
    or plain ``f``).  An element is an ordered tuple of factors followed by
    a trailing power of the shift.  A factor ``(*key, shift, exponent)``
    denotes the ``shift``-th conjugate of a generator raised to
    ``exponent``; its key is every entry but the exponent: ``(i, eta)`` for
    ``b_i`` conjugated by ``z^eta``, ``(gamma,)`` for ``f`` conjugated by
    ``s^gamma``.  Adjacent factors with equal keys merge through the same
    push as word runs (pointwise values need not commute for a general
    base), so multiplication is associative on the nose.  Equal normal
    forms mean equal elements, but not conversely; each stage decides
    equality relative to a base oracle.

    Each stage subclasses this, naming its alphabet and letters; the stage
    module adds the value rule of its generator.
    """

    factors: tuple[tuple[int, ...], ...] = ()
    tail: int = 0

    ALPHABET: ClassVar[Alphabet]
    SHIFT: ClassVar[str]
    GENERATOR: ClassVar[str]

    @classmethod
    def make(cls, factors: Iterable[tuple[int, ...]], tail: int = 0):
        """Canonicalize factors; an invalid generator index is an error."""
        out: list[tuple[int, ...]] = []
        for factor in factors:
            cls._gen(factor)
            _push(out, tuple(factor))
        return cls(tuple(out), tail)

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def _gen(cls, factor: tuple[int, ...]) -> Gen:
        return cls.ALPHABET.gen(cls.GENERATOR, *factor[:-2])

    @staticmethod
    def _push_shifted(out: list, factors: Iterable[tuple[int, ...]], by: int, sign: int) -> None:
        # Conjugating a factor by the shift^by adds ``by`` to its shift.
        for factor in factors:
            _push(out, factor[:-2] + (factor[-2] + by, sign * factor[-1]))

    def __mul__(self, other):
        factors = list(self.factors)
        self._push_shifted(factors, other.factors, self.tail, 1)
        return type(self)(tuple(factors), self.tail + other.tail)

    def __invert__(self):
        factors: list[tuple[int, ...]] = []
        self._push_shifted(factors, reversed(self.factors), -self.tail, -1)
        return type(self)(tuple(factors), -self.tail)

    def __pow__(self, n: int):
        base = self if n >= 0 else ~self
        out = type(self)()
        for _ in range(abs(n)):
            out = out * base
        return out

    @classmethod
    def from_word(cls, word: Word):
        """Evaluate a word over this stage's alphabet into normal form."""
        if word.alphabet != cls.ALPHABET:
            raise ValueError(f"expected the {cls.ALPHABET.name} alphabet")
        factors: list[tuple[int, ...]] = []
        offset = 0
        for gen, exp in word.runs:
            if gen.letter == cls.SHIFT:
                offset += exp
            elif gen.index is None:
                _push(factors, (offset, exp))
            else:
                _push(factors, (gen.index, offset, exp))
        return cls(tuple(factors), offset)

    def to_word(self) -> Word:
        shift = Gen(self.SHIFT, None)
        pairs: list[tuple[Gen, int]] = []
        at = 0
        for factor in self.factors:
            pairs.append((shift, factor[-2] - at))
            pairs.append((self._gen(factor), factor[-1]))
            at = factor[-2]
        pairs.append((shift, self.tail - at))
        return Word.make(self.ALPHABET, pairs)

    def normal_form_text(self) -> str:
        body = ",".join("(" + ",".join(map(str, factor)) + ")" for factor in self.factors)
        return f"[{body}] ; {self.tail}"
