"""Words over indexed generator alphabets.

A word is a whitespace-separated sequence of terms: a term is a maximal run
of non-whitespace.  A well-formed term is a generator name, optionally
followed by ``^`` and a decimal exponent (with optional sign).  Generator
names are a single lowercase letter; indexed letters carry a positive
decimal index glued to the letter.  Anything else in the run is a malformed
term.  Examples of terms::

    f    s^-1    z^3    b3    x17^-2

Words are stored in run-length canonical form: a tuple of runs ``(letter,
index, exponent)``, ``index`` None for a plain letter, with no zero exponents
and no two adjacent runs sharing a generator.  Canonical form is exactly free
reduction for words in distinct letters, so two words are freely equal iff
their canonical forms are equal.  :func:`parse_word` reads all terms with
one ``findall``; a bad term goes to one error locator, which names its column.

The normal forms of both wreath stages are run lists too, with factors
keyed by a generator index and a conjugating shift: :class:`WreathElement`
holds them.  Every run list in the package is ``(*key, exponent)``, and one
push keeps words and both stages canonical (the parser inlines its rule).

The package's value types are plain ``__slots__`` classes on one immutable
base, ``_Frozen``, rather than dataclasses: each CLI call is a fresh process,
and a dataclass decorator generates and compiles its methods at every import.
They compare and hash as frozen dataclasses do.  The two oracles,
``base_groups.GroupOracle`` and ``orders.OrderOracle``, stay dataclasses, so
that ``dataclasses.replace`` can swap their rules.
"""

from __future__ import annotations

import re
import sys
from typing import ClassVar, Iterable, NoReturn


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


class _Frozen:
    """An immutable value whose fields, named in order by ``_fields``, are its
    ``__slots__``, set once by ``__init__``.  It compares and hashes by class
    and fields, prints, copies and pickles as a frozen dataclass does."""

    __slots__ = _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Alphabet(_Frozen):
    """A finite set of plain letters plus a set of indexed letter families.

    Equality is identity, and so is the hash: build each alphabet once, as
    the four module constants below are, which copy and pickle as themselves.
    Two alphabets with the same fields are two, and their words do not mix.
    """

    __slots__ = _fields = ("name", "plain", "indexed")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, name: str, plain: frozenset[str] = frozenset(),
                 indexed: frozenset[str] = frozenset()):
        for letter in plain | indexed:
            if not (len(letter) == 1 and "a" <= letter <= "z"):
                raise WordError(f"alphabet letter must be one lowercase char, got {letter!r}")
        if plain & indexed:
            raise WordError("a letter cannot be both plain and indexed")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "indexed", indexed)

    def validate(self, letter: str, index: int | None = None) -> None:
        """Raise WordError unless ``(letter, index)`` is a generator here."""
        if letter in self.plain:
            if index is not None:
                raise WordError(f"letter {letter!r} does not take an index")
        elif letter in self.indexed:
            if index is None:
                raise WordError(f"letter {letter!r} requires an index")
            if index < 1:
                raise WordError(f"index must be >= 1, got {letter}{_shown(index)}")
        else:
            raise WordError(f"unknown letter {letter!r} for alphabet {self.name}")

    def __reduce__(self):
        # A module constant reduces to its global name, as an enum member does.
        name = next((name for name, value in globals().items() if value is self), None)
        return name or super().__reduce__()


_Run = tuple[str, int | None, int]  # (letter, index, exponent)


def _push(runs: list, entry: tuple) -> None:
    """Append ``entry = (*key, exponent)`` to a canonical run list.

    The one merge rule of every normal form in the package: an entry whose
    key equals the key of the last run merges into it, a zero sum drops
    that run, and a zero exponent adds nothing.  Since each push looks only
    at the new last run, cancellation cascades.  Keys have one or two
    entries (``(letter, index)`` for a word); they are compared in place.
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


def _power(element, identity, n: int):
    """The n-th power of ``element``: ``identity`` when n is 0.

    By repeated squaring, so O(log |n|) products.  Words and wreath elements
    multiply associatively on the nose, so every grouping of the |n| factors
    gives the same normal form as the left-to-right product.
    """
    base = element if n >= 0 else ~element
    out, n = identity, abs(n)
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Word(_Frozen):
    """A canonical word: runs ``(letter, index, exponent)``, ``index`` None for
    a plain letter.  Build with :meth:`make` or :func:`parse_word`."""

    __slots__ = _fields = ("alphabet", "runs")

    def __init__(self, alphabet: Alphabet, runs: tuple[_Run, ...] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "runs", runs)

    @staticmethod
    def make(alphabet: Alphabet, runs: Iterable[_Run]) -> Word:
        """Check and canonicalize an iterable of (letter, index, exponent) runs."""
        out: list[_Run] = []
        for letter, index, exp in runs:
            alphabet.validate(letter, index)
            _push(out, (letter, index, exp))
        return Word(alphabet, tuple(out))

    @staticmethod
    def identity(alphabet: Alphabet) -> Word:
        return Word(alphabet, ())

    def __mul__(self, other: Word) -> Word:
        if type(other) is not Word:
            return NotImplemented
        if self.alphabet is not other.alphabet:
            raise WordError("cannot multiply words over different alphabets")
        runs = list(self.runs)
        for run in other.runs:
            _push(runs, run)
        return Word(self.alphabet, tuple(runs))

    def __invert__(self) -> Word:
        return Word(self.alphabet, tuple((g, i, -e) for g, i, e in reversed(self.runs)))

    def __pow__(self, n: int) -> Word:
        return _power(self, Word.identity(self.alphabet), n)

    def __str__(self) -> str:
        return word_to_text(self)


def max_digits() -> int:
    """The most decimal digits an index, exponent or printed integer may have.

    This is Python's integer-to-text limit, or its default of 4300 when the
    limit is off (0, or absent before Python 3.10.7), so that the package
    bounds its integers the same way under every setting.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _fits(n: int) -> bool:
    # Whether n has at most B = max_digits() decimal digits, its sign not
    # counted, decided without converting n to text: 10**B lies between
    # 2**(3B) and 2**(4B), so only a bit length between the two needs the
    # exact comparison.
    bound = max_digits()
    bits = n.bit_length()
    return bits <= 3 * bound or (bits <= 4 * bound and abs(n) < 10**bound)


def int_text(n: int) -> str:
    """``str(n)``, or ValueError when ``n`` has more than :func:`max_digits` decimal
    digits, its sign not counted.  Every integer the package prints is rendered here."""
    if _fits(n):
        return str(n)
    raise ValueError(
        f"the result holds an integer of more than {max_digits()} decimal digits, "
        "too long to print"
    )


def _shown(n: int) -> str:
    # A caller's integer as an error message shows it: its text within the
    # digit bound, else a note naming the bound, without converting it to text.
    return int_text(n) if _fits(n) else f"<more than {max_digits()} digits>"


def _too_long(digits: str) -> bool:
    # Whether integer text has more than max_digits() digits, its sign not
    # counted: the one length rule of the integers the package reads.
    return len(digits.lstrip("+-")) > max_digits()


def _at_least(n: int, least: int, what: str) -> int:
    """``n``, or ValueError ``{what} must be >= {least}, got {n}``: the one range
    check of the package's integer arguments."""
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {_shown(n)}")
    return n


# One match per term: a well-formed term fills the groups, and any other
# maximal run of non-whitespace matches the second branch as a malformed term.
# ``[0-9]``, not ``\d``, so that non-ASCII digits stay malformed.
_TOKEN = re.compile(r"([a-z])([0-9]*)(?:\^([+-]?[0-9]+))?(?!\S)|\S+")


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse word text; raises WordError with a 1-based column on bad input.

    An index or exponent may have at most :func:`max_digits` digits.  Each
    term of one ``findall`` is checked against the alphabet's letter sets, and
    against the digit bound only if the text is longer than it, then merged;
    the first bad term goes to the error locator :func:`_raise_at_bad_term`.
    """
    long_text = len(text) > max_digits()
    plain, indexed = alphabet.plain, alphabet.indexed
    runs: list[_Run] = []
    for letter, digits, exp_text in _TOKEN.findall(text):
        if long_text and (_too_long(digits) or _too_long(exp_text)):
            _raise_at_bad_term(text, alphabet)
        index = int(digits) if digits else None
        if (letter not in indexed or index < 1) if digits else letter not in plain:
            _raise_at_bad_term(text, alphabet)
        exp = int(exp_text) if exp_text else 1
        if runs and runs[-1][0] == letter and runs[-1][1] == index:
            exp += runs.pop()[2]
        if exp:
            runs.append((letter, index, exp))
    return Word(alphabet, tuple(runs))


def _raise_at_bad_term(text: str, alphabet: Alphabet) -> NoReturn:
    # The WordError of the first malformed, too long or foreign term, at its column.
    for m in _TOKEN.finditer(text):
        letter, digits, exp_text = m.groups()
        if letter is None:
            raise WordError(f"malformed term {m.group()!r}", m.start() + 1)
        if _too_long(digits) or _too_long(exp_text or ""):
            raise WordError("index or exponent has too many digits", m.start() + 1)
        try:
            alphabet.validate(letter, int(digits) if digits else None)
        except WordError as exc:
            raise WordError(str(exc), m.start() + 1) from None
    raise AssertionError(f"no bad term in {text!r}")


def word_to_text(word: Word) -> str:
    """Inverse of parse_word on canonical words; identity prints as ''."""
    terms = []
    for letter, index, exp in word.runs:
        gen = letter if index is None else letter + int_text(index)
        terms.append(gen if exp == 1 else f"{gen}^{int_text(exp)}")
    return " ".join(terms)


# Alphabets used across the package.  ``x`` generates the rank-omega free
# abelian target of the diagonal encoding, ``a`` the presented base groups,
# ``z``/``b`` the inner wreath stage, ``f``/``s`` the two-generator group.
X_ALPHABET = Alphabet("free-abelian", indexed=frozenset({"x"}))
A_ALPHABET = Alphabet("presented-base", indexed=frozenset({"a"}))
ZB_ALPHABET = Alphabet("inner-wreath", plain=frozenset({"z"}), indexed=frozenset({"b"}))
FS_ALPHABET = Alphabet("two-generator", plain=frozenset({"f", "s"}))


class WreathElement(_Frozen):
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

    __slots__ = _fields = ("factors", "tail")
    ALPHABET: ClassVar[Alphabet]
    SHIFT: ClassVar[str]
    GENERATOR: ClassVar[str]

    def __init__(self, factors: tuple[tuple[int, ...], ...] = (), tail: int = 0):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "tail", tail)

    @classmethod
    def make(cls, factors: Iterable[tuple[int, ...]], tail: int = 0):
        """Canonicalize factors; an invalid generator index is an error."""
        out: list[tuple[int, ...]] = []
        for factor in factors:
            cls._run(factor)
            _push(out, tuple(factor))
        return cls(tuple(out), tail)

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def _run(cls, factor: tuple[int, ...]) -> _Run:
        # The checked generator run of a factor: ``(letter, index, exponent)``.
        index = factor[0] if len(factor) == 3 else None
        cls.ALPHABET.validate(cls.GENERATOR, index)
        return cls.GENERATOR, index, factor[-1]

    @staticmethod
    def _push_shifted(out: list, factors: Iterable[tuple[int, ...]], by: int, sign: int) -> None:
        # Conjugating a factor by the shift^by adds ``by`` to its shift.
        for factor in factors:
            _push(out, factor[:-2] + (factor[-2] + by, sign * factor[-1]))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        factors = list(self.factors)
        self._push_shifted(factors, other.factors, self.tail, 1)
        return type(self)(tuple(factors), self.tail + other.tail)

    def __invert__(self):
        factors: list[tuple[int, ...]] = []
        self._push_shifted(factors, reversed(self.factors), -self.tail, -1)
        return type(self)(tuple(factors), -self.tail)

    def __pow__(self, n: int):
        return _power(self, self.identity(), n)

    @classmethod
    def from_word(cls, word: Word):
        """Evaluate a word over this stage's alphabet into normal form."""
        if word.alphabet is not cls.ALPHABET:
            raise ValueError(f"expected the {cls.ALPHABET.name} alphabet")
        factors: list[tuple[int, ...]] = []
        offset = 0
        for letter, index, exp in word.runs:
            if letter == cls.SHIFT:
                offset += exp
            elif index is None:
                _push(factors, (offset, exp))
            else:
                _push(factors, (index, offset, exp))
        return cls(tuple(factors), offset)

    def to_word(self) -> Word:
        runs: list[_Run] = []
        at = 0
        for factor in self.factors:
            _push(runs, (self.SHIFT, None, factor[-2] - at))
            _push(runs, self._run(factor))
            at = factor[-2]
        _push(runs, (self.SHIFT, None, self.tail - at))
        return Word(self.ALPHABET, tuple(runs))

    def normal_form_text(self) -> str:
        body = ",".join("(" + ",".join(map(int_text, factor)) + ")" for factor in self.factors)
        return f"[{body}] ; {int_text(self.tail)}"
