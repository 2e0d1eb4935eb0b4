"""Core word and alphabet types plus elementary occurrence operations.

All public operations report 1-based positions; internal indexing is 0-based.
The empty word is treated as occurring ``|w| + 1`` times in ``w`` (before the
first symbol, between consecutive symbols, and after the last), represented
by the degenerate intervals ``[i, i-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AlphabetMismatchError


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of pairwise-distinct single-character symbols.

    ``Alphabet(symbols)`` checks its symbols.  An alphabet the library
    derives from the distinct characters of a string, the target of
    ``Morphism.from_map`` and the sorted alphabet of :func:`word`, is
    trusted and built by :meth:`_trusted` without the check.
    """

    symbols: tuple[str, ...]
    #: the symbols as a set, for membership tests
    _symbol_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        for s in self.symbols:
            if not (isinstance(s, str) and len(s) == 1):
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        symbol_set = frozenset(self.symbols)
        if len(symbol_set) != len(self.symbols):
            raise ValueError(f"alphabet symbols must be distinct: {self.symbols!r}")
        self.__dict__["_symbol_set"] = symbol_set  # frozen: setattr is blocked

    @classmethod
    def _trusted(cls, symbols: tuple[str, ...]) -> "Alphabet":
        """An alphabet of the distinct characters ``symbols``, at least
        one: built without ``__post_init__``'s checks."""
        alphabet = object.__new__(cls)
        fields = alphabet.__dict__
        fields["symbols"] = symbols
        fields["_symbol_set"] = frozenset(symbols)
        return alphabet

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbol_set

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def is_binary(self) -> bool:
        return len(self.symbols) == 2


#: The default two-letter alphabet used throughout the classic examples.
BINARY = Alphabet(("a", "b"))


@dataclass(frozen=True)
class Word:
    """A finite word over an :class:`Alphabet`.

    Thin wrapper around ``str``: indexing is 0-based and slicing returns a
    new :class:`Word` over the same alphabet.  The public constructors
    validate: ``Word(text, alphabet)`` checks the text against the alphabet
    and :func:`word` derives an alphabet that fits it.  A word the library
    builds from valid parts is trusted and built by :meth:`_trusted`
    without the check: slices, concatenations, :func:`flip`, morphic images
    and iterates, and the classic words.
    """

    text: str
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        if not set(self.text) <= self.alphabet._symbol_set:
            bad = sorted(set(self.text) - self.alphabet._symbol_set)
            raise ValueError(f"symbols {bad!r} not in alphabet {self.alphabet.symbols!r}")

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text

    def __iter__(self):
        return iter(self.text)

    @classmethod
    def _trusted(cls, text: str, alphabet: Alphabet) -> "Word":
        """A word whose symbols are known to lie in ``alphabet``: built
        without ``__post_init__``'s check."""
        w = object.__new__(cls)
        fields = w.__dict__  # frozen: setattr is blocked, the dict is not
        fields["text"] = text
        fields["alphabet"] = alphabet
        return w

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.text[item], self.alphabet)
        return self.text[item]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word._trusted(self.text + other.text, self.alphabet)


def word(text: str) -> Word:
    """Convenience constructor: a word over :data:`BINARY` when the text fits
    it, otherwise over the sorted alphabet of the characters that occur.
    ``Word(text, alphabet)`` takes an explicit alphabet."""
    symbols = set(text)
    if symbols <= BINARY._symbol_set:
        return Word._trusted(text, BINARY)
    return Word._trusted(text, Alphabet._trusted(tuple(sorted(symbols))))


@dataclass(frozen=True)
class OccurrenceSet:
    """Starting positions (1-based, strictly increasing) of a pattern in a text."""

    positions: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        if self.positions and self.positions[0] < 1:
            raise ValueError("positions are 1-based")

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __contains__(self, position: int) -> bool:
        return position in self.positions

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.positions)


def _check_same_alphabet(u: Word, w: Word) -> None:
    if u.alphabet != w.alphabet:
        raise AlphabetMismatchError(
            f"pattern alphabet {u.alphabet.symbols!r} != text alphabet {w.alphabet.symbols!r}"
        )


def find_all(pattern: str, text: str) -> list[int]:
    """All 0-based starting positions of ``pattern`` in ``text``, overlapping
    occurrences included, from one C-level ``str.find`` per occurrence.
    CPython switches ``str.find`` to the two-way algorithm only for long
    needles; for short patterns such as a morphism's images the loop's worst
    case is O(len(text) * len(pattern))."""
    if not pattern:
        return list(range(len(text) + 1))
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def occurrences(u: Word, w: Word) -> OccurrenceSet:
    """Occurrence set of ``u`` in ``w`` (1-based starting positions)."""
    _check_same_alphabet(u, w)
    return OccurrenceSet(tuple(i + 1 for i in find_all(u.text, w.text)))


def occ_count(u: Word, w: Word) -> int:
    """Number of occurrences of ``u`` in ``w``."""
    return len(occurrences(u, w))


def naive_occurrences(u: Word, w: Word) -> OccurrenceSet:
    """Sliding-window comparison oracle; same contract as :func:`occurrences`."""
    _check_same_alphabet(u, w)
    m, ut, wt = len(u), u.text, w.text
    if m == 0:
        return OccurrenceSet(tuple(range(1, len(wt) + 2)))
    positions = tuple(
        i + 1 for i in range(len(wt) - m + 1) if wt[i : i + m] == ut
    )
    return OccurrenceSet(positions)


def flip(w: Word) -> Word:
    """Letterwise complement over a binary alphabet."""
    if not w.alphabet.is_binary:
        raise ValueError("flip requires a binary alphabet")
    a, b = w.alphabet.symbols
    return Word._trusted(w.text.translate(str.maketrans(a + b, b + a)), w.alphabet)


def longest_proper_prefix(w: Word) -> Word:
    """``w`` with its final symbol removed; requires ``|w| >= 2``."""
    if len(w) < 2:
        raise ValueError("longest_proper_prefix requires a word of length >= 2")
    return w[:-1]
