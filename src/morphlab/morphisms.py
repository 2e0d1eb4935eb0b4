"""Morphism representation, application/iteration and structural predicates.

A morphism is given by its images on single symbols and extends to words by
concatenation.  Injectivity here is the strong, free-monoid sense: phi(u) !=
phi(v) for all distinct source words u, v — equivalently, the image set is a
uniquely decodable code.  The decision procedure is the classical dangling-
suffix test (Sardinas–Patterson), run as a breadth-first search so that a
shortest witness pair can be reconstructed when the test fails.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import AlphabetMismatchError, BudgetExceededError, NonInjectiveMorphismError
from .words import Alphabet, Word

#: Separator conventions of the textual morphism format, e.g. "a->ab;b->a".
#: An empty image is written "a->." with "." denoting the empty word.
_ARROW = "->"
_SEP = ";"
_EPSILON = "."

#: Most characters that each proper image affix set may hold,
#: sum(|img| (|img| - 1) / 2) over the distinct images: about 10 MB of text.
AFFIX_BUDGET = 10**7

#: Most symbols that ``Morphism.apply`` and ``Morphism.iterate`` may build,
#: and most bytes that the CLI reads from an ``@file`` argument: 2^24, eight
#: times tm_22.
LENGTH_BUDGET = 2**24


@dataclass(frozen=True)
class Morphism:
    """A total map from source symbols to image words over the target alphabet.

    ``Morphism(source, target, images)`` checks that the images are given
    for exactly the source symbols, in source order, and that they use
    target symbols only.  :meth:`from_map`, and through it :meth:`parse`,
    checks only the caller's source symbols: the target it derives and the
    images it takes hold by construction, so the morphism is built trusted.
    """

    source: Alphabet
    target: Alphabet
    images: tuple[tuple[str, str], ...]  # (source symbol, image text), source order
    #: the images as a dict, source symbol -> image text
    image_map: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = [c for c, _ in self.images]
        if tuple(given) != self.source.symbols:
            raise ValueError(
                f"images must be given for exactly the source symbols {self.source.symbols!r}"
            )
        for c, img in self.images:
            if not set(img) <= self.target._symbol_set:
                raise ValueError(f"image of {c!r} uses symbols outside the target alphabet")
        self.__dict__["image_map"] = dict(self.images)  # frozen: setattr is blocked

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_map(cls, images: Mapping[str, str]) -> "Morphism":
        """The morphism with these images, its source in the mapping's order
        and its target the sorted image symbols (the source when every image
        is empty).

        The keys are checked as ``Alphabet(tuple(images))`` checks them.
        The target, derived from the images, and the morphism are built
        without their constructors' checks, which hold by construction."""
        source = Alphabet(tuple(images))
        chars = sorted(set("".join(images.values())))
        target = Alphabet._trusted(tuple(chars)) if chars else source
        phi = object.__new__(cls)
        fields = phi.__dict__  # frozen: setattr is blocked, the dict is not
        fields["source"] = source
        fields["target"] = target
        fields["images"] = tuple(images.items())
        fields["image_map"] = dict(images)
        return phi

    @classmethod
    def parse(cls, spec: str) -> "Morphism":
        """Parse the textual format ``a->ab;b->a`` (whitespace ignored)."""
        compact = "".join(spec.split())
        images: dict[str, str] = {}
        for part in compact.split(_SEP):
            if not part:
                continue
            if _ARROW not in part:
                raise ValueError(f"malformed morphism rule {part!r}")
            sym, img = part.split(_ARROW, 1)
            if len(sym) != 1:
                raise ValueError(f"source symbol must be a single character, got {sym!r}")
            if sym in images:
                raise ValueError(f"duplicate rule for symbol {sym!r}")
            images[sym] = "" if img == _EPSILON else img
        if not images:
            raise ValueError("empty morphism specification")
        return cls.from_map(images)

    def format(self) -> str:
        """Inverse of :meth:`parse`."""
        return _SEP.join(f"{c}{_ARROW}{img or _EPSILON}" for c, img in self.images)

    # -- basic accessors ------------------------------------------------------

    @cached_property
    def image_texts(self) -> tuple[str, ...]:
        """Distinct image texts, in source-symbol order of first appearance."""
        return tuple(dict.fromkeys(img for _, img in self.images))

    @cached_property
    def max_image_length(self) -> int:
        """max|img| over the images."""
        return max(map(len, self.image_texts))

    def _require_affix_budget(self) -> None:
        """Raise BudgetExceededError, before a proper image affix set is
        built, when it would hold more than ``AFFIX_BUDGET`` characters."""
        size = sum(len(img) * (len(img) - 1) // 2 for img in self.image_texts)
        if size > AFFIX_BUDGET:
            raise BudgetExceededError(
                f"the proper image affix sets would hold {size} characters each, "
                f"above the budget of {AFFIX_BUDGET}"
            )

    @cached_property
    def proper_image_prefixes(self) -> frozenset[str]:
        """Nonempty proper prefixes of images."""
        self._require_affix_budget()
        return frozenset(img[:k] for img in self.image_texts for k in range(1, len(img)))

    @cached_property
    def proper_image_suffixes(self) -> frozenset[str]:
        """Nonempty proper suffixes of images."""
        self._require_affix_budget()
        return frozenset(img[k:] for img in self.image_texts for k in range(1, len(img)))

    # -- application ----------------------------------------------------------

    def apply_text(self, text: str) -> str:
        """phi(text), with no length budget: the interference decision
        applies it to at most max|img| symbols, and :meth:`apply` checks
        the budget before it calls it on a whole word."""
        try:
            return "".join(map(self.image_map.__getitem__, text))
        except KeyError as exc:
            raise AlphabetMismatchError(f"symbol {exc.args[0]!r} has no image") from None

    def apply(self, u: Word) -> Word:
        """phi(u).  Raises BudgetExceededError, before anything is built,
        when it would hold more than ``LENGTH_BUDGET`` symbols."""
        self._require_iterable(u, 1)
        return Word._trusted(self.apply_text(u.text), self.target)

    @cached_property
    def is_endomorphism(self) -> bool:
        """True when every image symbol has an image itself, so the morphism
        can be iterated."""
        return all(set(img) <= self.source._symbol_set for _, img in self.images)

    def iterate(self, u: Word, k: int) -> Word:
        """phi^k(u), from per-symbol tables, after the budget check.

        T_1 is phi's image table, and T_(j+1)(c) = phi^j(phi(c)) is the join
        of T_j over phi(c), built only for the symbols c of phi^(k-j-1)(u);
        so every entry past T_1 is a factor of phi^k(u), and a symbol that
        u never reaches is not expanded.  phi^k(u) is the join of T_k over
        u.  The Python-level work is O(k |Sigma| max|img| + |u|); the rest
        is copying in ``str.join``.  Raises BudgetExceededError, before
        anything is built, when phi^k(u) would hold more than
        ``LENGTH_BUDGET`` symbols."""
        if k < 0:
            raise ValueError("iteration count must be >= 0")
        if k == 0:
            return u
        self._require_iterable(u, k)
        text, images = u.text, self.image_map
        symbols = frozenset(text)
        imageless = symbols - self.source._symbol_set
        if imageless:
            raise AlphabetMismatchError(f"symbol {min(imageless, key=text.find)!r} has no image")
        symbol_set = self._symbol_sets(symbols, k - 1)
        table = images
        for i in range(k - 2, -1, -1):
            get = table.__getitem__
            table = {c: "".join(map(get, images[c])) for c in symbol_set(i)}
        return Word._trusted("".join(map(table.__getitem__, text)), self.target)

    def _symbol_sets(self, first: frozenset[str], n: int) -> Callable[[int], frozenset[str]]:
        """i -> S_i, the set of symbols of phi^i(u), for 0 <= i < n, where
        S_0 = ``first`` holds the symbols of u.  S_(i+1) is the set of
        symbols of the images of S_i, so the sequence is eventually periodic
        and only its first cycle is stored, whatever n is."""
        sets, index = [first], {first: 0}
        for _ in range(n - 1):
            step = frozenset("".join(map(self.image_map.__getitem__, sets[-1])))
            if step in index:
                start = index[step]
                period = len(sets) - start
                return lambda i: sets[i] if i < start else sets[start + (i - start) % period]
            index[step] = len(sets)
            sets.append(step)
        return sets.__getitem__

    def _require_iterable(self, u: Word, k: int) -> None:
        """Raise, before anything is built, when phi^k(u) for k >= 1 cannot
        be built: ValueError when k >= 2 and phi is no endomorphism,
        BudgetExceededError when it would hold more than ``LENGTH_BUDGET``
        symbols."""
        if k >= 2 and not self.is_endomorphism:
            raise ValueError("iterating k >= 2 requires image symbols to map into the source")
        # |u| max|img|^k bounds |phi^k(u)|; capping the exponent at the
        # budget's bit length keeps it cheap and changes no comparison, since
        # max|img|^k is then above the budget whenever max|img| >= 2
        if (
            len(u) * self.max_image_length ** min(k, LENGTH_BUDGET.bit_length()) > LENGTH_BUDGET
            and self._iterate_length(u.text, k) > LENGTH_BUDGET
        ):
            raise BudgetExceededError(
                f"phi^{k}(u) would hold more than {LENGTH_BUDGET} symbols, the budget"
            )

    def _iterate_length(self, text: str, k: int) -> int:
        """|phi^k(text)| for k >= 1 from :meth:`_symbol_lengths`, or some
        number above ``LENGTH_BUDGET`` when it is above it; no word is
        built.  An unknown symbol counts 0 (:meth:`iterate` rejects it)."""
        lengths = self._symbol_lengths(k)
        return sum(lengths.get(c, 0) * count for c, count in Counter(text).items())

    def _symbol_lengths(self, k: int) -> dict[str, int]:
        """|phi^k(c)| for each source symbol c and k >= 1, each capped just
        above ``LENGTH_BUDGET``, so the entries stay small; a table that
        stops changing ends the loop."""
        cap = LENGTH_BUDGET + 1
        lengths = {c: min(len(img), cap) for c, img in self.images}
        for _ in range(k - 1):
            step = {c: min(sum(map(lengths.__getitem__, img)), cap) for c, img in self.images}
            if step == lengths:
                break
            lengths = step
        return lengths

    # -- structural predicates ------------------------------------------------

    @cached_property
    def injectivity_witness(self) -> tuple[Word, Word] | None:
        """None when injective; otherwise a canonical pair of distinct source
        words with equal images.

        Among the pairs whose words start with different symbols it has
        minimal total length and is the lexicographically smallest; a pair
        outside that class may be smaller (``a->.;b->b`` gives (ab, b),
        though (a, aa) has the same length).  Only a one-symbol source with
        an empty image has no such pair; it gives (c, cc) for the erased c."""
        pair = _injectivity_witness(self.image_map, self.source.symbols)
        if pair is None:
            return None
        u, v = pair
        return Word._trusted(u, self.source), Word._trusted(v, self.source)

    @cached_property
    def is_injective(self) -> bool:
        return self.injectivity_witness is None

    def require_injective(self, subject: str) -> None:
        """Raise NonInjectiveMorphismError, carrying the injectivity
        witness, unless phi is injective.  ``subject`` names what is
        defined for injective morphisms only.  An injective morphism is
        non-erasing: an erased image gives a witness."""
        if not self.is_injective:
            raise NonInjectiveMorphismError(
                f"{subject} is defined for injective morphisms only",
                witness=self.injectivity_witness,
            )


def _injectivity_witness(
    images: Mapping[str, str], symbols: Iterable[str]
) -> tuple[str, str] | None:
    """BFS over dangling suffixes; returns a shortest-total-length witness
    pair of distinct source words with equal images that start with
    different symbols, else (c, cc) for the first erased c, or None if
    injective.

    A state (s, ahead, behind) means images(ahead) == images(behind) + s and
    the words ahead/behind start with different symbols.  Appending a symbol
    to the behind side either consumes part of s, overshoots (the roles
    swap), or mismatches.
    """
    symbols = tuple(symbols)
    completions: list[tuple[str, str]] = []
    queue: deque[tuple[str, tuple[str, ...], tuple[str, ...]]] = deque()
    seen: set[str] = set()

    for c in symbols:
        for c2 in symbols:
            if c == c2:
                continue
            ic, ic2 = images[c], images[c2]
            if ic2.startswith(ic):
                rest = ic2[len(ic):]
                if not rest:
                    completions.append((c2, c))
                else:
                    queue.append((rest, (c2,), (c,)))
    if completions:
        return min((min(u, v), max(u, v)) for u, v in completions)

    while queue:
        level = len(queue)
        for _ in range(level):
            suffix, ahead, behind = queue.popleft()
            for c in symbols:
                t = images[c]
                if t == suffix:
                    completions.append(("".join(ahead), "".join(behind) + c))
                elif suffix.startswith(t):
                    state = suffix[len(t):]
                    if state not in seen:
                        seen.add(state)
                        queue.append((state, ahead, behind + (c,)))
                elif t.startswith(suffix):
                    state = t[len(suffix):]
                    if state not in seen:
                        seen.add(state)
                        queue.append((state, behind + (c,), ahead))
        if completions:
            return min((min(u, v), max(u, v)) for u, v in completions)
    # No pair starts with different symbols: a one-symbol source collides
    # only through an erased image, as phi(c) = phi(cc).
    for c in symbols:
        if not images[c]:
            return c, c + c
    return None
