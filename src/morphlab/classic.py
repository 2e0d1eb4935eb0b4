"""Fibonacci and Thue-Morse word generators and the named morphisms.

Index conventions: F_1 = b, F_2 = a, F_i = F_{i-1} . F_{i-2}; tm_1 = a,
tm_i = tm_{i-1} . flip(tm_{i-1}).  Generation is by recursion on raw
``str`` texts (linear in the output length), with the flip done by
``str.translate``; morphism iteration is kept as an independent
cross-check.  The words returned are built over :data:`BINARY` without
re-validation, since every text is made of a and b by construction.  Every
generator that builds F_i checks its order against
:data:`MAX_FIBONACCI_ORDER` before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .morphisms import Morphism
from .words import BINARY, Word

#: Index caps, read at each call; f_30 = 832040 and 2^21 symbols are desk scale.
MAX_FIBONACCI_ORDER = 30
MAX_THUE_MORSE_ORDER = 22


@dataclass(frozen=True)
class NamedMorphism:
    name: str
    morphism: Morphism


def _named(name: str, spec: str) -> NamedMorphism:
    return NamedMorphism(name, Morphism.parse(spec))


NAMED_MORPHISMS: dict[str, NamedMorphism] = {
    nm.name: nm
    for nm in (
        _named("fibonacci", "a->ab;b->a"),
        _named("thue-morse", "a->ab;b->ba"),
        _named("variant-thue-morse", "a->abc;b->ac;c->b"),
        _named("mephisto-waltz", "a->aab;b->bba"),
        _named("thue-morse-morse", "a->abb;b->baa"),
        _named("last-nonzero-digit", "a->aba;b->abb"),
    )
}

FIBONACCI: Morphism = NAMED_MORPHISMS["fibonacci"].morphism
THUE_MORSE: Morphism = NAMED_MORPHISMS["thue-morse"].morphism


def _check_order(i: int, max_order: int, family: str) -> None:
    if i < 1:
        raise ValueError(f"{family} index must be >= 1, got {i}")
    if i > max_order:
        raise ValueError(f"{family} index {i} exceeds the cap {max_order}")


@lru_cache(maxsize=None)
def _fibonacci_text(i: int) -> str:
    if i == 1:
        return "b"
    if i == 2:
        return "a"
    return _fibonacci_text(i - 1) + _fibonacci_text(i - 2)


def fibonacci_word(i: int) -> Word:
    """The Fibonacci word F_i over {a, b}, for 1 <= i <= MAX_FIBONACCI_ORDER."""
    _check_order(i, MAX_FIBONACCI_ORDER, "Fibonacci")
    return Word._trusted(_fibonacci_text(i), BINARY)


def fibonacci_number(i: int) -> int:
    """f_i = |F_i|; f_1 = f_2 = 1."""
    if i < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 2):
        a, b = b, a + b
    return b


_FLIP = str.maketrans("ab", "ba")


@lru_cache(maxsize=None)
def _thue_morse_text(i: int) -> str:
    if i == 1:
        return "a"
    prev = _thue_morse_text(i - 1)
    return prev + prev.translate(_FLIP)


def thue_morse_word(i: int) -> Word:
    """The Thue-Morse word tm_i over {a, b}, |tm_i| = 2^(i-1), for
    1 <= i <= MAX_THUE_MORSE_ORDER."""
    _check_order(i, MAX_THUE_MORSE_ORDER, "Thue-Morse")
    return Word._trusted(_thue_morse_text(i), BINARY)


def fibonacci_G(i: int) -> Word:
    """G_i = F_i with its last two symbols removed, for
    3 <= i <= MAX_FIBONACCI_ORDER."""
    if i < 3:
        raise ValueError(f"G_i requires i >= 3, got {i}")
    _check_order(i, MAX_FIBONACCI_ORDER, "Fibonacci")
    return Word._trusted(_fibonacci_text(i)[:-2], BINARY)


def fibonacci_delta(i: int) -> Word:
    """Delta_i = ba when i is even, ab when i is odd; i >= 1."""
    if i < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {i}")
    return Word._trusted("ba" if i % 2 == 0 else "ab", BINARY)


def fibonacci_alpha(i: int) -> Word:
    """alpha_i = a when i is even, b when i is odd; i >= 1."""
    if i < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {i}")
    return Word._trusted("a" if i % 2 == 0 else "b", BINARY)


def extensions(w: Word) -> set[Word]:
    """The four one-symbol flankings {a.w.a, a.w.b, b.w.a, b.w.b}."""
    if not w.alphabet.is_binary:
        raise ValueError("extensions are defined over a binary alphabet")
    a, b = w.alphabet.symbols
    return {Word._trusted(l + w.text + r, w.alphabet) for l in (a, b) for r in (a, b)}
