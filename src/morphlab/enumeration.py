"""Brute-force enumerators for image, interfered and circular factorizations.

These are the independent ground truth against which the linear-time
interference decision is certified.  Everything here works by direct
definition: candidate cuts are enumerated exhaustively and middles are
decomposed by a transparent prefix DP over the source symbols.  Costs are
exponential in principle, so enumerations refuse a word longer than
``WORD_LENGTH_BUDGET`` and raise once they find more than
``FACTORIZATION_BUDGET`` factorizations, instead of truncating.

Recognizability is decided here too, by one counting DP: every rotation of
phi(u) has the same number of circular factorizations (the proof is in
:func:`is_recognizable_on`), so only phi(u) itself is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .interference import INTERFERED_FACTORIZATION, InterferenceWitness, affix_donor
from .morphisms import Morphism
from .words import Word

#: Longest word that an ``enumerate_*`` function accepts, in symbols.
WORD_LENGTH_BUDGET = 64

#: Most factorizations that an ``enumerate_*`` function returns.
FACTORIZATION_BUDGET = 100_000


@dataclass(frozen=True)
class CircularFactorization:
    """w = q . r . p with p nonempty and p . q a single image (of
    ``split_symbol``); r is spelled as a sequence of source symbols."""

    q: str
    r_symbols: tuple[str, ...]
    p: str
    split_symbol: str


@dataclass(frozen=True)
class RecognizabilityDecision:
    """The answer of :func:`is_recognizable_on`.  When not recognizable,
    ``offending_rotation`` is phi(u) itself (every rotation has the same
    count) and ``factorization_count`` its number of circular
    factorizations."""

    recognizable: bool
    offending_rotation: Word | None = None
    factorization_count: int | None = None

    def __bool__(self) -> bool:
        return self.recognizable


def _check_length(text: str) -> None:
    if len(text) > WORD_LENGTH_BUDGET:
        raise BudgetExceededError(
            f"word length {len(text)} exceeds enumeration budget {WORD_LENGTH_BUDGET}"
        )


def _decomposition_counts(text: str, images, start: int) -> list[int]:
    """counts[j] = number of symbol sequences spelling text[start:j]."""
    n = len(text)
    counts = [0] * (n + 1)
    counts[start] = 1
    for i in range(start, n + 1):
        c = counts[i]
        if c:
            for _sym, img in images:
                if img and text.startswith(img, i):
                    counts[i + len(img)] += c
    return counts


def _decompositions(text: str, images, start: int, end: int, memo) -> list[tuple[str, ...]]:
    """All symbol sequences spelling text[start:end]."""
    if start in memo:
        return memo[start]
    if start == end:
        memo[start] = [()]
        return memo[start]
    out: list[tuple[str, ...]] = []
    for sym, img in images:
        if img and start + len(img) <= end and text.startswith(img, start):
            for tail in _decompositions(text, images, start + len(img), end, memo):
                out.append((sym,) + tail)
    memo[start] = out
    return out


def count_image_factorizations(phi: Morphism, text: str) -> int:
    """Number of source-symbol sequences whose images concatenate to
    ``text``, by counting DP."""
    return _decomposition_counts(text, phi.images, 0)[len(text)]


def enumerate_image_factorizations(phi: Morphism, text: str) -> list[tuple[str, ...]]:
    """All source-symbol sequences whose images concatenate to ``text``.

    The empty word yields the single empty sequence.
    """
    _check_length(text)
    total = count_image_factorizations(phi, text)
    if total > FACTORIZATION_BUDGET:
        raise BudgetExceededError(f"{total} factorizations exceed the enumeration budget")
    return _decompositions(text, phi.images, 0, len(text), {})


def enumerate_interfered_factorizations(phi: Morphism, text: str) -> list[InterferenceWitness]:
    """All interfered factorizations x . y . z of ``text``, by exhaustive
    cut enumeration over proper image suffixes x and proper image prefixes
    z."""
    if not text:
        raise ValueError("interfered factorizations are defined for nonempty words")
    _check_length(text)
    n = len(text)
    x_cands = [""] + sorted(
        (s for s in phi.proper_image_suffixes if text.startswith(s)), key=len
    )
    z_cands = [""] + sorted(
        (p for p in phi.proper_image_prefixes if text.endswith(p)), key=len
    )
    out: list[InterferenceWitness] = []
    for x in x_cands:
        for z in z_cands:
            if not x and not z:
                continue
            if len(x) + len(z) > n:
                continue
            end = n - len(z)
            # memo is per (x, z): decompositions depend on the end position
            for y_symbols in _decompositions(text, phi.images, len(x), end, {}):
                out.append(
                    InterferenceWitness(
                        INTERFERED_FACTORIZATION,
                        x=x,
                        y="".join(y_symbols),
                        z=z,
                        donor_x=affix_donor(phi, x, suffix=True),
                        donor_z=affix_donor(phi, z, suffix=False),
                    )
                )
                if len(out) > FACTORIZATION_BUDGET:
                    raise BudgetExceededError(
                        "interfered factorization count exceeds the enumeration budget"
                    )
    return out


def _splits(phi: Morphism):
    """All (p, q, symbol) with p . q = phi(symbol) and p nonempty."""
    for c, img in phi.images:
        for k in range(1, len(img) + 1):
            yield img[:k], img[k:], c


def enumerate_circular_factorizations(phi: Morphism, text: str) -> list[CircularFactorization]:
    """All circular factorizations q . r . p of ``text``."""
    if not text:
        raise ValueError("circular factorizations are defined for nonempty words")
    _check_length(text)
    n = len(text)
    out: list[CircularFactorization] = []
    for p, q, c in _splits(phi):
        if len(p) + len(q) > n:
            continue
        if not (text.startswith(q) and text.endswith(p)):
            continue
        memo: dict[int, list[tuple[str, ...]]] = {}
        for r_symbols in _decompositions(text, phi.images, len(q), n - len(p), memo):
            out.append(CircularFactorization(q, r_symbols, p, c))
            if len(out) > FACTORIZATION_BUDGET:
                raise BudgetExceededError(
                    "circular factorization count exceeds the enumeration budget"
                )
    return out


def count_circular_factorizations(phi: Morphism, text: str) -> int:
    """Number of circular factorizations of ``text``, via counting DP (no
    materialization)."""
    if not text:
        raise ValueError("circular factorizations are defined for nonempty words")
    n = len(text)
    counts_from: dict[int, list[int]] = {}
    total = 0
    for p, q, c in _splits(phi):
        if len(p) + len(q) > n:
            continue
        if not (text.startswith(q) and text.endswith(p)):
            continue
        start = len(q)
        if start not in counts_from:
            counts_from[start] = _decomposition_counts(text, phi.images, start)
        total += counts_from[start][n - len(p)]
    return total


def is_recognizable_on(phi: Morphism, u: Word) -> RecognizabilityDecision:
    """phi is recognizable on {u} iff every rotation of w = phi(u) has
    exactly one circular factorization.  One count decides it.

    Every rotation of w has the same number of circular factorizations.  A
    circular factorization q . r . p of the rotation w[i:] . w[:i] (p
    nonempty, p . q = phi(c), |p| + |q| <= |w|) is a cyclic image parse of
    w in which the image p . q covers the rotation's last symbol.  Every
    cyclic parse has exactly one image covering that symbol, so every
    rotation's count equals the number of cyclic parses of w.  On failure
    the offending rotation is therefore phi(u) itself, reported with its
    count.  Raises BudgetExceededError, before w is built, when it would
    hold more than ``morphisms.LENGTH_BUDGET`` symbols."""
    phi.require_injective("recognizability")
    if len(u) == 0:
        raise ValueError("recognizability is defined for nonempty words")
    phi._require_iterable(u, 1)
    text = phi.apply_text(u.text)
    count = count_circular_factorizations(phi, text)
    if count != 1:
        return RecognizabilityDecision(False, Word._trusted(text, phi.target), count)
    return RecognizabilityDecision(True)


def brute_force_is_interference_free(phi: Morphism, u: Word) -> bool:
    """Independent oracle for the interference decision: direct definition
    check by cut enumeration plus reachability, no automaton involved."""
    phi.require_injective("interference-freeness")
    if len(u) == 0:
        raise ValueError("interference-freeness is defined for nonempty words")
    text = phi.apply_text(u.text)
    n = len(text)

    # inner image factor: strict interior occurrence in a single image
    for _c, img in phi.images:
        limit = len(img) - n - 1
        pos = img.find(text, 1)
        if 0 < pos <= limit:
            return False

    images = [img for _c, img in phi.images]
    x_lens = {0} | {len(s) for s in phi.proper_image_suffixes if text.startswith(s)}
    z_lens = {0} | {len(p) for p in phi.proper_image_prefixes if text.endswith(p)}

    def reachable(starts):
        reach = bytearray(n + 1)
        for s in starts:
            reach[s] = 1
        for i in range(min(starts), n + 1):
            if reach[i]:
                for img in images:
                    if text.startswith(img, i):
                        reach[i + len(img)] = 1
        return reach

    reach_any = reachable(x_lens)
    if any(q and q <= n and reach_any[n - q] for q in z_lens):
        return False
    positive = {p for p in x_lens if p}
    if positive and reachable(positive)[n]:
        return False
    return True
