"""Deciding interference-freeness of a morphism on a word.

An injective morphism phi interferes on u when w = phi(u) either

* admits an interfered image factorization x . y . z -- x a proper suffix of
  some image, y a concatenation of images, z a proper prefix of some image,
  with x . z nonempty -- or
* sits strictly inside a single image (touching neither end).

The factorization cases are a dynamic program over the positions 0..n of w,
n = |w|: C[j] = 1 iff the prefix w[1..j] splits as x . y.  Seeds place the
possible ends of x, at 0 (x empty) and at each i in P_pref (w[1..i] a
proper image suffix), and image occurrences carry them forward.  Each
position keeps which seeds reach it, and two values are read off that set:

* Pass 1 finds witnesses with z nonempty.  A position's value is the
  smallest seed reaching it (|x|), and an acceptance is a j in P_suf (w[j..n]
  a proper image prefix) with position j - 1 reached.  The witness has the
  smallest |x|, then the leftmost acceptance.
* Only when pass 1 fails does the z-empty case remain: x nonempty and
  position n reached from P_pref.  The value is the largest such seed, so
  the longest x is reported.

**The window automaton.**  The decision never builds w.  It reads u one
source symbol at a time, and its state after u[:k], at the canonical cut
c = |phi(u[:k])|, is

* the seed sets (as bit masks) of the max|img| positions c - max|img| + 1
  .. c: every image occurrence that ends after c starts among them;
* the last max|img| - 1 symbols of phi(u[:k]), which the occurrences that
  straddle c need.

The next state follows from the state and phi(a) alone, by the DP rule
above: a new position ORs the seed sets where the images ending at it start
(:attr:`Morphism.image_ends` lists them per symbol).  Transitions are
memoized per call, on each state's row keyed by the symbol, and the states
are interned by (tail, masks); there is no cache across calls.  The first
steps, while a P_pref seed still lies ahead of the cut, add that seed and
are not memoized.  P_pref and P_suf come from
:func:`aho_corasick.p_pref_lengths` and :func:`aho_corasick.p_suf_lengths`
on phi of the first and the last max|img| symbols of u, so phi is applied
to at most 2 max|img| symbols of u; P_suf is computed only when a position
it could accept is reached.  Only |phi(u)| <= max|img| - 2 permits the inner kind, and then phi(u)
is that head.

A call reaches at most |u| + 1 states, each of O(max|img|) size, so the
state memory is O(|u| max|img|) in the worst case; the classic inputs of
the benchmark reach three or four.  On a memo hit a step is one C-level dict lookup, so the
decision runs |u| such lookups plus O(k max|img|) Python work per distinct
(state, symbol) pair, for a morphism with k images.

**The witness.**  The decision records the state after every prefix of u.
The masks of any position follow from the state of the step that covers
it, and the backtrack applies the rule of the text-level DP
(:func:`_forward_dp`, :func:`_backtrack`): from the accepting position it
takes the first predecessor in start order (the longest image first, then
source order) that the witness's seed reaches, until it stands on that
seed.  For an injective phi a stretch of the path along canonical cuts
that the seed reaches is copied as ``u[h:k]`` in one slice.  That is sound:
let the seed s reach the cuts c_h, ..., c_k of u[:h], ..., u[:k].  At each
c_i with h < i <= k, the occurrence of phi(u[i-1]) from c_(i-1) is a
predecessor that s reaches.  Any predecessor that s reaches ends an image
parse of w[s..c_i] (the chain from s to it, then its image), and two
distinct image parses of one factor would make phi non-injective, so the
rule picks that occurrence at every one of these cuts.  With
``allow_non_injective=True`` on a non-injective phi the backtrack goes step
by step.

:func:`factorizable` reports the table C itself, so it runs the
text-level DP over the positions of w (:func:`_forward_dp`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem

from .aho_corasick import p_pref_lengths, p_suf_lengths, require_non_erasing
from .errors import NonInjectiveMorphismError
from .morphisms import Morphism
from .words import Word

_INF = 1 << 60

INTERFERED_FACTORIZATION = "interfered_factorization"
INNER_IMAGE_FACTOR = "inner_image_factor"


@dataclass(frozen=True)
class InterferenceWitness:
    """Evidence that phi is not interference-free on a word.

    For the factorization kind, ``x + phi(y_symbols) + z`` reassembles the
    image of the word; ``donor_x`` / ``donor_z`` name source symbols whose
    images contribute x and z.  For the inner kind, the image of the word
    occurs inside ``phi(host)`` starting at 1-based ``offset >= 2`` and
    ending strictly before the image's last position.
    """

    kind: str
    x: str = ""
    y_symbols: tuple[str, ...] = ()
    z: str = ""
    donor_x: str | None = None
    donor_z: str | None = None
    host: str | None = None
    offset: int | None = None

    def describe(self) -> str:
        if self.kind == INNER_IMAGE_FACTOR:
            return f"inner host={self.host} offset={self.offset}"
        y = "".join(self.y_symbols)
        return f"x={self.x or '.'} y={y or '.'} z={self.z or '.'}"


@dataclass(frozen=True)
class FactorizableResult:
    admits: bool
    x: str = ""
    y_symbols: tuple[str, ...] = ()
    z: str = ""
    table: tuple[int, ...] = ()  # C[0..n]: C[j] = 1 iff w[1..j] = x . y

    def __bool__(self) -> bool:
        return self.admits


@dataclass(frozen=True)
class InnerFactorResult:
    found: bool
    host: str | None = None
    offset: int | None = None  # 1-based start inside the host image

    def __bool__(self) -> bool:
        return self.found


@dataclass(frozen=True)
class InterferenceDecision:
    interference_free: bool
    witness: InterferenceWitness | None = None
    injectivity_overridden: bool = False

    def __bool__(self) -> bool:
        return self.interference_free


@dataclass(frozen=True)
class StrongInterferenceDecision:
    interference_free: bool
    failing_symbol: str | None = None
    witness: InterferenceWitness | None = None

    def __bool__(self) -> bool:
        return self.interference_free


def _require_injective(phi: Morphism, allow_non_injective: bool) -> bool:
    """Returns True when the injectivity precondition was overridden."""
    if phi.is_injective:
        return False
    if not allow_non_injective:
        raise NonInjectiveMorphismError(
            "interference-freeness is defined for injective morphisms only",
            witness=phi.injectivity_witness,
        )
    return True


def _forward_dp(text, images, seeds, accepts):
    """Forward DP over the positions of ``text``.

    Each reached position p, in increasing order, lowers the value at the
    end of each image of ``images`` ((symbol, image) pairs, nonempty images)
    that starts there, tested in the order given.  Every image ending at p
    starts before p, so C[p] is final when p is read.

    ``seeds`` maps a table index to the seed value it encodes; ``accepts`` are
    candidate 1-based positions j (acceptance needs table index j-1 set).
    Returns (the accepting j minimizing (value, j) or None, minseed, parent).
    """
    n = len(text)
    minseed = [_INF] * (n + 1)
    parent: list[tuple[int, str] | None] = [None] * (n + 1)
    for idx, value in seeds.items():
        minseed[idx] = value
    for p, v in enumerate(minseed):  # reads the values lowered so far
        if v < _INF:
            for sym, img in images:
                if text.startswith(img, p) and v < minseed[p + len(img)]:
                    minseed[p + len(img)] = v
                    parent[p + len(img)] = (p, sym)
    best = None
    for j in sorted(accepts):
        v = minseed[j - 1]
        if v < _INF and (best is None or v < best[0]):
            best = (v, j)
    return (None if best is None else best[1]), minseed, parent


def _backtrack(text, j, parent):
    """Recover (x, y symbol sequence, z) for the acceptance at j."""
    pos = j - 1
    syms: list[str] = []
    while parent[pos] is not None:
        pos, sym = parent[pos]
        syms.append(sym)
    syms.reverse()
    return text[:pos], tuple(syms), text[j - 1:]


def affix_donor(phi: Morphism, part: str, *, suffix: bool) -> str | None:
    """The smallest source symbol whose image has ``part`` as a proper
    suffix (or prefix); None for an empty part."""
    if not part:
        return None
    fits = str.endswith if suffix else str.startswith
    return min(c for c, img in phi.images if len(img) > len(part) and fits(img, part))


def factorizable(phi: Morphism, w: Word | str) -> FactorizableResult:
    """True iff w = x . y . z with x a possibly-empty proper image suffix,
    y a concatenation of images and z a NONEMPTY proper image prefix."""
    text = str(w)
    if not text:
        raise ValueError("factorizable is defined for nonempty words")
    require_non_erasing(phi)
    seeds = {i: i for i in p_pref_lengths(phi, text)}
    seeds[0] = 0
    accepts = {len(text) + 1 - size for size in p_suf_lengths(phi, text)}
    j, minseed, parent = _forward_dp(text, phi.images, seeds, accepts)
    table = tuple(1 if v < _INF else 0 for v in minseed)
    if j is None:
        return FactorizableResult(False, table=table)
    x, y_symbols, z = _backtrack(text, j, parent)
    return FactorizableResult(True, x=x, y_symbols=y_symbols, z=z, table=table)


def is_inner_image_factor(phi: Morphism, w: Word | str) -> InnerFactorResult:
    """True iff w occurs strictly inside some image, touching neither end."""
    text = str(w)
    if not text:
        raise ValueError("inner-factor check is defined for nonempty words")
    for c, img in phi.images:
        limit = len(img) - len(text) - 1  # last admissible 0-based start
        start = img.find(text, 1)
        if 0 < start <= limit:
            return InnerFactorResult(True, host=c, offset=start + 1)
    return InnerFactorResult(False)


class _State(dict):
    """A state of the window automaton, and its row of transitions.

    After the prefix u[:k], with cut c = |phi(u[:k])|, ``tail`` holds the
    last max|img| - 1 symbols of phi(u[:k]) and ``window`` the seed masks of
    the max|img| positions c - max|img| + 1 .. c (0 before position 0).  As
    a dict the state maps a source symbol to the next state: a missing
    entry is computed by ``advance`` and stored, so ``accumulate(u, getitem)``
    runs without a Python-level step on every memo hit.  ``frames`` keeps,
    per symbol, the masks the transition computed, for the backtrack.
    """

    __slots__ = ("tail", "window", "frames", "advance")

    def __init__(self, tail, window, advance):
        self.tail = tail
        self.window = window
        self.frames = {}
        self.advance = advance

    def __missing__(self, a):
        nxt = self[a] = self.advance(self, a)
        return nxt


def _run_automaton(phi: Morphism, text: str, p_pref: set[int]) -> list[_State]:
    """The state after each prefix u[:k] of u = ``text``, for k = 0..|u|."""
    image_of = phi.image_map
    ends = phi.image_ends
    base = phi.max_image_length - 1  # frame index of the cut
    keep = slice(-base, None) if base else slice(0, 0)  # the last base symbols
    last_seed = max(p_pref, default=0)
    states: dict[tuple, _State] = {}

    def advance(state, a, cut=None):
        """The state after reading ``a`` in ``state``; stores the frame.

        The frame holds the masks of the positions cut - max|img| + 1 ..
        cut + |phi(a)|.  A new position ORs the masks where the images
        ending at it start (each final, as it lies further left) and, when
        the ``cut`` of a first step is given, its own P_pref seed.
        """
        image = image_of[a]
        tail = state.tail
        masks = [*state.window, *(0,) * len(image)]
        if cut is not None:
            for position in p_pref:
                if cut < position <= cut + len(image):
                    masks[base + position - cut] = 1 << position
        for end, start, before, _ in ends[a]:
            reach = masks[start]
            if reach and (not before or tail.endswith(before)):
                masks[end] |= reach
        state.frames[a] = masks
        key = (tail + image)[keep], tuple(masks[len(image):])
        if cut is not None and cut + len(image) < last_seed:
            return _State(*key, advance)  # its step reads a seed too
        nxt = states.get(key)
        if nxt is None:
            nxt = states[key] = _State(*key, advance)
        return nxt

    state = _State("", (0,) * base + (1,), advance)  # seed 0 at position 0
    if not p_pref:
        states[state.tail, state.window] = state
    path: list[_State] = []
    cut = k = 0
    while cut < last_seed:  # a seed lies ahead: no memo
        path.append(state)
        state = advance(state, text[k], cut)
        cut += len(image_of[text[k]])
        k += 1
    path += accumulate(text[k:], getitem, initial=state)
    return path


def _trace_back(
    phi: Morphism, text: str, path: list[_State], before_end: int, seed: int
) -> tuple[str, ...]:
    """The y symbols of the chain from ``seed`` to position |phi(u)| - before_end.

    Each step takes the first predecessor in start order (the longest image
    first, then source order) that the seed reaches.  That is the rule of
    :func:`_backtrack`, which takes the first predecessor with the same
    value: the smallest (largest) seed at a match's end is at most (at
    least) the one at its start, so a predecessor that the seed reaches has
    the seed's value.
    """
    image_of = phi.image_map
    ends = phi.image_ends
    base = phi.max_image_length - 1
    injective = phi.is_injective
    chunks: list[str] = []
    # cut = |phi(u[:k])| >= q, from k = |u|
    k, cut = len(text), sum(text.count(c) * len(img) for c, img in phi.images)
    q = cut - before_end
    while q != seed:
        a = text[k - 1]
        prev = cut - len(image_of[a])
        if prev >= q:
            k, cut = k - 1, prev
            continue
        state = path[k - 1]
        if injective and q == cut:
            # a seed that reaches one cut reaches every later one
            h = bisect_left(path, 1, 0, k, key=lambda s: s.window[-1] >> seed & 1)
            if h < k:
                chunks.append(text[h:k])
                cut = sum(text.count(c, 0, h) * len(img) for c, img in phi.images)
                k, q = h, cut
                continue
        masks = state.frames[a]
        i = q - prev + base  # frame index of q
        for end, start, before, c in ends[a]:
            if end == i and masks[start] >> seed & 1 and state.tail.endswith(before):
                break
        chunks.append(c)
        q -= end - start
    return tuple("".join(reversed(chunks)))


def is_interference_free_on(
    phi: Morphism, u: Word, *, allow_non_injective: bool = False
) -> InterferenceDecision:
    """Decide interference-freeness of phi on the single word u."""
    overridden = _require_injective(phi, allow_non_injective)
    if len(u) == 0:
        raise ValueError("interference-freeness is defined for nonempty words")
    text = u.text
    if not u.alphabet._symbol_set <= phi.image_map.keys():
        phi.apply_text(text)  # raises for the first symbol without an image
    require_non_erasing(phi)
    size = phi.max_image_length
    head = phi.apply_text(text[:size])
    p_pref = p_pref_lengths(phi, head)
    path = _run_automaton(phi, text, p_pref)
    window = path[-1].window

    # pass 1, z nonempty: the smallest seed, then the leftmost acceptance;
    # a suffix of length L ends x . y at window index size - 1 - L
    best = None
    if any(window[:-1]):
        tail = head if len(text) <= size else phi.apply_text(text[-size:])
        for length in sorted(p_suf_lengths(phi, tail), reverse=True):
            mask = window[size - 1 - length]
            seed = (mask & -mask).bit_length() - 1
            if mask and (best is None or seed < best[0]):
                best = (seed, length)
    if best is not None:
        seed, length = best
        x, z = head[:seed], tail[len(tail) - length:]
        y_symbols = _trace_back(phi, text, path, length, seed)
    elif window[-1] > 1:
        # z empty: x nonempty and phi(u) = x . y; the longest x is reported
        seed = window[-1].bit_length() - 1
        x, z = head[:seed], ""
        y_symbols = _trace_back(phi, text, path, 0, seed)
    else:
        # the inner kind needs |phi(u)| <= max|img| - 2: then phi(u) == head,
        # while a longer u has |head| >= max|img|
        inner = is_inner_image_factor(phi, head) if len(head) <= size - 2 else None
        if inner:
            witness = InterferenceWitness(
                INNER_IMAGE_FACTOR, host=inner.host, offset=inner.offset
            )
            return InterferenceDecision(False, witness, overridden)
        return InterferenceDecision(True, None, overridden)
    witness = InterferenceWitness(
        INTERFERED_FACTORIZATION,
        x=x,
        y_symbols=y_symbols,
        z=z,
        donor_x=affix_donor(phi, x, suffix=True),
        donor_z=affix_donor(phi, z, suffix=False),
    )
    return InterferenceDecision(False, witness, overridden)


def is_interference_free_on_language(
    phi: Morphism, words: list[Word], *, allow_non_injective: bool = False
) -> dict[str, InterferenceDecision]:
    """Convenience loop over a finite language; keyed by word text."""
    return {
        u.text: is_interference_free_on(phi, u, allow_non_injective=allow_non_injective)
        for u in words
    }


def is_strongly_interference_free(phi: Morphism) -> StrongInterferenceDecision:
    """phi is strongly interference-free iff it is interference-free on every
    single source symbol."""
    _require_injective(phi, False)
    for c in phi.source.symbols:
        decision = is_interference_free_on(phi, Word(c, phi.source))
        if not decision:
            return StrongInterferenceDecision(False, c, decision.witness)
    return StrongInterferenceDecision(True)


def barrier_certificate(
    phi: Morphism, u: Word, *, max_length: int = 8
) -> tuple[Word, Word] | None:
    """Search for a prefix/suffix pair of u, each interference-free on its
    own, certifying interference-freeness of u without the full decision.

    Shortest candidates are tried first, capped at ``max_length``.  A result
    is a sufficient certificate; None is inconclusive, not negative.
    """
    _require_injective(phi, False)
    n = len(u)
    if n == 0:
        raise ValueError("barrier certificate is defined for nonempty words")

    def first_if(candidates):
        for cand in candidates:
            if is_interference_free_on(phi, cand):
                return cand
        return None

    cap = min(max_length, n)
    b_l = first_if(u[:k] for k in range(1, cap + 1))
    b_r = first_if(u[n - k:] for k in range(1, cap + 1))
    if b_l is not None and b_r is not None and len(b_l) + len(b_r) <= n:
        return b_l, b_r
    if n <= max_length and is_interference_free_on(phi, u):
        return u, u  # degenerate: u certifies itself
    return None
