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

**The window automaton.**  The decision never builds w.  It reads u from
left to right, and its state after u[:k], at the canonical cut
c = |phi(u[:k])|, is

* the seed sets (as bit masks) of the max|img| positions c - max|img| + 1
  .. c: every image occurrence that ends after c starts among them;
* the last max|img| - 1 symbols of phi(u[:k]), which the occurrences that
  straddle c need;
* the P_pref seeds that lie past c, each with its distance past c.  Before
  u[0] every seed is pending, at its own length past the cut 0.

The next state follows from the state and phi(a) alone, by the DP rule
above: a new position takes the seed pending at its distance past the cut,
if any, and ORs the seed sets where the images ending at it start
(:attr:`Morphism.image_ends` lists them per symbol).  A seed's placement
depends only on its distance past the cut, not on the cut itself, so a
transition depends only on the state's key (tail, masks, pending seeds).
Transitions are memoized per call, on each state's row keyed by the symbol,
and every state, the initial one included, is interned by its key; no
state is cached across calls (a morphism keeps one flag, see "Every
word" below).  So the run is one DFA over the source alphabet from its
initial state.  Interning cannot merge two positions of one run at a
state with pending seeds: a pending seed's distance is the seed minus the
cut, and the cut strictly increases, as the images of an injective phi
are nonempty.  A word of at
most ``_SLICE`` symbols is read symbol by symbol, a longer one in slices of
``_SLICE`` symbols from its first symbol.  A slice is one more key on the
same rows, and so is a sub-slice of ``_SUB`` symbols.  A missed sub-slice
is composed from its symbols.  A missed slice whose first sub-slice has an
entry in the state is composed from its sub-slices (the last one may be
shorter); otherwise from its first sub-slice, which is stored, and then its
symbols.  So sub-slices are stored where they repeat, and a word whose
sub-slices never repeat stores one per slice.

Every entry is exact and leaves its symbol steps memoized.  Claim: once
S[v] is stored for a string v, it is the state that the symbol-by-symbol
run reaches from S over v, and the row of each state that run passes holds
the next symbol of v.  By induction on |v|: a symbol's entry is the step
itself.  A longer entry is a composition, ``reduce(getitem, ...)``, of
shorter keys read one after another from S itself, so each key in it is
read on the state that the run has reached there; a hit is an entry stored
earlier and a miss is computed now, and both satisfy the claim by
induction.  No entry is ever removed within a call.  So the states inside
any slice can be rebuilt from the state at its start by memo hits alone.

P_pref and P_suf come from :func:`aho_corasick.p_pref_lengths` and
:func:`aho_corasick.p_suf_lengths`, which look up the prefixes of phi of
the first max|img| symbols of u among the morphism's proper image suffixes,
and the suffixes of the final state's tail, the last max|img| - 1 symbols
of phi(u), among its proper image prefixes.  So phi is applied to at most
max|img| symbols of u, also when u's alphabet has a symbol with no image:
the first such symbol of u is found by one ``str.find`` per imageless
symbol.  P_suf is computed only when a position it could accept is
reached (:func:`_accepting`, passes 1 and 2 on the final state).
Only |phi(u)| <= max|img| - 2 permits the inner kind, and then phi(u) is
that head.

A call reaches at most |u| + 1 states, each of O(max|img|) size, so the
state memory is O(|u| max|img|) in the worst case; the classic inputs of
the benchmark reach three or four.  A memo hit is one C-level dict lookup,
and the keys are cut in C as well, by ``itemgetter`` calls of precomputed
``slice`` objects: u into its slices, one row of 64 slices per call, and a
missed slice into its sub-slices after the first, in one call.  So the
decision runs about |u| / ``_SLICE`` slice lookups (each hashes its
slice); per distinct (state, slice) pair, ``_SLICE`` /
``_SUB`` sub-slice lookups if its first sub-slice is stored, else one
stored sub-slice and ``_SLICE`` symbol lookups; ``_SUB`` symbol lookups
per distinct (state, sub-slice) pair; and O(k max|img|) Python work per
distinct (state, symbol) pair, for a morphism with k images.  On a word
built by a morphism the slices repeat (F_n has at most ``_SLICE`` + 1
distinct factors of that length) and the sub-slices more: one decision on
F_25 (75,025 symbols) composes 1,761 symbol steps.  On a word whose
sub-slices never repeat (random binary or ternary words) no missed slice
finds its first sub-slice, so each costs one more dict lookup, one stored
sub-slice and two string copies.

**The witness.**  The run keeps the state after each slice; the state
after any other prefix of u is rebuilt from the state at the start of its
slice by memo hits alone, and it is the object that the symbol-by-symbol
run reaches (:class:`_Run`).  So the backtrack reads the same frames as a
run that records every state, and slicing cannot change the witness.
The masks of any position follow from the state of the step that covers
it, and the backtrack applies the rule of the text-level DP over the
positions of w, which ``tests/test_interference.py`` keeps as the
reference of every decision field: from the accepting position it
takes the first predecessor in start order (the longest image first, then
source order) that the witness's seed reaches, until it stands on that
seed.  A stretch of the path along canonical cuts that the seed reaches
is copied as ``u[h:k]`` in one piece, and h is found by bisection over the
slice ends, then inside one slice.  That is sound:
let the seed s reach the cuts c_h, ..., c_k of u[:h], ..., u[:k].  At each
c_i with h < i <= k, the occurrence of phi(u[i-1]) from c_(i-1) is a
predecessor that s reaches.  Any predecessor that s reaches ends an image
parse of w[s..c_i] (the chain from s to it, then its image), and two
distinct image parses of one factor would make phi non-injective, so the
rule picks that occurrence at every one of these cuts.

The witness keeps y as one string of source symbols: the backtrack joins
its chunks once, and :attr:`InterferenceWitness.y_symbols` builds the tuple
of one-symbol strings only when it is read.

**Every word.**  (A result of this package, not taken from the paper.)
The injective phi interferes on some nonempty word if and only if it
interferes on one of its source symbols.  So phi is IF on every nonempty
word exactly when it is strongly IF (:func:`is_strongly_interference_free`,
IF on each single symbol), and the shortest, then lexicographically
smallest word on which it interferes is its first such symbol in source
order.  "If" holds as symbols are words.  Proof of "only if": let
u = u_1 ... u_n with n >= 2, and L = |phi(u_1)| >= 1 (an injective phi
is non-erasing).

* phi(u) strictly inside an image: then so is its prefix phi(u_1).
* phi(u) = x . phi(y) . z with x . z nonempty.  Where does the cut L
  fall?  Inside x (L < |x|): x is a proper suffix of an image, so
  phi(u_1), a proper prefix of x, lies strictly inside that image.  At
  the end of x (L = |x|): phi(u_1) = x, and x . (empty) . (empty) is an
  interfered factorization.  Inside or at the end of the image of y_j,
  with p the nonempty prefix of phi(y_j) before L: phi(u_1) =
  x . phi(y_1 ... y_(j-1)) . p is interfered when x is nonempty or p is
  a proper prefix.  Otherwise x is empty and phi(u_1) = phi(y_1 ... y_j),
  so y_1 = u_1 by injectivity, and phi(u_2 ... u_n) = phi(y_2 ...) . z
  with z nonempty: phi interferes on u_2 ... u_n, so on one of its
  symbols, by induction on n.  Inside z (|x . phi(y)| < L < |phi(u)|):
  phi(u_1) = x . phi(y) . z' with z' a nonempty proper prefix of z,
  hence of an image.

The automaton's states are finitely many, so a breadth-first search over
them, from one start per head phi(u[:k]) long enough to fix P_pref, would
decide whether phi is IF on every word too; by the result above it would
stop at the first symbols, so no such search is made.

The window automaton decides a symbol c in one step from the state
before it, with P_pref from phi(c) and P_suf from the state's tail:
|Sigma| steps for the whole morphism, with no run kept and phi applied
to no word (:func:`interference_free_on_every_word`).  Its answer for a
morphism is
the one thing kept across calls, as a flag in the morphism's
``__dict__``: a decision on a u of more than ``_SLICE`` symbols reads it
(computing it once per morphism) and, when phi is IF on every word,
returns IF without a run.  A shorter u costs at most ``_SLICE`` symbol
steps, so it neither computes nor reads the flag.  A NOT-IF decision
still runs on u, since its witness is one of u's own factorizations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import getitem, itemgetter

from .aho_corasick import p_pref_lengths, p_suf_lengths
from .errors import AlphabetMismatchError
from .morphisms import Morphism
from .words import Word

_SLICE = 128  # symbols of u per memoized slice transition (see _run_automaton)
_SUB = 16  # symbols per memoized sub-slice a slice is composed from (see _State)
_FLAG = "_if_on_every_word"  # the key of that flag in a morphism's __dict__
_ROW = 64 * _SLICE  # symbols per row, which _slices cuts in one C call
# the slices of a row, in one C call; "" past the end of a shorter row
_row_slices = itemgetter(*(slice(i, i + _SLICE) for i in range(0, _ROW, _SLICE)))
# the sub-slices of a slice after its first one, in one C call; "" past the
# end of a shorter slice
_rest = itemgetter(*(slice(i, i + _SUB) for i in range(_SUB, _SLICE, _SUB)))


def _slices(text: str) -> list[str]:
    """The slices of ``_SLICE`` symbols that u = ``text`` is read in; the
    last may be shorter."""
    pieces = []
    for begin in range(0, len(text), _ROW):
        pieces += _row_slices(text[begin : begin + _ROW])
    del pieces[(len(text) + _SLICE - 1) // _SLICE :]  # the "" past the end of u
    return pieces


INTERFERED_FACTORIZATION = "interfered_factorization"
INNER_IMAGE_FACTOR = "inner_image_factor"


@dataclass(frozen=True)
class InterferenceWitness:
    """Evidence that phi is not interference-free on a word.

    For the factorization kind, ``x + phi(y) + z`` reassembles the image of
    the word, where ``y`` is a string of source symbols; ``donor_x`` /
    ``donor_z`` name source symbols whose images contribute x and z.  For
    the inner kind, the image of the word occurs inside ``phi(host)``
    starting at 1-based ``offset >= 2`` and ending strictly before the
    image's last position.  Equality and ``repr`` read ``y`` as one string.
    """

    kind: str
    x: str = ""
    y: str = ""
    z: str = ""
    donor_x: str | None = None
    donor_z: str | None = None
    host: str | None = None
    offset: int | None = None

    @property
    def y_symbols(self) -> tuple[str, ...]:
        """The symbols of ``y``, as a tuple built on each read."""
        return tuple(self.y)

    def describe(self) -> str:
        if self.kind == INNER_IMAGE_FACTOR:
            return f"inner host={self.host} offset={self.offset}"
        return f"x={self.x or '.'} y={self.y or '.'} z={self.z or '.'}"


@dataclass(frozen=True)
class InterferenceDecision:
    interference_free: bool
    witness: InterferenceWitness | None = None

    def __bool__(self) -> bool:
        return self.interference_free


@dataclass(frozen=True)
class StrongInterferenceDecision:
    interference_free: bool
    failing_symbol: str | None = None
    witness: InterferenceWitness | None = None

    def __bool__(self) -> bool:
        return self.interference_free


def affix_donor(phi: Morphism, part: str, *, suffix: bool) -> str | None:
    """The smallest source symbol whose image has ``part`` as a proper
    suffix (or prefix); None for an empty part."""
    if not part:
        return None
    fits = str.endswith if suffix else str.startswith
    return min(c for c, img in phi.images if len(img) > len(part) and fits(img, part))


def is_inner_image_factor(phi: Morphism, text: str) -> InterferenceWitness | None:
    """The inner-kind witness when ``text`` occurs strictly inside some
    image, touching neither end: the first such image in source order, at
    its first such occurrence; else None."""
    if not text:
        raise ValueError("inner-factor check is defined for nonempty words")
    for c, img in phi.images:
        limit = len(img) - len(text) - 1  # last admissible 0-based start
        start = img.find(text, 1)
        if 0 < start <= limit:
            return InterferenceWitness(INNER_IMAGE_FACTOR, host=c, offset=start + 1)
    return None


class _State(dict):
    """A state of the window automaton, and its row of transitions.

    After the prefix u[:k], with cut c = |phi(u[:k])|, ``tail`` holds the
    last max|img| - 1 symbols of phi(u[:k]), ``window`` the seed masks of
    the max|img| positions c - max|img| + 1 .. c (0 before position 0), and
    ``ahead`` the P_pref seeds past c, as (seed - c, seed) pairs.  As a dict
    the state maps a source symbol, or a slice of u, to the next state: a
    missing entry is computed and stored, so ``accumulate(..., getitem)``
    runs without a Python-level step on every memo hit.

    A symbol's transition is computed by ``advance``, which keeps in
    ``frames``, per symbol, the masks it computed, for the backtrack.  A
    key of at most ``_SUB`` symbols is composed from its symbols,
    ``reduce(getitem, key, state)``.  A longer one (a slice) is composed
    from its sub-slices of ``_SUB`` symbols, each one more key on the rows
    it passes, when its first sub-slice has an entry here; otherwise from
    that sub-slice, stored, and then its symbols.  Either way the
    composition starts at this state, so the entry is the state that the
    symbol-by-symbol run reaches, and every step along it is left memoized
    in the rows it passes through: the states inside a slice can be rebuilt
    later from the state at its start by memo hits alone (see the module
    docstring).
    """

    __slots__ = ("tail", "window", "ahead", "frames", "advance")

    def __init__(self, tail, window, ahead, advance):
        self.tail = tail
        self.window = window
        self.ahead = ahead
        self.frames = {}
        self.advance = advance

    def __missing__(self, key):
        size = len(key)
        if size == 1:
            nxt = self.advance(self, key)
        elif size <= _SUB:
            nxt = reduce(getitem, key, self)
        else:  # a slice: from its sub-slices once its first one has an entry here
            head = key[:_SUB]
            nxt = self.get(head)
            if nxt is None:
                nxt = self[head] = reduce(getitem, head, self)
                rest = key[_SUB:]
            elif size == _SLICE:
                rest = _rest(key)
            else:  # the last slice of u, shorter
                rest = filter(None, _rest(key))
            nxt = reduce(getitem, rest, nxt)
        self[key] = nxt
        return nxt


class _Run:
    """The states of one run of the automaton over u, kept at slice ends.

    ``states[i]`` is the state after u[:i * step], and the last one the
    state after u; the last slice may be shorter.  A word of at most
    ``_SLICE`` symbols is read symbol by symbol, with step 1.  The states
    inside a slice are rebuilt on demand, once per slice, from the state at
    its start: they are the same objects that a symbol-by-symbol run
    records, so the backtrack reads the same frames.
    """

    __slots__ = ("text", "step", "states", "_inside")

    def __init__(self, text, step, states):
        self.text = text
        self.step = step
        self.states = states
        self._inside = {}

    def _slice(self, i):
        """The states after each prefix of slice i, from the one at its start."""
        states = self._inside.get(i)
        if states is None:
            begin = i * self.step
            chunk = self.text[begin : begin + self.step]
            states = self._inside[i] = list(accumulate(chunk, getitem, initial=self.states[i]))
        return states

    def state(self, k):
        """The state after u[:k]."""
        i, r = divmod(k, self.step)
        return self._slice(i)[r] if r else self.states[i]

    def first_reaching(self, seed, k):
        """The least h < k such that ``seed`` reaches the cut of u[:h], else k.

        A seed that reaches the cut of u[:h] reaches every later cut, along
        the occurrences of phi(u[h]), phi(u[h + 1]), ...  So the bisection
        runs over the states at the slice ends before k first, and then
        inside the one slice that holds h (an empty range when step is 1).
        """
        step = self.step

        def reached(state):
            return state.window[-1] >> seed & 1

        j = bisect_left(self.states, 1, 0, -(-k // step), key=reached)
        if j == 0:
            return 0
        begin = (j - 1) * step  # h lies in this slice, whose start the seed does not reach
        return begin + bisect_left(self._slice(j - 1), 1, 1, min(step, k - begin), key=reached)


def _automaton(phi: Morphism):
    """The window automaton of phi, as a function from a set P_pref to the
    state before u's first symbol, whose ``ahead`` holds every seed.  Its
    states are interned by their keys and share one ``advance``, so runs
    from several start sets read and fill the same rows."""
    image_of = phi.image_map
    ends = phi.image_ends
    base = phi.max_image_length - 1  # frame index of the cut
    keep = slice(-base, None) if base else slice(0, 0)  # the last base symbols
    states: dict[tuple, _State] = {}

    def advance(state, a):
        """The state after reading ``a`` in ``state``; stores the frame.

        The frame holds the masks of the positions cut - max|img| + 1 ..
        cut + |phi(a)|.  A new position gets its own P_pref seed, if one
        lies that far ahead, and ORs the masks where the images ending at it
        start (each final, as it lies further left).
        """
        image = image_of[a]
        size = len(image)
        tail = state.tail
        masks = [*state.window, *(0,) * size]
        ahead = state.ahead
        if ahead:  # only the first steps have seeds past the cut
            pending = []
            for distance, seed in ahead:
                if distance <= size:
                    masks[base + distance] = 1 << seed
                else:
                    pending.append((distance - size, seed))
            ahead = tuple(pending)
        for end, start, before, _ in ends[a]:
            reach = masks[start]
            if reach and (not before or tail.endswith(before)):
                masks[end] |= reach
        state.frames[a] = masks
        key = (tail + image)[keep], tuple(masks[size:]), ahead
        nxt = states.get(key)
        if nxt is None:
            nxt = states[key] = _State(*key, advance)
        return nxt

    def start(p_pref):
        seeds = sorted(p_pref)
        key = "", (0,) * base + (1,), tuple(zip(seeds, seeds))  # seed 0 at position 0
        state = states.get(key)
        if state is None:
            state = states[key] = _State(*key, advance)
        return state

    return start


def _run_automaton(phi: Morphism, text: str, p_pref: set[int]) -> _Run:
    """The run of the automaton over u = ``text``, from the state before
    its first symbol, whose ``ahead`` holds every P_pref seed: one memoized
    transition per slice of ``_SLICE`` symbols (composed from its
    sub-slices, see :class:`_State`), or per symbol when u fits in one
    slice."""
    state = _automaton(phi)(p_pref)
    if len(text) <= _SLICE:
        return _Run(text, 1, list(accumulate(text, getitem, initial=state)))
    return _Run(text, _SLICE, list(accumulate(_slices(text), getitem, initial=state)))


def _accepting(phi: Morphism, state: _State) -> tuple[int, int] | None:
    """The (seed, |z|) of the interfered image factorization that the state
    after u accepts, or None: the decision of passes 1 and 2 on phi(u).

    Pass 1, z nonempty, takes the smallest seed, then the leftmost
    acceptance; a suffix of length L ends x . y at window index
    max|img| - 1 - L.  P_suf is read from the state's tail, the last
    max|img| - 1 symbols of phi(u), and only when a position it could
    accept is reached.  Pass 2, z empty, needs x nonempty and phi(u) =
    x . y, and takes the longest x.
    """
    window = state.window
    size = len(window)
    if any(window[:-1]):
        best = None
        for length in sorted(p_suf_lengths(phi, state.tail), reverse=True):
            mask = window[size - 1 - length]
            seed = (mask & -mask).bit_length() - 1
            if mask and (best is None or seed < best[0]):
                best = (seed, length)
        if best is not None:
            return best
    if window[-1] > 1:
        return window[-1].bit_length() - 1, 0
    return None


def _trace_back(phi: Morphism, run: _Run, before_end: int, seed: int) -> str:
    """The y of the chain from ``seed`` to position |phi(u)| - before_end,
    as one string of source symbols.

    Each step takes the first predecessor in start order (the longest image
    first, then source order) that the seed reaches.  That is the rule of
    the backtrack of the reference DP in ``tests/test_interference.py``,
    which takes the first predecessor with the same value: the smallest
    (largest) seed at a match's end is at most (at least) the one at its
    start, so a predecessor that the seed reaches has the seed's value.

    The walk reads the states of the symbol-by-symbol run, rebuilt from the
    slice ends by :meth:`_Run.state`, so slicing the run cannot change the
    witness.  It counts positions back from the end of phi(u) until it can
    pin them to the start cheaply: at a jump to the cut of u[:h], from
    |phi(u[:h])|, or once k <= max|img| - 1.  No seed is passed before that:
    the walk moves q only when q > |phi(u[:k - 1])| >= k - 1, which is at
    least max|img| - 1 while k > max|img| - 1, and a seed, the length of a
    proper image suffix, is at most max|img| - 1.
    """
    text = run.text
    image_of = phi.image_map
    ends = phi.image_ends
    base = phi.max_image_length - 1

    def length(k):  # |phi(u[:k])|
        return sum(text.count(c, 0, k) * len(img) for c, img in phi.images)

    chunks: list[str] = []
    # cut = |phi(u[:k])| >= q, from k = |u|; both less |phi(u)| until pinned
    k, cut, q = len(text), 0, -before_end
    pinned = False
    while not (pinned and q == seed):
        if not pinned and k <= base:
            shift = length(k) - cut
            cut, q, pinned = cut + shift, q + shift, True
            continue
        a = text[k - 1]
        prev = cut - len(image_of[a])
        if prev >= q:
            k, cut = k - 1, prev
            continue
        if q == cut:
            # a seed that reaches one cut reaches every later one
            h = run.first_reaching(seed, k)
            if h < k:
                chunks.append(text[h:k])
                k, pinned = h, True
                cut = q = length(h)
                continue
        state = run.state(k - 1)
        masks = state.frames[a]
        i = q - prev + base  # frame index of q
        for end, start, before, c in ends[a]:
            if end == i and masks[start] >> seed & 1 and state.tail.endswith(before):
                break
        chunks.append(c)
        q -= end - start
    return "".join(reversed(chunks))


def is_interference_free_on(phi: Morphism, u: Word) -> InterferenceDecision:
    """Decide interference-freeness of the injective phi on the single
    nonempty word u.  A symbol of u with no image raises
    ``AlphabetMismatchError``, which names the first such symbol of u.

    A u of more than ``_SLICE`` symbols is IF at once when phi is IF on
    every word, a flag that the morphism's first such decision computes;
    a shorter u is read in at most ``_SLICE`` symbol steps, so it neither
    computes nor reads the flag."""
    phi.require_injective("interference-freeness")
    if len(u) == 0:
        raise ValueError("interference-freeness is defined for nonempty words")
    text = u.text
    if not u.alphabet._symbol_set <= phi.image_map.keys():
        # the first symbol of u without an image, found without applying phi
        missing = u.alphabet._symbol_set - phi.image_map.keys()
        first = min(((i, c) for c in missing if (i := text.find(c)) >= 0), default=None)
        if first:
            raise AlphabetMismatchError(f"symbol {first[1]!r} has no image")
    size = phi.max_image_length
    if len(text) > _SLICE and _if_on_every_word(phi):
        return InterferenceDecision(True)
    head = phi.apply_text(text[:size])
    run = _run_automaton(phi, text, p_pref_lengths(phi, head))
    state = run.states[-1]
    found = _accepting(phi, state)
    if found is None:
        # the inner kind needs |phi(u)| <= max|img| - 2: then phi(u) == head,
        # while a longer u has |head| >= max|img|
        witness = is_inner_image_factor(phi, head) if len(head) <= size - 2 else None
        return InterferenceDecision(witness is None, witness)
    seed, length = found
    x, z = head[:seed], state.tail[len(state.tail) - length :]
    witness = InterferenceWitness(
        INTERFERED_FACTORIZATION,
        x=x,
        y=_trace_back(phi, run, length, seed),
        z=z,
        donor_x=affix_donor(phi, x, suffix=True),
        donor_z=affix_donor(phi, z, suffix=False),
    )
    return InterferenceDecision(False, witness)


def interference_free_on_every_word(phi: Morphism) -> Word | None:
    """None when the injective phi is interference-free on every nonempty
    word over its source; otherwise the shortest, then lexicographically
    smallest (in source order) word on which it is not.

    That word is a single symbol: phi interferes on some word only if it
    interferes on one of its symbols (see the module docstring).  Each
    symbol c is one step of the window automaton, from the state before
    it: P_pref and P_suf are read from phi(c) and from the state's tail, so
    phi is not applied to a word and no run is kept."""
    phi.require_injective("interference-freeness")
    image_of = phi.image_map
    symbols = phi.source.symbols
    # the affix sets (and their budget) before image_ends, as in a decision
    seeds = [p_pref_lengths(phi, image_of[c]) for c in symbols]
    start = _automaton(phi)
    for c, p_pref in zip(symbols, seeds):
        if _accepting(phi, start(p_pref)[c]) or is_inner_image_factor(phi, image_of[c]):
            return Word._trusted(c, phi.source)
    return None


def _if_on_every_word(phi: Morphism) -> bool:
    """Whether phi is interference-free on every nonempty word, decided on
    the first call for each morphism and kept in its ``__dict__``, as a
    ``cached_property`` keeps its value; the automaton of that decision is
    dropped."""
    flags = phi.__dict__
    flag = flags.get(_FLAG)
    if flag is None:
        flag = flags[_FLAG] = interference_free_on_every_word(phi) is None
    return flag


def is_strongly_interference_free(phi: Morphism) -> StrongInterferenceDecision:
    """phi is strongly interference-free iff it is interference-free on every
    single source symbol, that is, on every nonempty word.  The first
    symbol on which it is not is the failing symbol, and the decision on
    that symbol gives the witness."""
    u = interference_free_on_every_word(phi)
    if u is None:
        return StrongInterferenceDecision(True)
    return StrongInterferenceDecision(False, u.text, is_interference_free_on(phi, u).witness)

