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
(:func:`_image_ends` lists them per symbol, at their indices in the step's
frame).  A seed's placement depends only on its distance past the cut, not
on the cut itself, so a transition depends only on the state's key (tail,
masks, pending seeds).  Transitions are memoized per call, on each state's
row keyed by the symbol, and every state, the initial one included, is
interned by its key; no state is cached across calls (a morphism keeps
its image-end table, the string of its interfering symbols and an int, see
"Every word" and "The jump" below).  So the run is one DFA over the source
alphabet from its initial state.  Interning cannot merge two positions of
one run at a state with pending seeds: a pending seed's distance is the
seed minus the cut, and the cut strictly increases, as the images of an
injective phi are nonempty.  A row holds next states only, one per symbol step, and no entry
is removed within a call, so the states inside any stretch of u that the
run has read can be rebuilt from the state at its start by memo hits
alone.  A run keeps the state after each slice of ``_SLICE`` symbols and
after u, so a word of at most ``_SLICE`` symbols is one slice.  A word of
2 ``_SLICE`` + D symbols or more may skip its middle instead (see "The
jump").

**The jump.**  Two facts let a decision on a long u read only its ends.

* Seeds are independent.  Each bit of a mask evolves by the DP rule alone:
  a pending seed is set at its own position, and bits are ORed along image
  occurrences under tail tests that read only the text.  So the bits of
  seed 0 follow the run from ``start(())``, the state with no P_pref seed,
  over the same prefix.  Once ``ahead`` is empty and every mask is at most
  1, no other seed can come back, and the state's key is the one that the
  run from ``start(())`` reaches: from there on the two runs pass the same
  interned states.
* The automaton may be definite (Perles, Rabin & Shamir, "The theory of
  definite automata", IEEE Trans. Electronic Computers EC-12, 1963): its
  delay D is the least D such that every word of length D sends all the
  states reachable from ``start(())`` to one state.  For a code this is a
  bounded synchronization delay (Berstel, Perrin & Reutenauer, *Codes and
  Automata*, 2009).  :func:`_definite_delay` computes D, or None when
  there is none or the states pass ``_DELAY_BUDGET``, on the first
  decision of a morphism that could jump, and keeps the int in its
  ``__dict__`` beside the interfering symbols; a u of fewer than 2
  ``_SLICE`` symbols neither computes nor reads it.  D is 1 for five of
  the named morphisms and 2 for ``variant-thue-morse``.

So when the state after the first slice, u[:``_SLICE``], has no pending
seed and no mask bit but seed 0's, and phi has a delay D with |u| >= 2
``_SLICE`` + D, the state after u[:j], j = |u| - ``_SLICE``, is the one that
u[j - D:j] reaches from the first slice's end: both are states reachable
from ``start(())``, and u[j - D:j] sends them to one state.  The run then
reads the last slice from it.  Every other decision reads all of u.  A
jumped decision costs O(``_SLICE`` + D) memo steps whatever |u|, besides
the C-level ``str.count`` calls of a witness; on Fibonacci and Thue-Morse
words the first slice already leaves seed 0 alone.  The state after any
prefix in the skipped middle is still the symbol-by-symbol run's, rebuilt
from the first slice's end when the backtrack asks for it.

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

A call reaches at most |u| + 1 states, and a jumped one at most 2
``_SLICE`` + D + 1 unless its backtrack enters the middle, each of
O(max|img|) size, so the state memory is O(|u| max|img|) in the worst
case; the classic inputs of the benchmark reach three or four.  A run that
reads all of u costs |u| symbol lookups, each one C-level dict lookup in a
``reduce`` over one slice, and O(k max|img|) Python work per distinct
(state, symbol) pair, for a morphism with k images; a jumped decision
costs 2 ``_SLICE`` + D lookups whatever |u|.  Rows hold no longer keys: a
memoized slice would save lookups only on a long word whose slices repeat
that is read in full, and a long decision on a classic word returns from
the interfering symbols or jumps.

**The witness.**  The run keeps the states at its segment ends: after
each slice and after u, or after the first slice, the skipped middle and
the last slice of a jump.  The state after any other prefix of u is
rebuilt from the state at the start of its segment, by memo hits alone
outside a skipped middle, and it is the object that the symbol-by-symbol
run reaches (:class:`_Run`).  So the backtrack reads the same states as a
run that records every state, and neither keeping only the segment ends
nor the jump can change the witness; a backtrack that enters the middle
only costs its symbol steps.
The masks of any position follow from the step that covers it.  That
step, from a state by a symbol a, writes only the positions past the cut,
so its frame (the masks of the positions cut - max|img| + 1 .. cut +
|phi(a)|) is the first |phi(a)| masks of the state's window followed by
the next state's window.  The backtrack applies the rule of the
text-level DP over the positions of w, which ``tests/test_interference.py``
keeps as the reference of every decision field: from the accepting
position it takes the first predecessor in start order (the longest image
first, then source order) that the witness's seed reaches, until it stands
on that seed.  A stretch of the path along canonical cuts that the seed
reaches is copied as ``u[h:k]`` in one piece, and h is found by bisection
over the segment ends, then inside one segment.  That is sound:
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
word exactly when it is strongly IF (IF on each single symbol), and the
shortest, then lexicographically smallest word on which it interferes is
its first such symbol in source order.  "If" holds as symbols are words.
The proof of "only if" shows more: phi interferes on u only if it
interferes on some symbol of u.  The converse fails: the Fibonacci
morphism interferes on b (phi(b) = a is a proper image prefix) but is IF
on ba.  Proof: let u = u_1 ... u_n with n >= 2, and L = |phi(u_1)| >= 1
(an injective phi is non-erasing); each case below ends at u_1 or at a
symbol of u_2 ... u_n.

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
to no word.  The symbols on which phi interferes, in source order, are
kept across calls as one string in the morphism's ``__dict__``, beside the
delay (:func:`_symbols_interfered_on`).  Every decision reads that table,
computing it on the morphism's first decision: when none of its symbols
occurs in u (one ``str.__contains__`` per symbol), phi is IF on u, with no
run and phi applied to no symbol.  An empty table is IF on every word,
and :func:`interference_free_on_every_word` returns the table's first
symbol.  Any other u is read by a run, IF or not, since a NOT-IF witness
is one of u's own factorizations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import isqrt
from operator import getitem

from .aho_corasick import p_pref_lengths, p_suf_lengths
from .errors import AlphabetMismatchError
from .morphisms import Morphism
from .words import Word

_SLICE = 128  # symbols of u per segment of a run (see _run_automaton)
_INTERFERING = "_interfering_symbols"  # the key of phi's interfering symbols in its __dict__
_DELAY = "_window_delay"  # the key of the delay of phi's automaton, beside them
_ENDS = "_image_ends"  # the key of its image-end table (see _image_ends), beside both
# pairs of states times source symbols that computing the delay may visit
_DELAY_BUDGET = 1 << 16

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
    the state maps a source symbol to the next state, and holds nothing
    else: a missing entry is computed by ``advance`` and stored, so
    ``reduce(getitem, ...)`` and ``accumulate(..., getitem)`` run without a
    Python-level step on every memo hit.
    """

    __slots__ = ("tail", "window", "ahead", "advance")

    def __init__(self, tail, window, ahead, advance):
        self.tail = tail
        self.window = window
        self.ahead = ahead
        self.advance = advance

    def __missing__(self, a):
        nxt = self[a] = self.advance(self, a)
        return nxt


class _Run:
    """The states of one run of the automaton over u, kept at segment ends.

    ``states[i]`` is the state after u[:ends[i]], from ``ends[0]`` = 0 to
    the last end, |u|.  A segment ends every ``_SLICE`` symbols (a slice)
    and at |u|, or, when the run jumps (see :func:`_run_automaton`), at the
    ends of its first slice, of the skipped middle and of its last slice;
    so a full run keeps |u| / ``_SLICE`` + 1 states, rounded up, and a word
    of at most ``_SLICE`` symbols is one segment with 2 states.  The states
    inside a segment are rebuilt on demand, once per segment, from the
    state at its start: they are the same objects that a symbol-by-symbol
    run records, so the backtrack reads the same states.
    """

    __slots__ = ("text", "ends", "states", "_inside")

    def __init__(self, text, ends, states):
        self.text = text
        self.ends = ends
        self.states = states
        self._inside = {}

    def _segment(self, i):
        """The states after each prefix of segment i, from the one at its start."""
        states = self._inside.get(i)
        if states is None:
            chunk = self.text[self.ends[i] : self.ends[i + 1]]
            states = self._inside[i] = list(accumulate(chunk, getitem, initial=self.states[i]))
        return states

    def state(self, k):
        """The state after u[:k]."""
        i = bisect_right(self.ends, k) - 1
        r = k - self.ends[i]
        return self._segment(i)[r] if r else self.states[i]

    def first_reaching(self, seed, k):
        """The least h < k such that ``seed`` reaches the cut of u[:h], else k.

        A seed that reaches the cut of u[:h] reaches every later cut, along
        the occurrences of phi(u[h]), phi(u[h + 1]), ...  So the bisection
        runs over the states at the segment ends before k first, and then
        inside the one segment that holds h (an empty range when it has one
        symbol).
        """
        ends = self.ends

        def reached(state):
            return state.window[-1] >> seed & 1

        j = bisect_left(self.states, 1, 0, bisect_left(ends, k), key=reached)
        if j == 0:
            return 0
        begin = ends[j - 1]  # h lies in this segment, whose start the seed does not reach
        return begin + bisect_left(
            self._segment(j - 1), 1, 1, min(ends[j], k) - begin, key=reached)


def _automaton(phi: Morphism):
    """The window automaton of phi, as a function from a set P_pref to the
    state before u's first symbol, whose ``ahead`` holds every seed.  Its
    states are interned by their keys and share one ``advance``, so runs
    from several start sets read and fill the same rows."""
    image_of = phi.image_map
    # a plain dict read once kept: a decision pays no call for the table
    ends = phi.__dict__.get(_ENDS) or _kept(phi, _ENDS, _image_ends)
    base = phi.max_image_length - 1  # frame index of the cut
    keep = slice(-base, None) if base else slice(0, 0)  # the last base symbols
    states: dict[tuple, _State] = {}

    def advance(state, a):
        """The state after reading ``a`` in ``state``.

        The step's frame holds the masks of the positions cut - max|img| + 1
        .. cut + |phi(a)|.  A new position gets its own P_pref seed, if one
        lies that far ahead, and ORs the masks where the images ending at it
        start (each final, as it lies further left).  Only the new positions
        are written, so :func:`_trace_back` derives the frame from the two
        states (see "The witness" in the module docstring).
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
    its first symbol, whose ``ahead`` holds every P_pref seed.  u is read
    in slices of ``_SLICE`` symbols, each by C-level symbol steps
    (``reduce(getitem, ...)``), and the run keeps the state after each
    slice; a u of at most ``_SLICE`` symbols is one slice.

    The run jumps over the middle of u when the first slice leaves only
    seed 0 alive and phi has a delay D with |u| >= 2 ``_SLICE`` + D: the
    state after u[:j], j = |u| - ``_SLICE``, is then the one that the D
    symbols before j reach from the first slice's end (see the module
    docstring), and the last slice is read from it."""
    state = _automaton(phi)(p_pref)
    size = len(text)
    first = reduce(getitem, text[:_SLICE], state)
    if size >= 2 * _SLICE and not first.ahead and max(first.window) <= 1:
        delay = _window_delay(phi)
        j = size - _SLICE
        if delay is not None and j - delay >= _SLICE:
            middle = reduce(getitem, text[j - delay : j], first)
            last = reduce(getitem, text[j:], middle)
            return _Run(text, [0, _SLICE, j, size], [state, first, middle, last])
    states = [state, first]
    for begin in range(_SLICE, size, _SLICE):
        states.append(reduce(getitem, text[begin : begin + _SLICE], states[-1]))
    return _Run(text, [*range(0, size, _SLICE), size], states)


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
    segment ends by :meth:`_Run.state`, so keeping only those ends cannot
    change the witness; the frame of a step is the first |phi(a)| masks of
    the state's window followed by the next state's window.  It counts
    positions back from the end of phi(u) until it can pin them to the
    start cheaply: at a jump to the cut of u[:h], from |phi(u[:h])|, or
    once k <= max|img| - 1.  No seed is passed before that: the walk moves
    q only when q > |phi(u[:k - 1])| >= k - 1, which is at least max|img| -
    1 while k > max|img| - 1, and a seed, the length of a proper image
    suffix, is at most max|img| - 1.
    """
    text = run.text
    image_of = phi.image_map
    ends = phi.__dict__[_ENDS]  # kept by the run's automaton
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
        size = len(image_of[a])
        prev = cut - size
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
        masks = state.window[:size] + state[a].window
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

    u is IF at once, with no run and phi applied to no symbol, when none
    of the symbols on which phi interferes occurs in it: a table of them
    that the morphism's first decision computes (see "Every word" in the
    module docstring).  Otherwise a run reads u, and a long u may skip its
    middle, by the delay of phi (see :func:`_run_automaton`)."""
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
    # phi interferes on u only if it interferes on a symbol of u
    if not any(map(text.__contains__, _interfering_symbols(phi))):
        return InterferenceDecision(True)
    size = phi.max_image_length
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
    interferes on one of its symbols (see the module docstring).  It is the
    first symbol of the table that decisions read, the symbols on which phi
    interferes (:func:`_symbols_interfered_on`), computed once per morphism
    by one automaton step per source symbol."""
    phi.require_injective("interference-freeness")
    interfering = _interfering_symbols(phi)
    return Word._trusted(interfering[0], phi.source) if interfering else None


def _kept(phi: Morphism, key: str, compute):
    """``compute(phi)``, computed on the first call for each morphism and
    kept in its ``__dict__`` under ``key``, as a ``cached_property`` keeps
    its value: the image-end table, the interfering symbols and the delay."""
    kept = phi.__dict__
    if key not in kept:
        kept[key] = compute(phi)
    return kept[key]


def _image_ends(phi: Morphism) -> dict[str, tuple[tuple[int, int, str, str], ...]]:
    """For each source symbol a, the image occurrences that end inside
    phi(a) in the frame of a step that reads a: the last max|img| - 1
    symbols before the cut (frame indices 0 .. max|img| - 2, the cut at
    index max|img| - 1), followed by phi(a).

    A tuple (end, start, before, c) says that the image of c occupies frame
    positions start..end (0-based, end exclusive) when the state's tail
    ends with ``before`` (empty when the image lies inside phi(a)).  The
    tuples are sorted by end, then by start, then in source order."""
    base = phi.max_image_length - 1
    by_length = sorted(phi.images, key=lambda item: -len(item[1]))
    ends = {}
    for a, image in phi.images:
        found = []
        for e in range(1, len(image) + 1):
            for c, img in by_length:
                split = max(len(img) - e, 0)
                if image[e - len(img) + split : e] == img[split:]:
                    found.append((base + e, base + e - len(img), img[:split], c))
        ends[a] = tuple(found)
    return ends


def _interfering_symbols(phi: Morphism) -> str:
    """The symbols of :func:`_symbols_interfered_on`, computed on the first
    call for each morphism and kept in its ``__dict__``; the automaton is
    dropped."""
    return _kept(phi, _INTERFERING, _symbols_interfered_on)


def _symbols_interfered_on(phi: Morphism) -> str:
    """The source symbols on which phi interferes, in source order, as one
    string.  Each symbol c is one step of the window automaton, from the
    state before it: P_pref and P_suf are read from phi(c) and from the
    state's tail, so phi is applied to no word and no run is kept."""
    image_of = phi.image_map
    symbols = phi.source.symbols
    # the affix sets (and their budget) before the image-end table, as in a decision
    seeds = [p_pref_lengths(phi, image_of[c]) for c in symbols]
    start = _automaton(phi)
    return "".join(
        c for c, p_pref in zip(symbols, seeds)
        if _accepting(phi, start(p_pref)[c]) or is_inner_image_factor(phi, image_of[c]))


def _definite_delay(phi: Morphism) -> int | None:
    """The delay D of the window automaton of phi from ``start(())``: the
    least D such that every word of length D sends all the states reachable
    from it to one state.  None when there is no such D (the automaton is
    not definite), or when the states exceed the budget.

    The states are found breadth first, on an automaton of their own, and
    dropped on return.  The graph that joins each pair (p, q) of distinct
    states to (p[a], q[a]), when those differ, has a path of n edges iff
    some word of length n keeps two states apart.  So the automaton is
    definite iff that graph is acyclic, and D is then 1 + its longest path
    (0 for a single state).  Its pairs are visited in topological order, so
    the work is O(pairs |Sigma|): at most ``_DELAY_BUDGET`` pair steps, as
    the search gives up at the state that would pass it."""
    symbols = phi.source.symbols
    limit = isqrt(2 * _DELAY_BUDGET // len(symbols))  # states within the budget
    start = _automaton(phi)(())
    reached, index, rows = [start], {id(start): 0}, []
    for state in reached:  # grows as new states are found
        row = []
        for a in symbols:
            nxt = state[a]
            i = index.get(id(nxt))
            if i is None:
                if len(reached) >= limit:
                    return None
                i = index[id(nxt)] = len(reached)
                reached.append(nxt)
            row.append(i)
        rows.append(row)
    pairs = [(p, q) for q in range(len(rows)) for p in range(q)]
    after, waiting = {}, dict.fromkeys(pairs, 0)  # successors and in-degrees
    for p, q in pairs:
        nxt = after[p, q] = [
            (x, y) if x < y else (y, x) for x, y in zip(rows[p], rows[q]) if x != y]
        for pair in nxt:
            waiting[pair] += 1
    order = [pair for pair, count in waiting.items() if not count]
    for pair in order:  # grows as in-degrees fall to 0
        for nxt in after[pair]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                order.append(nxt)
    if len(order) < len(pairs):
        return None  # a cycle: some word keeps two states apart for ever
    longest: dict[tuple[int, int], int] = {}
    for pair in reversed(order):
        longest[pair] = max((longest[nxt] + 1 for nxt in after[pair]), default=0)
    return 1 + max(longest.values(), default=-1)


def _window_delay(phi: Morphism) -> int | None:
    """The delay of phi's window automaton (:func:`_definite_delay`),
    computed on the first call for each morphism and kept in its
    ``__dict__`` beside the interfering symbols; the automaton is dropped."""
    return _kept(phi, _DELAY, _definite_delay)
