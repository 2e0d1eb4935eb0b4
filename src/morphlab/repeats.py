"""Minimal unique substrings, net occurrences and occurrence preservation.

A MUS is a unique substring both of whose one-symbol trims are repeated
(the empty trim of a length-1 MUS counts as repeated).  A net occurrence is
an occurrence of a repeated substring whose one-symbol extensions are both
unique, out-of-range extensions counting as unique.  MUSs are computed from
the array l(i) of shortest-unique-substring lengths per start position,
derived in one text-order pass from the suffix array; net occurrences are
the gaps between consecutive MUS occurrences.  Symbols are ordered by code
point.

The suffix array is built by SA-IS, with one induced sort per level: the
LMS substrings are named by one C-level sort of byte-string keys (see
``_sais``), not by a first induced sort.  That is O(n) Python-level steps
and O(n) memory, plus the sort of the LMS keys, which is O(n log n) byte
comparisons in the worst case; the recursion depth is at most log2 n, since
each level at least halves the length.  l(i) comes from one pass of
Kasai's LCP algorithm over the text positions, each paired with its
predecessor in the suffix array (the permuted LCP of Kärkkäinen, Manzini &
Puglisi); each LCP found raises l at both suffixes of its pair, so no rank
array and no LCP array in suffix-array order are built, and no second pass
is made.  That pass is O(n) steps and O(n) memory, and its comparisons end
at a sentinel placed after the last symbol, so they need no bounds tests.
Naive substring-counting versions serve as oracles at small scale.

``compute_mus`` and ``compute_net_occurrences`` both read the MUS intervals
of ``_mus_intervals``, which keeps the last text's intervals in a one-entry
cache keyed by the text.  So asking for the MUSs and then the net
occurrences of one word sorts its suffixes once.  The entry holds only the
lists of MUS starts and ends (the suffix array, the predecessor array and
l(i) are dropped), and one entry is enough for that pairing while retaining
nothing of earlier words.

The results are named tuples, built in C by ``tuple.__new__`` over the
zipped fields.  A ``MusOccurrence`` holds its interval and the word that was
searched, and slices its ``content`` from that word only when it is read; a
``NetOccurrence`` is its interval alone.

All reported intervals are 1-based and inclusive.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import gt, le
from typing import NamedTuple

from .errors import NonInjectiveMorphismError
from .interference import is_interference_free_on
from .morphisms import Morphism
from .words import Word, flip, longest_proper_prefix, occ_count, occurrences
from . import classic

_INF = 1 << 30

# SA-IS keys are 4-byte big-endian codes, so bytes order is the order of the
# codes; the cap is above every code, since codes and names are below 2**32 - 1
if array("I").itemsize != 4:
    raise ImportError("morphlab.repeats needs 4-byte array('I') items")
_CAP = b"\xff" * 4


class MusOccurrence(NamedTuple):
    """The MUS occurrence ``word[start - 1 : end]``.  ``word`` is the word
    that was searched; ``content`` slices it each time it is read."""

    start: int
    end: int
    word: Word

    @property
    def content(self) -> Word:
        return self.word[self.start - 1 : self.end]

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end

    def __repr__(self) -> str:
        return f"MusOccurrence(start={self.start}, end={self.end}, content={self.content.text!r})"


class NetOccurrence(NamedTuple):
    start: int
    end: int

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end


# -- suffix structures --------------------------------------------------------

def suffix_array(text: str) -> list[int]:
    """Suffix array of ``text`` by SA-IS (Nong, Zhang & Chan 2009): the
    start positions of its suffixes in increasing order, symbols compared by
    code point, so the order is Python's ``str`` order.  O(n) Python-level
    steps and O(n) memory, plus a C-level sort of the LMS keys of each level
    (see ``_sais``); the recursion depth is at most log2 n, since each level
    at least halves the length."""
    code = {c: k for k, c in enumerate(sorted(set(text)))}
    return _sais(list(map(code.__getitem__, text)), len(code))


def _sais(s: list[int], upper: int) -> list[int]:
    """Suffix array of ``s``, whose values lie in range(upper).

    The end of ``s`` acts as a virtual sentinel smaller than every symbol.
    A suffix is S-type when it is smaller than the suffix after it and
    L-type otherwise; the last one is L-type.  An LMS position is an S-type
    one after an L-type one.  Induced sorting places the sorted LMS suffixes
    at their bucket ends and derives every L-type suffix from them in one
    forward scan and every S-type suffix in one backward scan.

    The LMS suffixes are sorted by naming the LMS substrings (from one LMS
    position to the next, inclusive).  Each gets the key of its symbols as
    4-byte big-endian codes followed by the cap ``b"\\xff" * 4``; the last,
    which runs into the sentinel, gets its codes with no cap.  One sort of
    the distinct keys names them, and a name string of at most n/2 symbols,
    one per LMS position, is sorted by recursion, unless every name is
    distinct and the sorted keys already give the order.

    Key order is the order of the LMS suffixes wherever the keys differ, and
    equal keys are equal substrings.  Keys that differ at some code order
    their suffixes by it.  When a capped v is a proper prefix, in symbols,
    of another LMS substring w, v's cap sorts it after w, and so do the
    suffixes: v's last position is S-type, and the same offset inside w is
    L-type (its predecessor is L-type, as in v, and it is no LMS position),
    and an S-type suffix is above an L-type one that starts with the same
    symbol.  When the last substring is a prefix of another, its suffix is a
    proper prefix of that suffix, so it sorts first, as its uncapped key
    does; when another substring is a proper prefix of the last, the cap
    sorts it after the last, by the same S-type/L-type argument.

    O(n) Python-level steps and O(n) memory per level.  The m keys hold
    4(n + m) bytes in all, so hashing them is O(n), and a comparison stops
    within the shorter key, so each merge pass of the sort compares O(n)
    bytes: O(n log n) byte comparisons in the worst case."""
    n = len(s)
    if not n:
        return []
    # is_s[i]: suffix i is S-type; built right to left against the next
    # symbol (the sentinel -1 after the last), an equal one carrying the type
    typ = False
    is_s = [
        typ := (c < d if c != d else typ)
        for c, d in zip(reversed(s), chain((-1,), reversed(s)))
    ]
    is_s.reverse()
    lms = list(compress(range(1, n), map(gt, islice(is_s, 1, None), is_s)))
    packed = array("I", s)
    if sys.byteorder == "little":
        packed.byteswap()
    codes = packed.tobytes()
    # one key per LMS substring, capped, but for the last, which has no cap
    keys = [codes[4 * v : 4 * e + 4] + _CAP for v, e in zip(lms, islice(lms, 1, None))]
    if lms:
        keys.append(codes[4 * lms[-1] :])
    del packed, codes
    ranked = sorted(set(keys))
    if len(ranked) == len(keys):
        order = list(map(dict(zip(keys, lms)).__getitem__, ranked))
        del keys, ranked
    else:
        names = list(map(dict(zip(ranked, range(len(ranked)))).__getitem__, keys))
        del keys, ranked  # the keys outweigh the rest of this level
        order = list(map(lms.__getitem__, _sais(names, max(names) + 1)))

    # pred[v] describes suffix v - 1: s[v - 1] when it is L-type, -2 - s[v - 1]
    # when it is S-type; suffix 0 has no predecessor, so -1, and the 0 of an
    # empty slot reads the same
    pred = [-2 - c if t else c for c, t in zip(chain((-1,), s), chain((True,), is_s))]
    del is_s
    counts = Counter(s)
    bounds = [0, *accumulate(map(counts.__getitem__, range(upper)))]
    sa = [0] * n
    tail = bounds[1:]
    for v in reversed(order):
        c = s[v]
        tail[c] -= 1
        sa[tail[c]] = v
    head = bounds[:-1]
    c = s[n - 1]
    sa[head[c]] = n - 1
    head[c] += 1
    for v in sa:  # writes land ahead of the iterator, which reads them
        c = pred[v]
        if c >= 0:
            i = head[c]
            sa[i] = v - 1
            head[c] = i + 1
    tail = bounds[1:]
    for v in reversed(sa):  # writes land behind the reversed iterator
        c = pred[v]
        if c < -1:
            c = -2 - c
            i = tail[c] - 1
            sa[i] = v - 1
            tail[c] = i
    return sa


def lcp_array(text: str, sa: list[int]) -> list[int]:
    """Kasai's algorithm: lcp[k] = LCP of suffixes sa[k-1] and sa[k].

    The symbols are compared as a list ending in ``None``, which equals no
    symbol, so a comparison stops at the end of the shorter suffix without a
    bounds test (two distinct suffixes never reach the end together).

    Nothing in the library calls it: ``shortest_unique_lengths`` finds its
    LCPs in text order.  It is kept for the tests, which check it against
    the definition, and for the benchmark's tracer, which wraps it by
    name."""
    n = len(text)
    rank = [0] * n
    for r, i in enumerate(sa):
        rank[i] = r
    s = [*text, None]
    lcp = [0] * n
    h = 0
    for i, r in enumerate(rank):
        if r:
            j = sa[r - 1]
            while s[i + h] == s[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def shortest_unique_lengths(text: str) -> list[int]:
    """l[i] = length of the shortest unique substring starting at 0-based i,
    or _INF when every substring starting at i is repeated.

    One pass over the text positions.  Phi[i] is the suffix just before
    suffix i in the suffix array (Kärkkäinen, Manzini & Puglisi 2009); for
    the first it is n, the empty suffix, which sorts before every other.
    A substring of length m starting at i is repeated iff another suffix
    shares m symbols with suffix i, and the suffixes that share the most
    with it are its neighbours in the suffix array, so
    l[i] = max(LCP(i, Phi[i]), LCP(i, next(i))) + 1, a missing next(i)
    sharing 0.  Kasai's pass finds h = LCP(i, Phi[i]) for i = 0, 1, ...,
    n - 1 and carries h - 1 to i + 1: when j = Phi[i] shares h >= 1
    symbols with i, suffix j + 1 sorts before i + 1 and shares h - 1 with
    it, and Phi[i + 1] sorts at or after j + 1 and just before i + 1, so it
    shares at least h - 1 too.  At the first suffix in the array the carry
    is 0, since a carry of h - 1 >= 1 would sort suffix j + 1 before it, so
    its comparison with the empty suffix reads only s[n].  So i + h never
    falls, and the pass makes O(n) symbol comparisons.  They end at the
    ``None`` placed at s[n], after the last symbol, which equals no symbol,
    so they need no bounds tests (two distinct suffixes never reach the end
    together).  Each h is the LCP of one pair of neighbours, so it raises
    both l[i] and l[j] to h + 1; a position is raised by its predecessor's
    pair at its own step and by its successor's pair at the successor's
    step, so it ends at the max.  The empty suffix shares 0 symbols, so its
    slot l[n] stays 1 and is dropped.

    The tail: the max is at most n - i, the length of suffix i, and reaches
    it exactly when suffix i is a prefix of another suffix, that is when it
    occurs elsewhere and no substring starting at i is unique; l[i] is then
    n - i + 1 and becomes _INF.  If suffix i occurs at p != i, suffix i + 1
    occurs at p + 1, so these positions form one range ending at n - 1, and
    a backward walk that stops at the first other position finds them all.

    Only Phi, the symbol list and l are held during the pass: O(n) memory
    beside the suffix sort."""
    n = len(text)
    if n == 0:
        return []
    sa = suffix_array(text)
    phi = [n] * n
    for j, i in zip(sa, islice(sa, 1, None)):
        phi[i] = j
    del sa
    s = [*text, None]
    l = [1] * (n + 1)  # l[n], of the empty suffix, is read and never raised
    h = 0
    for i, j in enumerate(phi):
        while s[i + h] == s[j + h]:
            h += 1
        if h >= l[i]:
            l[i] = h + 1
        if h >= l[j]:
            l[j] = h + 1
        if h:
            h -= 1
    l.pop()
    i = n - 1
    while i >= 0 and l[i] > n - i:
        l[i] = _INF
        i -= 1
    return l


# -- MUS and net occurrences --------------------------------------------------

@lru_cache(maxsize=1)
def _mus_intervals(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 1-based starts and ends of the MUSs of the nonempty ``text``,
    sorted by start.

    One suffix sort per call.  The cache keeps the last text's intervals
    only: ``compute_mus`` followed by ``compute_net_occurrences`` on the same
    word hits it, and a second entry would serve no call pattern of the
    library while keeping an earlier word's text and intervals alive."""
    l = shortest_unique_lengths(text)
    # i starts a MUS iff l[i] is finite and its right trim, at i + 1, is
    # repeated: l[i + 1] >= l[i], with l[n] = INF.  (l[i + 1] >= l[i] - 1
    # always holds, so a length-1 MUS passes the same test.)
    l.append(_INF)
    starts: list[int] = []
    ends: list[int] = []
    for start, a, b in zip(count(1), l, islice(l, 1, None)):
        if a <= b and a < _INF:
            starts.append(start)
            ends.append(start + a - 1)
    return tuple(starts), tuple(ends)  # the cache hands them to every caller


def compute_mus(w: Word) -> list[MusOccurrence]:
    """All MUS occurrences of w, sorted by start position; each holds w and
    slices its content when read.  The intervals come from ``_mus_intervals``,
    so a following ``compute_net_occurrences(w)`` does not sort w's suffixes
    again."""
    if not w.text:
        raise ValueError("MUSs are defined for nonempty words")
    starts, ends = _mus_intervals(w.text)
    return list(map(tuple.__new__, repeat(MusOccurrence), zip(starts, ends, repeat(w))))


def compute_net_occurrences(w: Word) -> list[NetOccurrence]:
    """All net occurrences of w, sorted by start position: the gaps between
    consecutive MUS occurrences (see ``mus_to_net``), read off the cached
    intervals of ``_mus_intervals`` without building any ``MusOccurrence``."""
    if not w.text:
        raise ValueError("net occurrences are defined for nonempty words")
    return _interleave(*_mus_intervals(w.text), len(w))


def mus_to_net(mus_list: list[MusOccurrence], n: int) -> list[NetOccurrence]:
    """Interleave consecutive MUS intervals into net occurrences:
    [1, j_1 - 1], [i_1 + 1, j_2 - 1], ..., [i_m + 1, n].  Intervals that come
    out empty are dropped."""
    if not mus_list:
        raise ValueError("mus_to_net requires a nonempty MUS list")
    return _interleave([m.start for m in mus_list], [m.end for m in mus_list], n)


def _interleave(
    starts: tuple[int, ...] | list[int], ends: tuple[int, ...] | list[int], n: int
) -> list[NetOccurrence]:
    """``mus_to_net`` on the starts and ends of MUSs sorted by start."""
    lo = [1, *map((1).__add__, starts)]
    hi = [*map((-1).__add__, ends), n]
    kept = compress(zip(lo, hi), map(le, lo, hi))
    return list(map(tuple.__new__, repeat(NetOccurrence), kept))


# -- naive oracles ------------------------------------------------------------

def _substring_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    n = len(text)
    for i in range(n):
        for j in range(i + 1, n + 1):
            s = text[i:j]
            counts[s] = counts.get(s, 0) + 1
    return counts


def naive_mus(w: Word) -> list[MusOccurrence]:
    """Definition-checking MUS oracle; quadratic space, small words only."""
    text = w.text
    counts = _substring_counts(text)
    n = len(text)

    def repeated(s: str) -> bool:
        return s == "" or counts[s] >= 2

    out = []
    for i in range(n):
        for j in range(i, n):
            s = text[i : j + 1]
            if counts[s] == 1 and repeated(s[1:]) and repeated(s[:-1]):
                out.append(MusOccurrence(i + 1, j + 1, w))
    out.sort()
    return out


def naive_net_occurrences(w: Word) -> list[NetOccurrence]:
    """Definition-checking net-occurrence oracle."""
    text = w.text
    counts = _substring_counts(text)
    n = len(text)

    def unique(i: int, j: int) -> bool:  # 0-based inclusive, out of range = unique
        if i < 0 or j >= n:
            return True
        return counts[text[i : j + 1]] == 1

    out = []
    for i in range(n):
        for j in range(i, n):
            if counts[text[i : j + 1]] >= 2 and unique(i - 1, j) and unique(i, j + 1):
                out.append(NetOccurrence(i + 1, j + 1))
    out.sort()
    return out


# -- occurrence preservation --------------------------------------------------

@dataclass(frozen=True)
class PreservationReport:
    """Outcome of checking occ(u, v) = occ(phi^k(u), phi^k(v)).

    When the interference-freeness preconditions fail at some iterate, the
    counts are still recorded; ``counts_equal`` then documents the observed
    behavior rather than a guarantee.
    """

    preconditions_hold: bool
    failing_iterate: int | None
    count_before: int
    count_after: int
    bijection_holds: bool | None

    @property
    def counts_equal(self) -> bool:
        return self.count_before == self.count_after

    @property
    def preserved(self) -> bool:
        return self.preconditions_hold and self.counts_equal


def verify_occurrence_preservation(
    phi: Morphism, u: Word, v: Word, k: int = 1
) -> PreservationReport:
    """Check count preservation and the position bijection
    p -> |phi^k(v[1..p-1])| + 1 between Occ(u, v) and Occ(phi^k(u), phi^k(v))."""
    if k < 1:
        raise ValueError("iteration count must be >= 1")
    if not phi.is_injective:
        raise NonInjectiveMorphismError(
            "occurrence preservation requires an injective morphism",
            witness=phi.injectivity_witness,
        )

    phi._require_iterable(u, k)  # phi^k(u) is built by k applies below
    image_v = phi.iterate(v, k)
    failing: int | None = None
    image_u = u
    for i in range(k):  # phi IF on phi^i(u) for i < k, building phi^k(u) once
        if failing is None and len(image_u) and not is_interference_free_on(phi, image_u):
            failing = i
        image_u = phi.apply(image_u)
    preconditions = failing is None

    before = occurrences(u, v)
    after = occurrences(image_u, image_v)

    bijection: bool | None = None
    if preconditions:
        # prefix image lengths of v under phi^k: |phi^k(c)| once per distinct symbol
        size = {c: len(phi.iterate(Word(c, v.alphabet), k)) for c in dict.fromkeys(v.text)}
        prefix = [0, *accumulate(map(size.__getitem__, v.text))]
        mapped = tuple(prefix[p - 1] + 1 for p in before)
        bijection = mapped == tuple(after.positions)
    return PreservationReport(preconditions, failing, len(before), len(after), bijection)


# -- theorem sweeps -----------------------------------------------------------

@dataclass(frozen=True)
class InstanceResult:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    name: str
    instances: tuple[InstanceResult, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.instances)


def _mus_set(w: Word) -> set[str]:
    return {m.content.text for m in compute_mus(w)}


def verify_fibonacci_mus(i_range) -> VerificationReport:
    """compute_mus(F_i) must equal the closed form
    {alpha_i . G_{i-3} . alpha_i, flip(alpha_i) . G_{i-2} . flip(alpha_i)}."""
    instances = []
    for i in i_range:
        if i < 6:
            raise ValueError(f"Fibonacci MUS closed form requires i >= 6, got {i}")
        alpha = classic.fibonacci_alpha(i)
        expected = {
            (alpha + classic.fibonacci_G(i - 3) + alpha).text,
            (flip(alpha) + classic.fibonacci_G(i - 2) + flip(alpha)).text,
        }
        got = _mus_set(classic.fibonacci_word(i))
        instances.append(
            InstanceResult(f"F_{i}", got == expected, f"got {sorted(got)}")
        )
    return VerificationReport("fibonacci-mus", tuple(instances))


def verify_tm_mus(i_range) -> VerificationReport:
    """compute_mus(tm_i) must equal ext(tm_{i-3}) | ext(flip(tm_{i-3}))."""
    instances = []
    for i in i_range:
        if i < 5:
            raise ValueError(f"Thue-Morse MUS closed form requires i >= 5, got {i}")
        core = classic.thue_morse_word(i - 3)
        expected = {
            w.text
            for w in classic.extensions(core) | classic.extensions(flip(core))
        }
        got = _mus_set(classic.thue_morse_word(i))
        ok = got == expected and len(got) == 8
        instances.append(InstanceResult(f"tm_{i}", ok, f"{len(got)} MUSs"))
    return VerificationReport("tm-mus", tuple(instances))


def verify_net_closed_forms(
    fib_range=range(7, 19), tm_range=range(5, 15)
) -> VerificationReport:
    """Net occurrences of F_i are the two occurrences of G_{i-1} plus the last
    occurrence of F_{i-2}; those of tm_i are all occurrences of tm_{i-2},
    flip(tm_{i-2}), tm_{i-4} . flip(tm_{i-3}) and flip(tm_{i-4}) . tm_{i-3}."""
    instances = []
    for i in fib_range:
        f_i = classic.fibonacci_word(i)
        expected = {
            (p, p + len(classic.fibonacci_G(i - 1)) - 1)
            for p in occurrences(classic.fibonacci_G(i - 1), f_i)
        }
        last = max(occurrences(classic.fibonacci_word(i - 2), f_i))
        expected.add((last, last + classic.fibonacci_number(i - 2) - 1))
        got = {o.interval for o in compute_net_occurrences(f_i)}
        instances.append(InstanceResult(f"F_{i}", got == expected))
    for i in tm_range:
        t_i = classic.thue_morse_word(i)
        patterns = [
            classic.thue_morse_word(i - 2),
            flip(classic.thue_morse_word(i - 2)),
            classic.thue_morse_word(i - 4) + flip(classic.thue_morse_word(i - 3)),
            flip(classic.thue_morse_word(i - 4)) + classic.thue_morse_word(i - 3),
        ]
        expected = {
            (p, p + len(pat) - 1) for pat in patterns for p in occurrences(pat, t_i)
        }
        got = {o.interval for o in compute_net_occurrences(t_i)}
        instances.append(InstanceResult(f"tm_{i}", got == expected))
    return VerificationReport("no-closed-form", tuple(instances))


def verify_occ_lemmas(
    max_fib: int = 20, max_tm: int = 14, max_lpp: int = 18
) -> VerificationReport:
    """Occurrence-count constancy: occ(F_{i-d}, F_i) is independent of i for
    each offset d (with i - d >= 4), likewise occ(tm_{i-d}, tm_i) and its
    flipped variant (i - d >= 2), and occ(lpp(F_k), F_i) = occ(F_k, F_i) for
    5 <= k <= i <= max_lpp, where lpp drops the last symbol.

    Indices follow ``classic``: F_1 = b, F_2 = a.  At k = 4 the equality is
    false and the exact relation occ(ab, F_i) = occ(aba, F_i) + (i mod 2) is
    checked for 4 <= i <= max_lpp instead.  Proof: bb is not a factor of any
    Fibonacci word, so every ab other than a suffix is followed by a; and F_i
    ends with F_3 = ab exactly when i is odd (F_5 = abaab: 2 against 1).
    Whether the paper's "k >= 4" means k >= 5 here or assumes the shifted
    convention F_1 = a is open: the abstract does not settle it."""
    instances = []
    notes = []

    for d in range(1, max_fib - 3):
        counts = {
            i: occ_count(classic.fibonacci_word(i - d), classic.fibonacci_word(i))
            for i in range(4 + d, max_fib + 1)
        }
        values = set(counts.values())
        instances.append(
            InstanceResult(f"fib d={d}", len(values) == 1, f"counts {sorted(values)}")
        )
        if d == 2:
            instances.append(
                InstanceResult("occ(F_4, F_6) = 3", counts.get(6) == 3)
            )

    for d in range(1, max_tm - 1):
        plain = {
            i: occ_count(classic.thue_morse_word(i - d), classic.thue_morse_word(i))
            for i in range(2 + d, max_tm + 1)
        }
        flipped = {
            i: occ_count(flip(classic.thue_morse_word(i - d)), classic.thue_morse_word(i))
            for i in range(2 + d, max_tm + 1)
        }
        ok = len(set(plain.values())) == 1 and len(set(flipped.values())) == 1
        instances.append(
            InstanceResult(
                f"tm d={d}",
                ok,
                f"counts {sorted(set(plain.values()))}/{sorted(set(flipped.values()))}",
            )
        )
        if d == 3:
            value = plain[5]
            notes.append(
                f"occ(tm_2, tm_5) = {value} by direct enumeration"
                " (the count includes the prefix occurrence)"
            )

    notes.append(
        "at k=4 the report checks occ(ab, F_i) = occ(aba, F_i) + (i mod 2):"
        " ab is a suffix of odd-order Fibonacci words, adding one occurrence"
        " not followed by any symbol, so plain equality fails for odd i"
    )
    aba = classic.fibonacci_word(4)
    ab = longest_proper_prefix(aba)
    off = [
        i
        for i in range(4, max_lpp + 1)
        if occ_count(ab, classic.fibonacci_word(i))
        != occ_count(aba, classic.fibonacci_word(i)) + i % 2
    ]
    instances.append(
        InstanceResult(
            "occ(ab, F_i) = occ(aba, F_i) + (i mod 2)", not off, f"failing i {off}"
        )
    )
    for k in range(5, max_lpp + 1):
        ok = all(
            occ_count(
                longest_proper_prefix(classic.fibonacci_word(k)),
                classic.fibonacci_word(i),
            )
            == occ_count(classic.fibonacci_word(k), classic.fibonacci_word(i))
            for i in range(k, max_lpp + 1)
        )
        instances.append(InstanceResult(f"lpp k={k}", ok))

    return VerificationReport("occ-lemmas", tuple(instances), tuple(notes))
