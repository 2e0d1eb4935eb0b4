"""Minimal unique substrings, net occurrences and occurrence preservation.

A MUS is a unique substring both of whose one-symbol trims are repeated
(the empty trim of a length-1 MUS counts as repeated).  A net occurrence is
an occurrence of a repeated substring whose one-symbol extensions are both
unique, out-of-range extensions counting as unique.  MUSs are computed from
the array l(i) of shortest-unique-substring lengths per start position,
derived from a suffix array with LCPs; net occurrences are the gaps between
consecutive MUS occurrences.  The suffix array is built by SA-IS in O(n) time
and O(n) memory, with recursion depth at most log2 n since each level at
least halves the length; symbols are ordered by code point.  The LCPs come
from Kasai's algorithm, whose comparisons end at a sentinel placed after the
last symbol, so they need no bounds tests.  Naive substring-counting versions
serve as oracles at small scale.

``compute_mus`` and ``compute_net_occurrences`` both read the MUS intervals
of ``_mus_intervals``, which keeps the last text's intervals in a one-entry
cache keyed by the text.  So asking for the MUSs and then the net
occurrences of one word sorts its suffixes once.  The entry holds only the
tuple of intervals (the suffix array, the LCPs and l(i) are dropped), and one
entry is enough for that pairing while retaining nothing of earlier words.

The results are named tuples.  A ``MusOccurrence`` holds its interval and
the word that was searched, and slices its ``content`` from that word only
when it is read; a ``NetOccurrence`` is its interval alone.

All reported intervals are 1-based and inclusive.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, compress, islice
from operator import gt
from typing import NamedTuple

from .errors import NonInjectiveMorphismError
from .interference import is_interference_free_on
from .morphisms import Morphism
from .words import Word, flip, longest_proper_prefix, occ_count, occurrences
from . import classic

_INF = 1 << 30


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
    code point, so the order is Python's ``str`` order.  O(n) time and O(n)
    memory; the recursion depth is at most log2 n, since each level at least
    halves the length."""
    code = {c: k for k, c in enumerate(sorted(set(text)))}
    return _sais([code[c] for c in text], len(code))


def _sais(s: list[int], upper: int) -> list[int]:
    """Suffix array of ``s``, whose values lie in range(upper).

    The end of ``s`` acts as a virtual sentinel smaller than every symbol.
    A suffix is S-type when it is smaller than the suffix after it and
    L-type otherwise; the last one is L-type.  An LMS position is an S-type
    one after an L-type one.  Induced sorting places the LMS suffixes at
    their bucket ends and derives every L-type suffix from them in one
    forward scan and every S-type suffix in one backward scan.  Run on the
    LMS positions in text order, it sorts the LMS substrings (from one LMS
    position to the next, inclusive); naming those gives a string of at most
    n/2 symbols whose suffix array orders the LMS suffixes, and a second run
    from that order sorts all suffixes."""
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
    # pl[v] / ps[v]: s[v - 1] when suffix v - 1 is L-type / S-type, else -1;
    # suffix 0 has no predecessor, so 0 also marks an empty slot
    pl = [-1 if t else c for c, t in zip(chain((-1,), s), chain((True,), is_s))]
    ps = [c if t else -1 for c, t in zip(chain((-1,), s), chain((True,), is_s))]
    counts = Counter(s)
    bounds = [0, *accumulate(map(counts.__getitem__, range(upper)))]
    starts, ends = bounds[:-1], bounds[1:]
    lms = list(compress(range(1, n), map(gt, islice(is_s, 1, None), is_s)))

    def induce(order: list[int]) -> list[int]:
        sa = [0] * n
        tail = ends[:]
        for v in reversed(order):
            c = s[v]
            tail[c] -= 1
            sa[tail[c]] = v
        head = starts[:]
        c = s[n - 1]
        sa[head[c]] = n - 1
        head[c] += 1
        for v in sa:  # writes land ahead of the iterator, which reads them
            c = pl[v]
            if c >= 0:
                i = head[c]
                sa[i] = v - 1
                head[c] = i + 1
        tail = ends[:]
        for v in reversed(sa):  # writes land behind the reversed iterator
            c = ps[v]
            if c >= 0:
                i = tail[c] - 1
                sa[i] = v - 1
                tail[c] = i
        return sa

    m = len(lms)
    index = [-1] * n
    for k, v in enumerate(lms):
        index[v] = k
    stops = lms[1:] + [n]
    names = [0] * m
    name = -1
    prev = None
    for v in induce(lms):
        k = index[v]
        if k >= 0:
            # the last LMS substring runs into the sentinel: it equals no other
            e = stops[k]
            piece = s[v : e + 1] if e < n else None
            if piece is None or piece != prev:
                name += 1
            prev = piece
            names[k] = name
    if name + 1 < m:
        order = _sais(names, name + 1)
    else:
        order = [0] * m
        for k, r in enumerate(names):
            order[r] = k
    return induce([lms[k] for k in order])


def lcp_array(text: str, sa: list[int]) -> list[int]:
    """Kasai's algorithm: lcp[k] = LCP of suffixes sa[k-1] and sa[k].

    The symbols are compared as a list ending in ``None``, which equals no
    symbol, so a comparison stops at the end of the shorter suffix without a
    bounds test (two distinct suffixes never reach the end together)."""
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
    or _INF when every substring starting at i is repeated."""
    n = len(text)
    if n == 0:
        return []
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    lcp.append(0)  # the last suffix in sa has no successor
    l = [0] * n
    for i, a, b in zip(sa, lcp, islice(lcp, 1, None)):
        m = a if a > b else b
        l[i] = m + 1 if m < n - i else _INF
    return l


# -- MUS and net occurrences --------------------------------------------------

@lru_cache(maxsize=1)
def _mus_intervals(text: str) -> tuple[tuple[int, int], ...]:
    """The 1-based MUS intervals of the nonempty ``text``, sorted by start.

    One suffix sort per call.  The cache keeps the last text's intervals
    only: ``compute_mus`` followed by ``compute_net_occurrences`` on the same
    word hits it, and a second entry would serve no call pattern of the
    library while keeping an earlier word's text and intervals alive."""
    l = shortest_unique_lengths(text)
    # i starts a MUS iff l[i] is finite and its right trim, at i + 1, is
    # repeated: l[i + 1] >= l[i], with l[n] = INF.  (l[i + 1] >= l[i] - 1
    # always holds, so a length-1 MUS passes the same test.)
    l.append(_INF)
    return tuple(
        (start, start + a - 1)
        for start, a, b in zip(range(1, len(text) + 1), l, islice(l, 1, None))
        if a <= b and a < _INF
    )


def compute_mus(w: Word) -> list[MusOccurrence]:
    """All MUS occurrences of w, sorted by start position; each holds w and
    slices its content when read.  The intervals come from ``_mus_intervals``,
    so a following ``compute_net_occurrences(w)`` does not sort w's suffixes
    again."""
    if not w.text:
        raise ValueError("MUSs are defined for nonempty words")
    return [MusOccurrence(i, j, w) for i, j in _mus_intervals(w.text)]


def compute_net_occurrences(w: Word) -> list[NetOccurrence]:
    """All net occurrences of w, sorted by start position: the gaps between
    consecutive MUS occurrences (see ``mus_to_net``), read off the cached
    intervals of ``_mus_intervals`` without building any ``MusOccurrence``."""
    if not w.text:
        raise ValueError("net occurrences are defined for nonempty words")
    return _interleave(_mus_intervals(w.text), len(w))


def mus_to_net(mus_list: list[MusOccurrence], n: int) -> list[NetOccurrence]:
    """Interleave consecutive MUS intervals into net occurrences:
    [1, j_1 - 1], [i_1 + 1, j_2 - 1], ..., [i_m + 1, n].  Intervals that come
    out empty are dropped."""
    if not mus_list:
        raise ValueError("mus_to_net requires a nonempty MUS list")
    return _interleave([m.interval for m in mus_list], n)


def _interleave(intervals: Sequence[tuple[int, int]], n: int) -> list[NetOccurrence]:
    """``mus_to_net`` on (start, end) pairs sorted by start."""
    starts = [1] + [i + 1 for i, _ in intervals]
    ends = [j - 1 for _, j in intervals] + [n]
    return [NetOccurrence(i, j) for i, j in zip(starts, ends) if i <= j]


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

    image_v = phi.iterate(v, k)  # first: it rejects k >= 2 on a non-endomorphism
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
