"""The benchmark's workloads and the oracles that check their results.

A workload draws its inputs from the seed as plain data (``__init__``),
builds them with library calls (``setup``, the only part ``setup_s`` times),
computes the expected answers outside every timed region (``expect``), runs
one op (``run``), checks one result against its expected answer (``check``,
which returns an error message or None) and names an op in messages
(``label``).

Every call into the library goes through the ``morphlab`` package at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import morphlab as ml


def clear_library_caches() -> None:
    """Empty every functools cache in the library, so that a set-up pays for
    word generation and matcher builds as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "morphlab" or name.startswith("morphlab."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def first_matcher_build(phi) -> None:
    """Build (and cache) the image-set matcher, when the library has one."""
    matcher_for = getattr(ml.aho_corasick, "matcher_for", None)
    if matcher_for is not None:
        matcher_for(phi)


# -- oracle helpers that share no code with the library -----------------------

def parse_images(spec: str) -> dict[str, str]:
    """Images of the textual morphism format ``a->ab;b->a``."""
    return dict(rule.split("->") for rule in spec.split(";"))


def image_text(images: dict[str, str], symbols) -> str:
    return "".join(images[c] for c in symbols)


def find_all(pattern: str, text: str) -> list[int]:
    """0-based starts of ``pattern`` in ``text``, overlaps included."""
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def count_upto(pattern: str, text: str, limit: int) -> int:
    """Occurrences of ``pattern`` in ``text``, counted up to ``limit``."""
    count, i = 0, text.find(pattern)
    while i != -1 and count < limit:
        count += 1
        i = text.find(pattern, i + 1)
    return count


def check_decision(decision, images: dict[str, str], target: str, expect_if: bool) -> str | None:
    """Compare an interference decision on a word with image ``target``
    against the oracle's answer, and check its witness by reassembly."""
    if bool(decision.interference_free) != expect_if:
        got = "IF" if decision.interference_free else "NOT-IF"
        return f"decision {got}, oracle {'IF' if expect_if else 'NOT-IF'}"
    w = decision.witness
    if expect_if:
        return None if w is None else "IF decision carries a witness"
    if w is None:
        return "NOT-IF decision without a witness"
    if w.kind == ml.interference.INNER_IMAGE_FACTOR:
        img = images.get(w.host, "")
        start = (w.offset or 0) - 1
        end = start + len(target)
        if start < 1 or end >= len(img) or img[start:end] != target:
            return f"inner witness {w.describe()} does not sit strictly inside an image"
        return None
    values = images.values()
    if not (w.x or w.z):
        return "factorization witness with x and z both empty"
    if w.x and not any(len(img) > len(w.x) and img.endswith(w.x) for img in values):
        return f"x={w.x} is not a proper image suffix"
    if w.z and not any(len(img) > len(w.z) and img.startswith(w.z) for img in values):
        return f"z={w.z} is not a proper image prefix"
    if any(c not in images for c in w.y_symbols):
        return "y uses a symbol with no image"
    if w.x + image_text(images, w.y_symbols) + w.z != target:
        return "witness x . phi(y) . z does not reassemble phi(u)"
    return None


def fib_text(i: int) -> str:
    """F_1 = b, F_2 = a, F_i = F_{i-1} F_{i-2}."""
    if i == 1:
        return "b"
    prev, cur = "b", "a"
    for _ in range(i - 2):
        prev, cur = cur, cur + prev
    return cur


def flip_text(text: str) -> str:
    return text.translate(str.maketrans("ab", "ba"))


def tm_text(i: int) -> str:
    """tm_1 = a, tm_i = tm_{i-1} flip(tm_{i-1})."""
    out = "a"
    for _ in range(i - 1):
        out += flip_text(out)
    return out


def unique_intervals(contents, text: str) -> list[tuple[int, int, str]]:
    """1-based intervals of contents that must each occur exactly once."""
    out = []
    for c in contents:
        starts = find_all(c, text)
        if len(starts) != 1:
            raise RuntimeError(f"closed-form MUS {c} occurs {len(starts)} times")
        out.append((starts[0] + 1, starts[0] + len(c), c))
    return sorted(out)


def all_intervals(patterns, text: str) -> list[tuple[int, int]]:
    return sorted({(p + 1, p + len(pat)) for pat in patterns for p in find_all(pat, text)})


def interleave(mus: list[tuple[int, int, str]], n: int) -> list[tuple[int, int]]:
    """Net occurrences as the gaps between consecutive MUS occurrences."""
    starts = [1] + [s + 1 for s, _, _ in mus]
    ends = [e - 1 for _, e, _ in mus] + [n]
    return [(i, j) for i, j in zip(starts, ends) if i <= j]


def fibonacci_repeats(i: int, text: str):
    """Closed forms for F_i (i >= 7): the MUSs alpha G_{i-3} alpha and
    flip(alpha) G_{i-2} flip(alpha); the net occurrences are the two
    occurrences of G_{i-1} plus the last occurrence of F_{i-2}."""
    alpha, beta = ("a", "b") if i % 2 == 0 else ("b", "a")
    mus = unique_intervals(
        [alpha + fib_text(i - 3)[:-2] + alpha, beta + fib_text(i - 2)[:-2] + beta], text
    )
    g = fib_text(i - 1)[:-2]
    f = fib_text(i - 2)
    last = find_all(f, text)[-1]
    net = sorted({(p + 1, p + len(g)) for p in find_all(g, text)} | {(last + 1, last + len(f))})
    return mus, net


def thue_morse_repeats(i: int, text: str):
    """Closed forms for tm_i (i >= 5): the MUSs are the four one-symbol
    flankings of tm_{i-3} and of its flip; the net occurrences are all
    occurrences of tm_{i-2}, its flip, tm_{i-4} flip(tm_{i-3}) and
    flip(tm_{i-4}) tm_{i-3}."""
    cores = (tm_text(i - 3), flip_text(tm_text(i - 3)))
    mus = unique_intervals([l + c + r for c in cores for l in "ab" for r in "ab"], text)
    t2, t3, t4 = tm_text(i - 2), tm_text(i - 3), tm_text(i - 4)
    net = all_intervals([t2, flip_text(t2), t4 + flip_text(t3), flip_text(t4) + t3], text)
    return mus, net


def direct_repeats(text: str):
    """MUSs by direct substring counts, for words whose repeats are short.

    l(i), the length of the shortest unique substring starting at i, is found
    by counting every substring of each length in turn; a MUS starts at i
    when that substring's left trim occurs at least twice.  The net
    occurrences are the gaps between consecutive MUSs."""
    n = len(text)
    shortest = [0] * n
    pending = list(range(n))
    length = 1
    while pending:
        counts = Counter(text[i : i + length] for i in range(n - length + 1))
        still = []
        for i in pending:
            if i + length > n:
                shortest[i] = 0  # every substring starting at i repeats
            elif counts[text[i : i + length]] == 1:
                shortest[i] = length
            else:
                still.append(i)
        pending = still
        length += 1
    mus = []
    for i, l in enumerate(shortest):
        if l and (l == 1 or count_upto(text[i + 1 : i + l], text, 2) >= 2):
            mus.append((i + 1, i + l, text[i : i + l]))
    return mus, interleave(mus, n)


def circular_counts(phi, text: str):
    """First rotation of ``text`` (shift order) whose circular factorization
    count is not 1, by enumeration: (True, None, None) when there is none."""
    for i in range(len(text)):
        rotation = text[i:] + text[:i]
        count = len(ml.enumerate_circular_factorizations(phi, rotation))
        if count != 1:
            return False, rotation, count
    return True, None, None


# -- workloads -----------------------------------------------------------------

#: The named morphisms over {a, b}; variant-thue-morse is ternary.
BINARY_NAMED = (
    "fibonacci", "thue-morse", "mephisto-waltz", "thue-morse-morse", "last-nonzero-digit",
)


class ClassicIF:
    """One op is one interference decision on a large classic input."""

    name = "classic-if"

    def __init__(self, seed: int, scale: str = "full"):
        full = scale == "full"
        words = [("fibonacci", i) for i in ((25, 26) if full else (9, 10))]
        words.append(("thue-morse", 18 if full else 7))
        cases = [(name, kind, order) for name in BINARY_NAMED for kind, order in words]
        cases.append(("variant-thue-morse", "variant", 16 if full else 6))
        random.Random(seed).shuffle(cases)
        self.cases = cases
        self.specs = {name: ml.NAMED_MORPHISMS[name].morphism.format() for name, _, _ in cases}
        self.images = {name: parse_images(spec) for name, spec in self.specs.items()}

    def setup(self):
        phis = {}
        for name, spec in self.specs.items():
            phi = ml.Morphism.parse(spec)
            if not phi.is_injective:
                raise RuntimeError(f"named morphism {name} is not injective")
            first_matcher_build(phi)
            phis[name] = phi
        words = {}
        for _, kind, order in self.cases:
            if (kind, order) in words:
                continue
            if kind == "fibonacci":
                w = ml.fibonacci_word(order)
            elif kind == "thue-morse":
                w = ml.thue_morse_word(order)
            else:
                phi = phis["variant-thue-morse"]
                w = phi.iterate(ml.Word(phi.source.symbols[0], phi.source), order)
            words[kind, order] = w
        return [
            (phis[name], words[kind, order], name, kind, order)
            for name, kind, order in self.cases
        ]

    def expect(self, ops):
        return [
            (ml.brute_force_is_interference_free(phi, u), image_text(self.images[name], u.text))
            for phi, u, name, _, _ in ops
        ]

    def label(self, op):
        return f"{op[2]} on {op[3]}_{op[4]}"

    def run(self, op):
        return ml.is_interference_free_on(op[0], op[1])

    def check(self, op, result, expected):
        return check_decision(result, self.images[op[2]], expected[1], expected[0])


class ClassicRepeats:
    """One op is compute_mus(w) then compute_net_occurrences(w)."""

    name = "classic-repeats"

    def __init__(self, seed: int, scale: str = "full"):
        full = scale == "full"
        fib = range(19, 23) if full else range(9, 13)
        tm = range(12, 16) if full else range(6, 10)
        rng = random.Random(seed)
        classic = [("fibonacci", i) for i in fib] + [("thue-morse", i) for i in tm]
        lengths = [len(fib_text(i)) for i in fib] + [2 ** (i - 1) for i in tm]
        self.cases = classic + [("random", "".join(rng.choices("ab", k=n))) for n in lengths]

    def setup(self):
        ops = []
        for kind, arg in self.cases:
            if kind == "fibonacci":
                ops.append((f"F_{arg}", ml.fibonacci_word(arg), kind, arg))
            elif kind == "thue-morse":
                ops.append((f"tm_{arg}", ml.thue_morse_word(arg), kind, arg))
            else:
                ops.append((f"random_{len(arg)}", ml.Word(arg), kind, arg))
        return ops

    def expect(self, ops):
        out = []
        for _, w, kind, arg in ops:
            if kind == "fibonacci":
                out.append(fibonacci_repeats(arg, w.text))
            elif kind == "thue-morse":
                out.append(thue_morse_repeats(arg, w.text))
            else:
                out.append(direct_repeats(w.text))
        return out

    def label(self, op):
        return op[0]

    def run(self, op):
        w = op[1]
        return ml.compute_mus(w), ml.compute_net_occurrences(w)

    def check(self, op, result, expected):
        mus, net = result
        want_mus, want_net = expected
        got_mus = [(m.start, m.end, m.content.text) for m in mus]
        if got_mus != want_mus:
            return (f"{len(got_mus)} MUS occurrences, oracle has {len(want_mus)}; "
                    f"first differing at {_first_diff(got_mus, want_mus)}")
        got_net = [(o.start, o.end) for o in net]
        if got_net != want_net:
            return (f"{len(got_net)} net occurrences, oracle has {len(want_net)}; "
                    f"first differing at {_first_diff(got_net, want_net)}")
        if list(net) != list(ml.mus_to_net(mus, len(op[1]))):
            return "net occurrences are not the mus_to_net dual of the MUSs"
        return None


def _first_diff(got, want):
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return k
    return min(len(got), len(want))


class SmallSweep:
    """One op is one small instance (phi, u): the IF decision, then on IF
    recognizability and, for a seeded share, occurrence preservation."""

    name = "small-sweep"
    WORDS_PER_MORPHISM = 4
    PRESERVE_SHARE = 0.25

    def __init__(self, seed: int, scale: str = "full"):
        self.n_morphisms = 1500 if scale == "full" else 40
        rng = random.Random(seed)
        self.candidates = []
        # twice the morphisms needed: set-up keeps the injective ones only
        for _ in range(2 * self.n_morphisms):
            source = "abc"[: rng.choice((2, 3))]
            images = {c: "".join(rng.choices("abc", k=rng.randint(1, 4))) for c in source}
            endomorphism = set("".join(images.values())) <= set(source)
            words = []
            for _ in range(self.WORDS_PER_MORPHISM):
                u = "".join(rng.choices(source, k=rng.randint(1, 6)))
                plan = None
                if rng.random() < self.PRESERVE_SHARE:
                    gaps = ["".join(rng.choices(source, k=rng.randint(0, 4))) for _ in range(3)]
                    k = rng.choice((1, 2)) if endomorphism else 1
                    plan = (gaps[0] + u + gaps[1] + u + gaps[2], k)
                words.append((u, plan))
            self.candidates.append((images, words))

    def setup(self):
        ops = []
        accepted = 0
        for images, words in self.candidates:
            phi = ml.Morphism.from_map(images)
            if not phi.is_injective:
                continue
            first_matcher_build(phi)
            for u, plan in words:
                v = None if plan is None else (ml.Word(plan[0], phi.source), plan[1])
                ops.append((phi, ml.Word(u, phi.source), v, images))
            accepted += 1
            if accepted == self.n_morphisms:
                return ops
        raise RuntimeError("too few injective morphisms among the drawn candidates")

    def expect(self, ops):
        out = []
        for phi, u, v, images in ops:
            target = image_text(images, u.text)
            is_if = ml.brute_force_is_interference_free(phi, u)
            recognizable = preconditions = None
            if is_if:
                recognizable = circular_counts(phi, target)
                if v is not None:
                    preconditions = v[1] == 1 or ml.brute_force_is_interference_free(
                        phi, ml.Word(target, phi.source)
                    )
            out.append((is_if, target, recognizable, preconditions))
        return out

    def label(self, op):
        return f"{op[0].format()} on {op[1].text}"

    def run(self, op):
        phi, u, v, _ = op
        decision = ml.is_interference_free_on(phi, u)
        recognizable = preservation = None
        if decision:
            recognizable = ml.is_recognizable_on(phi, u)
            if v is not None:
                preservation = ml.verify_occurrence_preservation(phi, u, v[0], v[1])
        return decision, recognizable, preservation

    def check(self, op, result, expected):
        decision, recognizable, preservation = result
        is_if, target, want_rec, want_pre = expected
        error = check_decision(decision, op[3], target, is_if)
        if error or not is_if:
            return error
        ok, rotation, count = want_rec
        if bool(recognizable.recognizable) != ok:
            return f"recognizable={recognizable.recognizable}, enumeration says {ok}"
        offending = (recognizable.offending_rotation, recognizable.factorization_count)
        if not ok and (offending[0].text, offending[1]) != (rotation, count):
            return "offending rotation or its count differs from the enumeration"
        if op[2] is None:
            return None
        if preservation.preconditions_hold != want_pre:
            return f"preconditions_hold={preservation.preconditions_hold}, oracle says {want_pre}"
        if want_pre and not (preservation.preserved and preservation.bijection_holds):
            return "occurrences not preserved although the preconditions hold"
        if not want_pre and preservation.failing_iterate != 1:
            return f"failing iterate {preservation.failing_iterate}, oracle says 1"
        return None


WORKLOADS = {wl.name: wl for wl in (ClassicIF, ClassicRepeats, SmallSweep)}
