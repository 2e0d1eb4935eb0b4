import random
import sys
import tracemalloc
from dataclasses import fields
from functools import reduce
from itertools import accumulate, product
from operator import getitem

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morphlab import (
    FIBONACCI,
    NAMED_MORPHISMS,
    Alphabet,
    Morphism,
    Word,
    brute_force_is_interference_free,
    count_image_factorizations,
    enumerate_interfered_factorizations,
    fibonacci_word,
    interference_free_on_every_word,
    is_inner_image_factor,
    is_interference_free_on,
    thue_morse_word,
    word,
)
from morphlab import interference, morphisms
from morphlab.aho_corasick import p_pref_lengths, p_suf_lengths
from morphlab.errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    NonInjectiveMorphismError,
)
from morphlab.interference import (
    _SLICE,
    INNER_IMAGE_FACTOR,
    INTERFERED_FACTORIZATION,
    InterferenceDecision,
    InterferenceWitness,
    affix_donor,
)

from conftest import any_morphism_and_word

FIB = Morphism.parse("a->ab;b->a")
TM = Morphism.parse("a->ab;b->ba")


def reassembles(phi, witness, text):
    y = "".join(phi.image_map[c] for c in witness.y_symbols)
    return witness.x + y + witness.z == text


# The text-level DP over the positions of phi(u): the independent reference
# that the window automaton of ``interference`` must reproduce.
_INF = 1 << 60


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
    """Recover (x, y, z) for the acceptance at j; y is a string of source
    symbols."""
    pos = j - 1
    syms: list[str] = []
    while parent[pos] is not None:
        pos, sym = parent[pos]
        syms.append(sym)
    return text[:pos], "".join(reversed(syms)), text[j - 1:]


def reference_factorizable(phi, text):
    """(table, witness) of pass 1 of the reference DP on ``text``: the table
    C[0..n] has C[j] = 1 iff text[:j] = x . y, x empty or a proper image
    suffix, and the witness is the (x, y, z) with z a NONEMPTY proper image
    prefix, y a string of source symbols, of smallest |x| and then leftmost
    acceptance, or None when there is none."""
    seeds = {i: i for i in p_pref_lengths(phi, text)}
    seeds[0] = 0
    accepts = {len(text) + 1 - size for size in p_suf_lengths(phi, text)}
    j, minseed, parent = _forward_dp(text, phi.images, seeds, accepts)
    table = tuple(1 if v < _INF else 0 for v in minseed)
    return table, (None if j is None else _backtrack(text, j, parent))


@st.composite
def morphism_and_text(draw):
    """2-4 source symbols, images of length 1..5 over {a, b, c}, injective
    or not, and a text of length 1..8: any word over {a, b, c}, or a window
    of phi(u) for a source word u of length <= 8."""
    source = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet="abc", min_size=1, max_size=5)
    phi = Morphism.from_map({c: draw(image) for c in source})
    if draw(st.booleans()):
        return phi, draw(st.text(alphabet="abc", min_size=1, max_size=8))
    w = phi.apply_text(draw(st.text(alphabet=source, min_size=1, max_size=8)))
    start = draw(st.integers(0, len(w) - 1))
    return phi, w[start : start + draw(st.integers(1, 8))]


class TestFactorizable:
    """The reference DP's pass 1, which decides whether a text admits an
    interfered factorization with z nonempty, and its table C."""

    def test_fibonacci_aba(self):
        _, witness = reference_factorizable(FIB, "aba")
        assert witness == ("", "a", "a")

    def test_thue_morse_abab(self):
        _, witness = reference_factorizable(TM, "abab")
        assert witness is not None
        x, y, z = witness
        assert x + TM.apply_text(y) + z == "abab"

    def test_thue_morse_abba_not_factorizable(self):
        table, witness = reference_factorizable(TM, "abba")
        assert witness is None
        assert table == (1, 1, 1, 0, 1)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(morphism_and_text())
    def test_agrees_with_enumeration(self, case):
        phi, text = case
        table, witness = reference_factorizable(phi, text)
        witnesses = enumerate_interfered_factorizations(phi, text)
        assert (witness is not None) == any(w.z for w in witnesses)
        if witness is not None:
            x, y, z = witness
            assert x == "" or x in phi.proper_image_suffixes
            assert z in phi.proper_image_prefixes
            assert x + phi.apply_text(y) + z == text
        # C[j] = 1 iff text[:j] = x . y, x empty or a proper image suffix
        xs = ("", *phi.proper_image_suffixes)
        bits = tuple(
            int(any(
                len(x) <= j and text.startswith(x)
                and count_image_factorizations(phi, text[len(x) : j]) > 0
                for x in xs
            ))
            for j in range(len(text) + 1)
        )
        assert table == bits

    @pytest.mark.parametrize(
        "spec, text, x, y_symbols, z, bits",
        [
            # equal images listed b before a: the first source symbol listed wins
            ("b->bb;a->bb", "bbbb", "b", ("b",), "b", (1, 1, 1, 1, 1)),
            ("a->abca;b->bc;c->c", "abcabca", "", ("a", "b"), "a",
             (1, 1, 0, 1, 1, 0, 1, 1)),
            ("a->abca;b->bc;c->c", "bcbcabcab", "", ("b", "b", "a"), "b",
             (1, 0, 1, 0, 1, 0, 0, 0, 1, 0)),
        ],
    )
    def test_pinned_results(self, spec, text, x, y_symbols, z, bits):
        table, witness = reference_factorizable(Morphism.parse(spec), text)
        assert witness == (x, "".join(y_symbols), z)
        assert table == bits


class TestInnerFactor:
    def test_found_strictly_inside(self):
        phi = Morphism.parse("a->abba;b->b")
        result = is_inner_image_factor(phi, "bb")
        assert result
        assert result.host == "a" and result.offset == 2

    def test_prefix_occurrence_does_not_count(self):
        phi = Morphism.parse("a->abba;b->b")
        assert not is_inner_image_factor(phi, "ab")
        assert not is_inner_image_factor(phi, "ba")

    def test_full_image_does_not_count(self):
        assert not is_inner_image_factor(FIB, "ab")

    def test_is_the_decisions_witness(self, small_injective_morphisms, small_words):
        # on every inner-kind NOT-IF instance of the small sweep, the check
        # on phi(u) answers with the decision's own witness
        inner = 0
        for phi in small_injective_morphisms:
            for u in small_words:
                w = is_interference_free_on(phi, u).witness
                if w is not None and w.kind == INNER_IMAGE_FACTOR:
                    assert is_inner_image_factor(phi, phi.apply_text(u.text)) == w
                    inner += 1
        assert inner


class TestDecision:
    def test_fibonacci_parity(self):
        assert is_interference_free_on(FIB, word("abaaba"))
        decision = is_interference_free_on(FIB, word("abaab"))
        assert not decision
        assert reassembles(FIB, decision.witness, FIB.apply_text("abaab"))

    def test_witness_parts_are_proper_affixes(self, small_injective_morphisms, small_words):
        for phi in small_injective_morphisms[:60]:
            for u in small_words[:30]:
                decision = is_interference_free_on(phi, u)
                w = decision.witness
                if w is None or w.kind != "interfered_factorization":
                    continue
                assert w.x or w.z
                if w.x:
                    assert w.x in phi.proper_image_suffixes
                    assert phi.image_map[w.donor_x].endswith(w.x)
                if w.z:
                    assert w.z in phi.proper_image_prefixes
                    assert phi.image_map[w.donor_z].startswith(w.z)
                assert reassembles(phi, w, phi.apply_text(u.text))

    def test_agrees_with_brute_force_sample(self, small_injective_morphisms, small_words):
        for phi in small_injective_morphisms[::31]:
            for u in small_words[::5]:
                assert bool(is_interference_free_on(phi, u)) == \
                    brute_force_is_interference_free(phi, u), (phi.format(), u.text)

    def test_rejects_non_injective(self):
        dup = Morphism.parse("a->ab;b->ab")
        with pytest.raises(NonInjectiveMorphismError) as caught:
            is_interference_free_on(dup, word("a"))
        assert tuple(w.text for w in caught.value.witness) == ("a", "b")

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            is_interference_free_on(FIB, word(""))

    def test_erasing_image_rejected_at_entry(self):
        # an erasing morphism is not injective, so no erasing check is needed
        erasing = Morphism.parse("a->ab;b->.")
        with pytest.raises(NonInjectiveMorphismError) as caught:
            is_interference_free_on(erasing, word("a"))
        x, y = caught.value.witness
        assert x != y and erasing.apply(x) == erasing.apply(y)


@st.composite
def morphism_and_word(draw):
    """2-4 source symbols, images of length 1..5 over {a, b, c}, and a
    nonempty source word of length <= 6."""
    source = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet="abc", min_size=1, max_size=5)
    phi = Morphism.from_map({c: draw(image) for c in source})
    u = draw(st.text(alphabet=source, min_size=1, max_size=6))
    return phi, word(u)


class TestDifferential:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(morphism_and_word())
    def test_agrees_with_brute_force(self, case):
        phi, u = case
        assume(phi.is_injective)
        decision = is_interference_free_on(phi, u)
        assert bool(decision) == brute_force_is_interference_free(phi, u)
        w = decision.witness
        if w is not None and w.kind == "interfered_factorization":
            assert w.x == "" or w.x in phi.proper_image_suffixes
            assert w.z == "" or w.z in phi.proper_image_prefixes
            assert reassembles(phi, w, phi.apply_text(u.text))


def reference_decision(phi, u):
    """The decision as a DP over the positions of phi(u), kept as the
    reference the window automaton must reproduce field for field."""
    assert phi.is_injective
    text = phi.apply_text(u.text)
    n = len(text)
    p_pref = p_pref_lengths(phi, text)
    seeds = {i: i for i in p_pref}
    seeds[0] = 0
    accepts = {n + 1 - size for size in p_suf_lengths(phi, text)}
    j, _, parent = _forward_dp(text, phi.images, seeds, accepts)
    if j is None and p_pref:
        seeds = {i: -i for i in p_pref}
        j, _, parent = _forward_dp(text, phi.images, seeds, (n + 1,))
    if j is not None:
        x, y, z = _backtrack(text, j, parent)
        witness = InterferenceWitness(
            INTERFERED_FACTORIZATION,
            x=x,
            y=y,
            z=z,
            donor_x=affix_donor(phi, x, suffix=True),
            donor_z=affix_donor(phi, z, suffix=False),
        )
        return InterferenceDecision(False, witness)
    witness = is_inner_image_factor(phi, text)
    return InterferenceDecision(witness is None, witness)


def decide_against_reference(phi, u):
    """The decision on an injective phi, checked field for field against
    the reference; None when phi is not injective, after checking that the
    decision raises NonInjectiveMorphismError with the injectivity witness."""
    if not phi.is_injective:
        with pytest.raises(NonInjectiveMorphismError) as caught:
            is_interference_free_on(phi, u)
        x, y = caught.value.witness
        assert (x, y) == phi.injectivity_witness and phi.apply(x) == phi.apply(y)
        return None
    got = is_interference_free_on(phi, u)
    assert got == reference_decision(phi, u), (phi.format(), u.text)
    return got


class TestWitnessDifferential:
    """Every decision field, the witness included, equals the reference."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(any_morphism_and_word())
    def test_small_instances(self, case):
        decide_against_reference(*case)

    @pytest.mark.parametrize("name", sorted(NAMED_MORPHISMS))
    def test_classic_words(self, name):
        phi = NAMED_MORPHISMS[name].morphism
        for i in range(1, 13):
            for u in (fibonacci_word(i), thue_morse_word(i)):
                assert is_interference_free_on(phi, u) == reference_decision(phi, u), (name, i)

    def test_witness_off_the_canonical_cuts(self):
        # phi(b c^k) = a b^(2k+1); the witness parse a . (bb)^k ends at odd
        # positions, while |phi(u[:i])| is even for every i >= 1
        phi = Morphism.parse("a->a;b->ab;c->bb")
        u = Word("b" + "c" * 2000, phi.source)
        decision = is_interference_free_on(phi, u)
        assert decision == reference_decision(phi, u)
        assert decision.witness.y_symbols == ("a",) + ("c",) * 2000
        assert decision.witness.z == "b"


def _iterate_prefix(phi, n):
    """The first n symbols of t . phi(t) . ..., with t_0 the first source
    symbol and t_(i+1) = t_i . phi(t_i): a word built by phi that grows
    even when no image starts with its own symbol."""
    text = phi.source.symbols[0]
    while len(text) < n:
        text += phi.apply_text(text)
    return text[:n]


def _long_cases(n):
    """Decision inputs with |u| = n: the named morphisms on the Fibonacci
    and Thue-Morse prefixes and on words they build, then random 2-4-symbol
    morphisms, non-injective ones included, on random and iterated words.
    Under a->a;b->baaa the prefixes of (aaab)^k have P_pref {1, 2, 3}, so
    seeds lie past the cuts of u[:0], u[:1] and u[:2]."""
    pending = Morphism.parse("a->a;b->baaa")
    cases = [(pending, Word(("aaab" * n)[:n], pending.source))]
    for name, named in sorted(NAMED_MORPHISMS.items()):
        phi = named.morphism
        texts = [_iterate_prefix(phi, n)]
        if phi.source.symbols == ("a", "b"):
            texts += [fibonacci_word(20).text[:n], thue_morse_word(14).text[:n]]
        cases += [(phi, Word(t, phi.source)) for t in texts]
    rng = random.Random(n)
    for _ in range(12):
        source = "abcd"[: rng.randint(2, 4)]
        phi = Morphism.from_map(
            {c: "".join(rng.choices("abc", k=rng.randint(1, 5))) for c in source}
        )
        walk = "".join(rng.choices(source, k=n))
        iterate = Morphism.from_map(
            {c: "".join(rng.choices(source, k=rng.randint(1, 3))) for c in source}
        )
        for text in (walk, _iterate_prefix(iterate, n)):
            cases.append((phi, Word(text, phi.source)))
    return cases


class TestBlockRunDifferential:
    """Words around and beyond the slice length of the block run: every
    decision field equals the DP over the positions of phi(u), and a
    non-injective phi is rejected with its witness."""

    @pytest.mark.parametrize("n", [
        15, 16, 17, _SLICE - 1, _SLICE, _SLICE + 1,
        _SLICE + 17, 2 * _SLICE + 1, 2 * _SLICE + 3, 3000])
    def test_lengths_around_the_slice(self, n):
        kinds = set()
        pending = False  # a P_pref seed lies past the cut of u[:1]
        for phi, u in _long_cases(n):
            got = decide_against_reference(phi, u)
            if got is None:
                kinds.add("rejected")
                continue
            w = got.witness
            kinds.add("if" if w is None else (w.kind, bool(w.z)))
            head = phi.apply_text(u.text[: phi.max_image_length])
            first = len(phi.image_map[u.text[0]])
            pending |= max(p_pref_lengths(phi, head), default=0) > first
        assert pending
        # IF, both kinds of witness end, and a rejected non-injective phi
        assert {"if", (INTERFERED_FACTORIZATION, True),
                (INTERFERED_FACTORIZATION, False), "rejected"} <= kinds, kinds

    @pytest.mark.parametrize("m", [_SLICE - 1, _SLICE + 72, 2 * _SLICE + 1])
    def test_chain_first_meets_a_cut_inside_a_slice(self, m):
        # phi(b^m c^r) = a^2m (aab)^r; the chain from x = a runs off the
        # cuts through b^m (aa . aa ...) and first meets one after u[:m + 1]
        phi = Morphism.parse("a->ab;b->aa;c->aab")
        u = Word("b" * m + "c" * 300, phi.source)
        decision = is_interference_free_on(phi, u)
        assert decision == reference_decision(phi, u)
        w = decision.witness
        assert (w.x, w.z) == ("a", "")
        assert w.y_symbols == ("b",) * m + ("a",) + ("c",) * 299


# symbols that a regular expression's "." skips without re.S, or that take
# more than one UTF-16 unit: the cut of u must keep each in its place
_EDGE = ("\n", "\U0001F600")


def _edge_morphisms():
    """The injective morphisms of {newline, U+1F600} into itself with
    images of length 1..3."""
    images = ["".join(p) for n in (1, 2, 3) for p in product(_EDGE, repeat=n)]
    phis = (Morphism.from_map(dict(zip(_EDGE, pair))) for pair in product(images, repeat=2))
    return [phi for phi in phis if phi.is_injective]


@pytest.mark.parametrize("n", [
    _SLICE - 1, _SLICE, _SLICE + 1, _SLICE + 15, _SLICE + 16, _SLICE + 17,
    2 * _SLICE + 1, 600, 2000])
def test_slices_cut_every_symbol(n):
    # every decision field equals the DP over the positions of phi(u), on a
    # random word and on a word built by phi, whose slices repeat; when z is
    # nonempty the witness is the one the reference's pass 1 finds on phi(u)
    rng = random.Random(n)
    kinds = set()
    for phi in _edge_morphisms():
        for text in ("".join(rng.choices(_EDGE, k=n)), _iterate_prefix(phi, n)):
            u = Word(text, phi.source)
            got = is_interference_free_on(phi, u)
            assert got == reference_decision(phi, u), (phi.format(), text)
            image = phi.apply_text(text)
            w = got.witness
            kinds.add("if" if w is None else (w.kind, bool(w.z)))
            _, fact = reference_factorizable(phi, image)
            if w is not None and w.kind == INTERFERED_FACTORIZATION:
                assert w.x + phi.apply_text(w.y) + w.z == image
                if w.z:
                    assert fact == (w.x, w.y, w.z)
                    continue
            assert fact is None
    assert kinds == {"if", (INTERFERED_FACTORIZATION, True),
                     (INTERFERED_FACTORIZATION, False)}, kinds


def _same_state_cases():
    """The named morphisms on 5,000-symbol prefixes of their iterates, the
    Fibonacci morphism on F_25, then seeded random injective 2-3-symbol
    morphisms on random and iterated words of 100..3,000 symbols, then
    words of 1, 2, ``_SLICE`` - 1 and ``_SLICE`` symbols: one segment each,
    whose inner states are rebuilt as in every other run."""
    cases = [(named.morphism, _iterate_prefix(named.morphism, 5000))
             for _, named in sorted(NAMED_MORPHISMS.items())]
    # most slice ends resynchronize after a wrong composition; one of F_25's does not
    cases.append((FIBONACCI, fibonacci_word(25).text))
    rng = random.Random(13)
    while len(cases) < 30:
        source = "abc"[: rng.randint(2, 3)]
        phi = Morphism.from_map(
            {c: "".join(rng.choices("abc", k=rng.randint(1, 5))) for c in source}
        )
        if not phi.is_injective:
            continue
        n = rng.randint(100, 3000)
        iterate = Morphism.from_map(
            {c: "".join(rng.choices(source, k=rng.randint(1, 3))) for c in source}
        )
        cases.append((phi, "".join(rng.choices(source, k=n))))
        cases.append((phi, _iterate_prefix(iterate, n)))
    no_delay = Morphism.parse("a->a;b->ab;c->bb")
    for n in (1, 2, _SLICE - 1, _SLICE):
        cases.append((FIBONACCI, fibonacci_word(25).text[:n]))
        cases.append((no_delay, "".join(rng.choices("abc", k=n))))
    return cases


@pytest.mark.parametrize("phi, text", _same_state_cases(), ids=lambda v: (
    v.format() if isinstance(v, Morphism) else str(len(v))))
def test_slices_reach_the_states_of_the_symbol_run(phi, text):
    # every segment ends in the state the symbol-by-symbol run reaches, and
    # the symbol steps inside it are memo hits (dict.get never computes):
    # all of a slice, and the last D symbols of a skipped middle; every
    # state the run rebuilds, inside a skipped middle too, is the symbol
    # run's
    head = phi.apply_text(text[: phi.max_image_length])
    run = interference._run_automaton(phi, text, p_pref_lengths(phi, head))
    ends = list(run.ends)
    assert ends[0] == 0 and ends[-1] == len(text) and len(run.states) == len(ends)
    for i, (begin, end) in enumerate(zip(ends, ends[1:])):
        if end - begin > _SLICE:  # a skipped middle
            begin = end - vars(phi)[interference._DELAY]
        state = run.states[i]
        for a in text[begin:end]:
            state = state.get(a)
            assert state is not None, (phi.format(), i)
        assert state is run.states[i + 1], (phi.format(), i)
    symbol_run = list(accumulate(text, getitem, initial=run.states[0]))
    assert all(run.states[i] is symbol_run[end] for i, end in enumerate(ends)), phi.format()
    assert all(run.state(k) is s for k, s in enumerate(symbol_run)), phi.format()


def test_decision_applies_phi_only_to_the_ends_of_u(monkeypatch):
    applied = []
    apply_text = Morphism.apply_text

    def counting(self, text):
        applied.append(len(text))
        return apply_text(self, text)

    monkeypatch.setattr(Morphism, "apply_text", counting)
    # IF, NOT-IF with a witness as long as u, and u over a wider alphabet
    # than phi's source
    f_21 = fibonacci_word(21).text
    for u in (fibonacci_word(20), fibonacci_word(21), Word(f_21, Alphabet(tuple("abc")))):
        applied.clear()
        is_interference_free_on(FIBONACCI, u)
        assert sum(applied) <= 2 * FIBONACCI.max_image_length, (len(u), applied)
    # a symbol with no image is found without applying phi, and the error
    # names the first one in u, not the first in the alphabet
    applied.clear()
    with pytest.raises(AlphabetMismatchError, match="symbol 'd' has no image"):
        is_interference_free_on(FIBONACCI, Word(f_21 + "dc", Alphabet(tuple("abcd"))))
    assert not applied


def test_backtrack_expands_few_slices(monkeypatch):
    runs = []
    run_automaton = interference._run_automaton

    def keeping(*args):
        runs.append(run_automaton(*args))
        return runs[-1]

    monkeypatch.setattr(interference, "_run_automaton", keeping)
    assert is_interference_free_on(FIBONACCI, fibonacci_word(26))
    assert not is_interference_free_on(FIBONACCI, fibonacci_word(25))
    if_run, not_if_run = runs
    assert not if_run._inside  # an IF decision reads only the last state
    # at most the last segment, and the one where the seed first meets a cut
    assert len(not_if_run._inside) <= 2, sorted(not_if_run._inside)


def test_slices_compose_few_symbol_steps(monkeypatch):
    # the F_25 decision jumps: it steps through its first slice, D symbols
    # and its last slice, under 2,000 single symbols, not F_25's 75,025
    steps = []
    reduce = interference.reduce

    def counting(function, keys, initial):
        keys = list(keys)
        steps.append(sum(len(key) == 1 for key in keys))
        return reduce(function, keys, initial)

    monkeypatch.setattr(interference, "reduce", counting)
    assert not is_interference_free_on(FIBONACCI, fibonacci_word(25))
    assert 0 < sum(steps) < 2000, sum(steps)


def test_rows_hold_only_symbol_steps(monkeypatch):
    # after a short, a jumped (NOT-IF, so it backtracks) and full runs, every
    # key on every row the call reached is one symbol, and a full run keeps
    # the state after each slice: ceil(|u| / _SLICE) + 1 states, so 2 for a
    # short run
    runs = []
    run_automaton = interference._run_automaton

    def keeping(*args):
        runs.append(run_automaton(*args))
        return runs[-1]

    monkeypatch.setattr(interference, "_run_automaton", keeping)
    no_delay = Morphism.parse("a->a;b->ab;c->bb")
    rng = random.Random(29)
    cases = [(FIBONACCI, fibonacci_word(9).text, "short"),
             (FIBONACCI, fibonacci_word(21).text, "jumped")]
    cases += [(no_delay, text, "full") for text in (
        "b" + "c" * 2000, *("".join(rng.choices("abc", k=n)) for n in (_SLICE + 1, 3000)))]
    for phi, text, kind in cases:
        runs.clear()
        is_interference_free_on(phi, Word(text, phi.source))
        (run,) = runs
        short = len(text) <= _SLICE
        assert (short, _jumped(run)) == (kind == "short", kind == "jumped"), kind
        if kind == "full":
            assert len(run.states) == -(-len(text) // _SLICE) + 1, len(text)
        if kind == "short":
            assert run.ends == [0, len(text)] and len(run.states) == 2, run.ends
        seen, todo = set(), [run.states[0]]
        while todo:
            state = todo.pop()
            if id(state) not in seen:
                seen.add(id(state))
                assert all(len(key) == 1 for key in state), (kind, len(text))
                todo.extend(state.values())


class TestPinnedWitnesses:
    """Exact witnesses, so a change of decision path cannot silently change
    which factorization is reported."""

    @pytest.mark.parametrize(
        "spec, u, described, y_symbols, donor_x, donor_z",
        [
            # z empty with two candidate x (a and aa): the longest x is reported
            ("a->a;b->baa", "aab", "x=aa y=b z=.", ("b",), "b", None),
            # z nonempty: smallest |x|, then leftmost acceptance
            ("a->ab;b->a", "abaab", "x=. y=abaa z=a", ("a", "b", "a", "a"), None, "a"),
            ("a->abba;b->b", "b", "inner host=a offset=2", (), None, None),
        ],
    )
    def test_table(self, spec, u, described, y_symbols, donor_x, donor_z):
        w = is_interference_free_on(Morphism.parse(spec), word(u)).witness
        assert w.describe() == described
        assert w.y_symbols == y_symbols
        assert w.donor_x == donor_x
        assert w.donor_z == donor_z

    def test_y_is_one_string(self):
        # y is a field holding one string of source symbols; y_symbols is a
        # property that builds the tuple, so equality and repr read the string
        w = is_interference_free_on(FIB, word("abaab")).witness
        assert type(w.y) is str and w.y == "abaa"
        assert w.y_symbols == tuple(w.y) == ("a", "b", "a", "a")
        assert w == InterferenceWitness(
            INTERFERED_FACTORIZATION, x="", y="abaa", z="a", donor_z="a")
        assert "y='abaa'" in repr(w) and "y_symbols" not in repr(w)
        assert [f.name for f in fields(InterferenceWitness) if f.name.startswith("y")] == ["y"]

    def test_not_if_witness_is_one_string(self):
        # the NOT-IF witness on F_25 holds y, 75,024 symbols, as one string:
        # the decision peaks below the size of a tuple of that many symbols
        u = fibonacci_word(25)
        is_interference_free_on(FIBONACCI, u)  # fills the morphism's caches
        tracemalloc.start()
        try:
            w = is_interference_free_on(FIBONACCI, u).witness
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(w.y) is str and len(w.y) == len(u) - 1
        assert peak < sys.getsizeof((None,) * (len(u) - 1)), peak


def first_interfering_word(phi, longest):
    """The shortest, then lexicographically smallest (in source order)
    word of at most ``longest`` symbols on which the brute-force oracle
    finds phi not IF, else None."""
    for n in range(1, longest + 1):
        for symbols in product(phi.source.symbols, repeat=n):
            u = Word("".join(symbols), phi.source)
            if not brute_force_is_interference_free(phi, u):
                return u.text
    return None


def text_of(u):
    return None if u is None else u.text


def fresh(name):
    """A new object of the named morphism, with no cached property."""
    return Morphism.parse(NAMED_MORPHISMS[name].morphism.format())


@st.composite
def ternary_morphism(draw):
    """An injective morphism of {a, b, c} with images of length 1..5 over
    {a, b, c}."""
    image = st.text(alphabet="abc", min_size=1, max_size=5)
    phi = Morphism.from_map({c: draw(image) for c in "abc"})
    assume(phi.is_injective)
    return phi


class TestEveryWord:
    """phi is IF on every nonempty word iff it is IF on every symbol; the
    answer is the shortest, then smallest word on which it is not."""

    def test_agrees_with_brute_force_on_the_binary_sweep(self, small_injective_morphisms):
        kinds = set()
        for phi in small_injective_morphisms:
            got = interference_free_on_every_word(phi)
            assert got is None or got.alphabet == phi.source
            assert text_of(got) == first_interfering_word(phi, 8), phi.format()
            kinds.add(got is None)
        assert kinds == {True, False}

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(ternary_morphism())
    def test_agrees_with_brute_force_on_ternary_morphisms(self, phi):
        got = interference_free_on_every_word(phi)
        assert text_of(got) == first_interfering_word(phi, 6), phi.format()

    @pytest.mark.parametrize("name, answer", [
        ("mephisto-waltz", None), ("thue-morse-morse", None), ("last-nonzero-digit", None),
        ("fibonacci", "b"), ("thue-morse", "a"), ("variant-thue-morse", "c"),
    ])
    def test_named_morphisms(self, name, answer):
        phi = fresh(name)
        got = interference_free_on_every_word(phi)
        assert text_of(got) == answer
        if answer is not None:
            assert not is_interference_free_on(phi, got)
        # variant-thue-morse fails by the inner kind: phi(c) = b lies inside abc
        if name == "variant-thue-morse":
            assert is_interference_free_on(phi, got).witness.kind == INNER_IMAGE_FACTOR

    def test_is_strong_interference_freeness(self, small_injective_morphisms):
        # strongly IF by its definition: IF on each symbol; the answer is the
        # first symbol that fails, and deciding it gives that symbol's witness
        for phi in small_injective_morphisms:
            decisions = [(c, is_interference_free_on(phi, Word(c, phi.source)))
                         for c in phi.source.symbols]
            failing = [(c, d.witness) for c, d in decisions if not d]
            got = interference_free_on_every_word(phi)
            if not failing:
                assert got is None, phi.format()
                continue
            c, witness = failing[0]
            assert got == Word(c, phi.source), phi.format()
            assert is_interference_free_on(phi, got).witness == witness, phi.format()

    def test_classification(self):
        assert text_of(interference_free_on_every_word(FIB)) == "b"
        assert text_of(interference_free_on_every_word(TM)) == "a"
        for spec in ("a->aab;b->bba", "a->abb;b->baa", "a->aba;b->abb"):
            assert interference_free_on_every_word(Morphism.parse(spec)) is None

    def test_strong_implies_if_on_symbols(self):
        phi = Morphism.parse("a->aab;b->bba")
        assert interference_free_on_every_word(phi) is None
        for c in "ab":
            assert is_interference_free_on(phi, word(c))

    def test_interfering_symbols_on_the_binary_sweep(self, small_injective_morphisms):
        # the kept table is the per-symbol brute-force classification
        kinds = set()
        for phi in small_injective_morphisms:
            table = interference._interfering_symbols(phi)
            assert table == _interfering_by_brute_force(phi), phi.format()
            kinds.add(table)
        assert kinds == {"", "a", "b", "ab"}, kinds

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(ternary_morphism())
    def test_interfering_symbols_on_ternary_morphisms(self, phi):
        table = interference._interfering_symbols(phi)
        assert table == _interfering_by_brute_force(phi), phi.format()

    def test_interfering_symbols_of_the_named_morphisms(self):
        pinned = {"fibonacci": "b", "thue-morse": "ab", "variant-thue-morse": "c",
                  "mephisto-waltz": "", "thue-morse-morse": "", "last-nonzero-digit": ""}
        assert pinned.keys() == NAMED_MORPHISMS.keys()
        for name, symbols in pinned.items():
            phi = fresh(name)
            assert interference._interfering_symbols(phi) == symbols, name
            assert _interfering_by_brute_force(phi) == symbols, name
            assert vars(phi)[interference._INTERFERING] == symbols, name

    def test_applies_phi_to_no_word_and_keeps_no_run(self, monkeypatch):
        # so the first long decision of a morphism in a fresh process adds no
        # phi application and no run to the ones its own tests count
        def refused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(Morphism, "apply_text", refused)
        monkeypatch.setattr(interference, "_run_automaton", refused)
        for name in sorted(NAMED_MORPHISMS):
            interference_free_on_every_word(fresh(name))
            interference._interfering_symbols(fresh(name))

    def test_over_the_affix_budget(self, monkeypatch):
        # the affix sets are read, and refused, before the image-end table is built;
        # a decision raises as it did before it read the interfering symbols
        monkeypatch.setattr(morphisms, "AFFIX_BUDGET", 3)
        phi = Morphism.parse("a->abcd;b->b")
        with pytest.raises(BudgetExceededError, match="6 characters"):
            interference_free_on_every_word(phi)
        with pytest.raises(BudgetExceededError, match="6 characters"):
            is_interference_free_on(phi, Word("ab" * _SLICE, phi.source))
        assert interference._ENDS not in vars(phi)

    def test_rejects_non_injective(self):
        with pytest.raises(NonInjectiveMorphismError):
            interference_free_on_every_word(Morphism.parse("a->a;b->ab;c->b"))

    def test_a_word_of_if_symbols_is_if_on_the_binary_sweep(
            self, small_injective_morphisms, small_words):
        # phi interferes on u only if it interferes on some symbol of u (the
        # proof in the module docstring ends at a symbol of u); the converse
        # fails: the Fibonacci morphism interferes on b but is IF on ba
        checked = 0
        for phi in small_injective_morphisms:
            if_symbols = _if_symbols(phi)
            for u in small_words:
                if set(u.text) <= if_symbols:
                    assert brute_force_is_interference_free(phi, u), (phi.format(), u.text)
                    assert is_interference_free_on(phi, u), (phi.format(), u.text)
                    checked += 1
        assert checked > 10_000, checked
        assert not is_interference_free_on(FIB, word("b"))
        assert is_interference_free_on(FIB, word("ba"))
        assert brute_force_is_interference_free(FIB, word("ba"))

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(ternary_morphism(), st.data())
    def test_a_word_of_if_symbols_is_if_on_ternary_morphisms(self, phi, data):
        if_symbols = "".join(sorted(_if_symbols(phi)))
        assume(if_symbols)
        u = Word(data.draw(st.text(alphabet=if_symbols, min_size=1, max_size=8)), phi.source)
        assert brute_force_is_interference_free(phi, u), (phi.format(), u.text)
        assert is_interference_free_on(phi, u), (phi.format(), u.text)


def _if_symbols(phi):
    """The source symbols on which the brute-force oracle finds phi IF."""
    return {c for c in phi.source.symbols
            if brute_force_is_interference_free(phi, Word(c, phi.source))}


def _interfering_by_brute_force(phi):
    """The source symbols on which the brute-force oracle finds phi not IF,
    in source order."""
    if_symbols = _if_symbols(phi)
    return "".join(c for c in phi.source.symbols if c not in if_symbols)


def test_if_on_every_word_decides_long_words_without_a_run(monkeypatch):
    runs = []
    run_automaton = interference._run_automaton

    def keeping(*args):
        runs.append(run_automaton(*args))
        return runs[-1]

    monkeypatch.setattr(interference, "_run_automaton", keeping)
    phi = fresh("mephisto-waltz")
    u = fibonacci_word(26)
    assert is_interference_free_on(phi, u) == InterferenceDecision(True)
    assert runs == []
    # the interfering symbols are kept on the morphism, not on the word or the module
    assert is_interference_free_on(phi, fibonacci_word(26)) == InterferenceDecision(True)
    assert runs == []
    assert vars(phi)[interference._INTERFERING] == ""
    # a word of one slice or less is decided without a run too
    v = Word(u.text[:_SLICE], u.alphabet)
    assert is_interference_free_on(phi, v) == reference_decision(phi, v)
    assert runs == []


def test_words_avoiding_the_interfering_symbols_take_no_run(monkeypatch):
    # fibonacci interferes on b only, variant-thue-morse on c only: a word
    # without them is IF at any length, with no run and phi applied to no
    # symbol, and the decision equals the reference DP
    cases = [(fresh("fibonacci"), lambda n: "a" * n, "b"),
             (fresh("variant-thue-morse"), lambda n: ("abbab" * n)[:n], "c")]
    calls = []

    def counting(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(
        interference, "_run_automaton", counting("run", interference._run_automaton))
    monkeypatch.setattr(Morphism, "apply_text", counting("apply", Morphism.apply_text))
    for phi, text, interfering in cases:
        for n in (1, 2, _SLICE, _SLICE + 1, 10**4):
            u = Word(text(n), phi.source)
            expected = reference_decision(phi, u)
            calls.clear()
            got = is_interference_free_on(phi, u)
            assert calls == [], (phi.format(), n, calls)
            assert got == expected == InterferenceDecision(True), (phi.format(), n)
        # a word with an interfering symbol is read by a run
        u = Word(text(_SLICE) + interfering, phi.source)
        calls.clear()
        assert is_interference_free_on(phi, u) == reference_decision(phi, u), phi.format()
        assert "run" in calls, phi.format()


def test_the_interfering_symbols_are_computed_once_per_morphism(monkeypatch):
    computed = []
    compute = interference._symbols_interfered_on

    def counting(phi):
        computed.append(phi.format())
        return compute(phi)

    monkeypatch.setattr(interference, "_symbols_interfered_on", counting)
    for name in sorted(NAMED_MORPHISMS):
        # decisions first, short and long, then the every-word answer; and
        # the other way round on another object of the same morphism
        phi = fresh(name)
        for n in (1, 2, 16, _SLICE, _SLICE + 1, 2000):
            u = Word(_iterate_prefix(phi, n), phi.source)
            assert is_interference_free_on(phi, u) == reference_decision(phi, u), (name, n)
        answer = interference_free_on_every_word(phi)
        assert computed == [phi.format()], name
        phi = fresh(name)
        assert interference_free_on_every_word(phi) == answer
        for n in (1, _SLICE + 1):
            is_interference_free_on(phi, Word(_iterate_prefix(phi, n), phi.source))
        assert computed == [phi.format()] * 2, name
        computed.clear()


def _every_symbol(phi):
    """Every source symbol of phi, as a stand-in for its interfering
    symbols that makes every decision run."""
    return "".join(phi.source.symbols)


# -- the jump over the middle of u (the delay of a definite automaton) --------


def _jumped(run):
    """Whether the run skipped a middle: a segment longer than a slice."""
    return any(end - begin > _SLICE for begin, end in zip(run.ends, run.ends[1:]))


def _reachable(phi):
    """The states of a fresh automaton of phi reachable from start(())."""
    start = interference._automaton(phi)(set())
    reached, seen = [start], {id(start)}
    for state in reached:
        for a in phi.source.symbols:
            nxt = state[a]
            if id(nxt) not in seen:
                seen.add(id(nxt))
                reached.append(nxt)
    return reached


def _synchronizes(states, word):
    return len({id(reduce(getitem, word, state)) for state in states}) == 1


def _delay_by_pair_sets(phi):
    """The delay by another route: the distinct pairs that the words of
    length L leave apart, for L = 0, 1, ..., until none is left (the
    delay) or L passes the number of pairs (a cycle: None)."""
    states = _reachable(phi)
    index = {id(state): i for i, state in enumerate(states)}
    step = [[index[id(state[a])] for a in phi.source.symbols] for state in states]
    apart = {(p, q) for p in range(len(states)) for q in range(len(states)) if p != q}
    for length in range(len(apart) + 2):
        if not apart:
            return length
        apart = {(x, y) for p, q in apart for x, y in zip(step[p], step[q]) if x != y}
    return None


class _Decisions:
    """Decisions with the jump and, with the delay forced to None, in full.
    Every morphism is decided by a run: every source symbol is forced into
    the interfering symbols, so the three morphisms that are IF on every
    word, and the words that avoid a morphism's interfering symbols, reach
    the jump too."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.runs = []
        run_automaton = interference._run_automaton

        def keeping(*args):
            self.runs.append(run_automaton(*args))
            return self.runs[-1]

        monkeypatch.setattr(interference, "_run_automaton", keeping)
        monkeypatch.setattr(interference, "_interfering_symbols", _every_symbol)

    def check(self, phi, text):
        """The decision on ``text``, checked equal to the full run's, and
        whether its run jumped."""
        u = Word(text, phi.source)
        self.runs.clear()
        got = is_interference_free_on(phi, u)
        with self.monkeypatch.context() as m:
            m.setattr(interference, "_window_delay", lambda phi: None)
            full = is_interference_free_on(phi, u)
        jumped, full_jumped = map(_jumped, self.runs)
        assert not full_jumped
        assert got == full, (phi.format(), len(text))
        return got, jumped


class TestJump:
    """A jumped decision equals the full run's field for field."""

    def test_named_morphisms_on_classic_words(self, monkeypatch):
        decisions = _Decisions(monkeypatch)
        words = [fibonacci_word(i).text for i in range(8, 31)]
        words += [thue_morse_word(i).text for i in range(6, 23)]
        for name, named in sorted(NAMED_MORPHISMS.items()):
            phi = named.morphism
            for text in words if phi.source.is_binary else [
                    _iterate_prefix(phi, 3**i) for i in range(4, 12)]:
                _, jumped = decisions.check(phi, text)
                # no seed but 0 lives past the first slice, so the run skips a
                # middle, longer than a slice once |u| > 3 _SLICE
                assert jumped == (len(text) > 3 * _SLICE), (name, len(text))

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    def test_named_morphisms_on_random_words(self, monkeypatch, n):
        decisions = _Decisions(monkeypatch)
        rng = random.Random(n)
        for _, named in sorted(NAMED_MORPHISMS.items()):
            phi = named.morphism
            for _ in range(2):
                _, jumped = decisions.check(phi, "".join(rng.choices(phi.source.symbols, k=n)))
                assert jumped

    def test_random_morphisms(self, monkeypatch):
        decisions = _Decisions(monkeypatch)
        rng = random.Random(27)
        kinds = set()
        for _ in range(60):
            source = "abc"[: rng.randint(2, 3)]
            phi = Morphism.from_map(
                {c: "".join(rng.choices("abc", k=rng.randint(1, 4))) for c in source})
            if not phi.is_injective:
                continue
            iterate = Morphism.from_map(
                {c: "".join(rng.choices(source, k=rng.randint(1, 3))) for c in source})
            for n in (129, 2 * _SLICE, 2 * _SLICE + 1, 2 * _SLICE + 3, 3 * _SLICE + 1, 1000, 5000):
                for text in ("".join(rng.choices(source, k=n)), _iterate_prefix(iterate, n)):
                    got, jumped = decisions.check(phi, text)
                    kinds.add((jumped, got.interference_free))
        # jumped and full runs, each with IF and NOT-IF decisions
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}, kinds

    def test_refused_when_not_definite(self, monkeypatch):
        # the b-runs of a->a;b->ab;c->bb keep two parses alive
        phi = Morphism.parse("a->a;b->ab;c->bb")
        assert interference._window_delay(phi) is None
        u = Word("b" + "c" * 2000, phi.source)
        got, jumped = _Decisions(monkeypatch).check(phi, u.text)
        assert got == reference_decision(phi, u) and not jumped

    def test_refused_while_a_seed_outlives_the_first_slice(self, monkeypatch):
        # phi(a^300) = (ab)^300 parses as b . (ab)(ab)... and as a . (ba)(ba)...:
        # seed 1 lives past the first slice, so the run reads every slice
        phi = NAMED_MORPHISMS["thue-morse"].morphism
        assert interference._window_delay(phi) == 1
        u = Word("a" * 300 + thue_morse_word(12).text, phi.source)
        got, jumped = _Decisions(monkeypatch).check(phi, u.text)
        assert got == reference_decision(phi, u) and not jumped


class TestDelay:
    @pytest.mark.parametrize("name, delay", [
        ("fibonacci", 1), ("last-nonzero-digit", 1), ("mephisto-waltz", 1),
        ("thue-morse", 1), ("thue-morse-morse", 1), ("variant-thue-morse", 2)])
    def test_named_morphisms(self, name, delay):
        phi = fresh(name)
        assert interference._window_delay(phi) == delay
        assert vars(phi)[interference._DELAY] == delay
        self._check_by_brute_force(phi, delay)

    def test_random_morphisms(self):
        rng = random.Random(11)
        delays = []
        while len(delays) < 200:
            source = "abc"[: rng.randint(2, 3)]
            phi = Morphism.from_map(
                {c: "".join(rng.choices("abc", k=rng.randint(1, 4))) for c in source})
            if not phi.is_injective:
                continue
            delay = interference._definite_delay(phi)
            assert delay == _delay_by_pair_sets(phi), phi.format()
            if delay is not None:
                self._check_by_brute_force(phi, delay)
            delays.append(delay)
        assert None in delays and len(set(delays)) > 3, sorted(map(str, delays))

    @staticmethod
    def _check_by_brute_force(phi, delay):
        # every word of length D sends the reachable states to one state,
        # and some word of length D - 1 does not
        states = _reachable(phi)
        symbols = phi.source.symbols
        assert all(_synchronizes(states, w) for w in product(symbols, repeat=delay)), phi.format()
        if delay:
            assert not all(_synchronizes(states, w) for w in product(symbols, repeat=delay - 1))

    def test_over_the_budget(self, monkeypatch):
        # two states at most: fibonacci's automaton has more, so it gets no
        # delay, and its decisions read every slice and stay exact
        monkeypatch.setattr(interference, "_DELAY_BUDGET", 4)
        phi = fresh("fibonacci")
        assert interference._window_delay(phi) is None
        assert len(_reachable(phi)) > 2
        runs = []
        run_automaton = interference._run_automaton

        def keeping(*args):
            runs.append(run_automaton(*args))
            return runs[-1]

        monkeypatch.setattr(interference, "_run_automaton", keeping)
        for i in (13, 14):
            u = fibonacci_word(i)
            assert is_interference_free_on(phi, u) == reference_decision(phi, u), i
        assert not any(map(_jumped, runs)) and len(runs) == 2

    def test_a_budget_below_one_state_per_symbol_still_bounds_the_search(self, monkeypatch):
        # 2 _DELAY_BUDGET // |Sigma| is 0 for three symbols: no state fits,
        # so the search gives up at the first new state (variant-thue-morse
        # has delay 2 within the default budget)
        monkeypatch.setattr(interference, "_DELAY_BUDGET", 1)
        assert interference._window_delay(fresh("variant-thue-morse")) is None

    def test_short_words_neither_compute_nor_read_it(self, monkeypatch):
        reads = []
        delay = interference._window_delay

        def counting(phi):
            reads.append(phi.format())
            return delay(phi)

        monkeypatch.setattr(interference, "_window_delay", counting)
        monkeypatch.setattr(interference, "_interfering_symbols", _every_symbol)
        for name in sorted(NAMED_MORPHISMS):
            phi = fresh(name)
            for n in (1, 2, 16, _SLICE - 1, _SLICE):
                u = Word(_iterate_prefix(phi, n), phi.source)
                assert is_interference_free_on(phi, u) == reference_decision(phi, u), (name, n)
            assert not reads and interference._DELAY not in vars(phi), name


def _counting_steps(monkeypatch):
    """Symbol steps of every composition (``reduce`` calls) and memo misses
    (``_State.__missing__`` calls), as lists that the decisions append to."""
    steps, misses = [], []
    reduce_ = interference.reduce
    missing = interference._State.__missing__

    def counting_reduce(function, keys, initial):
        keys = list(keys)
        steps.append(sum(len(key) == 1 for key in keys))
        return reduce_(function, keys, initial)

    def counting_missing(self, key):
        misses.append(len(key))
        return missing(self, key)

    monkeypatch.setattr(interference, "reduce", counting_reduce)
    monkeypatch.setattr(interference._State, "__missing__", counting_missing)
    return steps, misses


def test_jumped_decisions_cost_the_same_on_f_20_and_f_30(monkeypatch):
    # F_30 ends with F_20, F_29 with F_19, and each starts with the other's
    # first slice: a jumped decision reads only those, so it takes the same
    # symbol steps and memo misses however long u is
    phi = fresh("fibonacci")
    is_interference_free_on(phi, fibonacci_word(19))  # the table's and the delay's steps, once
    steps, misses = _counting_steps(monkeypatch)
    counts = {}
    for i in (19, 20, 29, 30):
        steps.clear()
        misses.clear()
        is_interference_free_on(phi, fibonacci_word(i))
        counts[i] = sum(steps), len(misses)
    assert counts[19] == counts[29] and counts[20] == counts[30], counts
    # at most the first and the last slice, and the D symbols before the last
    assert counts[20][0] <= 2 * _SLICE + vars(phi)[interference._DELAY], counts


@pytest.mark.parametrize("n", [1000, 10_000, 100_000])
def test_full_runs_miss_once_a_slice(monkeypatch, n):
    # a->a;b->ab;c->bb has no delay, so its runs read every slice: every
    # memo entry is one symbol step, so on random words the misses are
    # bounded by the automaton's finitely many states, however many slices
    phi = Morphism.parse("a->a;b->ab;c->bb")
    _, misses = _counting_steps(monkeypatch)
    for symbols in ("ab", "abc"):
        misses.clear()
        text = "".join(random.Random(n).choices(symbols, k=n))
        is_interference_free_on(phi, Word(text, phi.source))
        assert len(misses) <= n // _SLICE + 64, (symbols, len(misses))
