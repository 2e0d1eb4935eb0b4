import random
import sys
import tracemalloc
from dataclasses import fields
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
    is_strongly_interference_free,
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
    _ROW,
    _SLICE,
    _SUB,
    INNER_IMAGE_FACTOR,
    INTERFERED_FACTORIZATION,
    InterferenceDecision,
    InterferenceWitness,
    StrongInterferenceDecision,
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
        _SUB - 1, _SUB, _SUB + 1, _SLICE - 1, _SLICE, _SLICE + 1,
        _SLICE + _SUB + 1, 2 * _SLICE + 1, 2 * _SLICE + 3, 3000])
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
    _SLICE - 1, _SLICE, _SLICE + 1, _SLICE + _SUB - 1, _SLICE + _SUB, _SLICE + _SUB + 1,
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
    morphisms on random and iterated words of 100..3,000 symbols."""
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
    return cases


@pytest.mark.parametrize("phi, text", _same_state_cases(), ids=lambda v: (
    v.format() if isinstance(v, Morphism) else str(len(v))))
def test_slices_reach_the_states_of_the_symbol_run(phi, text):
    # every slice ends in the state the symbol-by-symbol run reaches, and
    # the symbol steps inside it are memo hits (dict.get never computes)
    head = phi.apply_text(text[: phi.max_image_length])
    run = interference._run_automaton(phi, text, p_pref_lengths(phi, head))
    assert run.step == _SLICE
    for i, start in enumerate(run.states[:-1]):
        state = start
        for a in text[i * _SLICE : (i + 1) * _SLICE]:
            state = state.get(a)
            assert state is not None, (phi.format(), i)
        assert state is run.states[i + 1], (phi.format(), i)
    symbol_run = list(accumulate(text, getitem, initial=run.states[0]))
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
    assert if_run.step == not_if_run.step == _SLICE
    assert not if_run._inside  # an IF decision reads only the last state
    # at most the last slice, and the one where the seed first meets a cut
    assert len(not_if_run._inside) <= 2, sorted(not_if_run._inside)


def test_slices_compose_few_symbol_steps(monkeypatch):
    # a slice miss composes memoized sub-slices once its first one was seen,
    # so one F_25 decision steps through under 2,000 single symbols, not
    # 128 per distinct slice (16,785)
    steps = []
    reduce = interference.reduce

    def counting(function, keys, initial):
        keys = list(keys)
        steps.append(sum(len(key) == 1 for key in keys))
        return reduce(function, keys, initial)

    monkeypatch.setattr(interference, "reduce", counting)
    assert not is_interference_free_on(FIBONACCI, fibonacci_word(25))
    assert 0 < sum(steps) < 2000, sum(steps)


def test_sub_slices_that_do_not_repeat_are_not_kept():
    # on a random ternary word no first sub-slice repeats in a state, so
    # each missed slice is composed from its symbols and keeps one sub-slice
    phi = NAMED_MORPHISMS["variant-thue-morse"].morphism
    text = "".join(random.Random(3).choices("abc", k=3000))
    run = interference._run_automaton(phi, text, set())
    seen, todo, kept = set(), [run.states[0]], 0
    while todo:
        state = todo.pop()
        if id(state) not in seen:
            seen.add(id(state))
            kept += sum(1 < len(key) <= _SUB for key in state)
            todo.extend(state.values())
    slices = len(run.states) - 1
    assert slices == -(-len(text) // _SLICE)
    assert kept == slices, (kept, slices)


@pytest.mark.parametrize("n", [
    _SLICE + 1, _ROW - 1, _ROW, _ROW + 1, _ROW + _SLICE, 2 * _ROW + _SLICE - 1, 3 * _ROW])
def test_rows_cut_the_slices(n):
    # rows of _ROW symbols are cut by slice objects, the last row past the
    # end of u too; every symbol, newline and astral symbol included, lands
    # in the slice of its position, and no slice is empty
    text = "".join(random.Random(n).choices(("a", "b", *_EDGE), k=n))
    assert interference._slices(text) == [
        text[i : i + _SLICE] for i in range(0, n, _SLICE)]


@pytest.mark.parametrize("last", [_SUB + 1, 2 * _SUB + 3, _SLICE - 1])
def test_a_shorter_last_slice_is_composed_from_its_sub_slices(last):
    # F_20's slices repeat, so its last slice finds its first sub-slice
    # stored and is composed from its sub-slices, of which there are fewer
    # than in a full slice: the decision is exact and no row gains the
    # empty key
    text = fibonacci_word(20).text[: 20 * _SLICE + last]
    for _, named in sorted(NAMED_MORPHISMS.items()):
        phi = named.morphism
        if not phi.source.is_binary:
            continue
        u = Word(text, phi.source)
        assert is_interference_free_on(phi, u) == reference_decision(phi, u), phi.format()
        head = phi.apply_text(text[: phi.max_image_length])
        run = interference._run_automaton(phi, text, p_pref_lengths(phi, head))
        seen, todo = set(), [run.states[0]]
        while todo:
            state = todo.pop()
            if id(state) not in seen:
                seen.add(id(state))
                assert "" not in state, phi.format()
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
        # strongly IF by its definition: IF on each symbol, the first that
        # fails and its decision's witness reported
        for phi in small_injective_morphisms:
            decisions = [(c, is_interference_free_on(phi, Word(c, phi.source)))
                         for c in phi.source.symbols]
            failing = [(c, d.witness) for c, d in decisions if not d]
            c, witness = failing[0] if failing else (None, None)
            strong = is_strongly_interference_free(phi)
            assert strong == StrongInterferenceDecision(not failing, c, witness), phi.format()
            assert text_of(interference_free_on_every_word(phi)) == c, phi.format()

    def test_applies_phi_to_no_word_and_keeps_no_run(self, monkeypatch):
        # so the first long decision of a morphism in a fresh process adds no
        # phi application and no run to the ones its own tests count
        def refused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(Morphism, "apply_text", refused)
        monkeypatch.setattr(interference, "_run_automaton", refused)
        for name in sorted(NAMED_MORPHISMS):
            interference_free_on_every_word(fresh(name))
            interference._if_on_every_word(fresh(name))

    def test_over_the_affix_budget(self, monkeypatch):
        # the affix sets are read, and refused, before image_ends is built;
        # a long decision raises as it did before it read the flag
        monkeypatch.setattr(morphisms, "AFFIX_BUDGET", 3)
        phi = Morphism.parse("a->abcd;b->b")
        with pytest.raises(BudgetExceededError, match="6 characters"):
            interference_free_on_every_word(phi)
        with pytest.raises(BudgetExceededError, match="6 characters"):
            is_interference_free_on(phi, Word("ab" * _SLICE, phi.source))
        assert "image_ends" not in vars(phi)

    def test_rejects_non_injective(self):
        with pytest.raises(NonInjectiveMorphismError):
            interference_free_on_every_word(Morphism.parse("a->a;b->ab;c->b"))


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
    # the flag is kept on the morphism, not on the word or the module
    assert is_interference_free_on(phi, fibonacci_word(26)) == InterferenceDecision(True)
    assert runs == []
    assert vars(phi)[interference._FLAG] is True
    # one slice or less is read without the flag, and by a run
    v = Word(u.text[:_SLICE], u.alphabet)
    assert is_interference_free_on(phi, v) == reference_decision(phi, v)
    assert len(runs) == 1


def test_short_words_neither_compute_nor_read_the_flag(monkeypatch):
    reads = []
    flag = interference._if_on_every_word

    def counting(phi):
        reads.append(phi.format())
        return flag(phi)

    monkeypatch.setattr(interference, "_if_on_every_word", counting)
    for name in sorted(NAMED_MORPHISMS):
        phi = fresh(name)
        for n in (1, 2, _SUB, _SLICE - 1, _SLICE):
            u = Word(_iterate_prefix(phi, n), phi.source)
            assert is_interference_free_on(phi, u) == reference_decision(phi, u), (name, n)
        assert not reads and interference._FLAG not in vars(phi), name
        u = Word(_iterate_prefix(phi, _SLICE + 1), phi.source)
        assert is_interference_free_on(phi, u) == reference_decision(phi, u), name
        assert reads == [phi.format()], name
        reads.clear()


class TestStrong:
    def test_classification(self):
        decision = is_strongly_interference_free(FIB)
        assert not decision
        assert decision.failing_symbol == "b"
        assert is_strongly_interference_free(TM).failing_symbol == "a"
        for spec in ("a->aab;b->bba", "a->abb;b->baa", "a->aba;b->abb"):
            assert is_strongly_interference_free(Morphism.parse(spec))

    def test_strong_implies_if_on_symbols(self):
        phi = Morphism.parse("a->aab;b->bba")
        for c in "ab":
            assert is_interference_free_on(phi, word(c))
