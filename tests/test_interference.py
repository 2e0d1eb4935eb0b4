import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morphlab import (
    FIBONACCI,
    NAMED_MORPHISMS,
    Morphism,
    Word,
    barrier_certificate,
    brute_force_is_interference_free,
    count_image_factorizations,
    enumerate_interfered_factorizations,
    factorizable,
    fibonacci_word,
    is_inner_image_factor,
    is_interference_free_on,
    is_interference_free_on_language,
    is_strongly_interference_free,
    thue_morse_word,
    word,
)
from morphlab.aho_corasick import p_pref_lengths, p_suf_lengths
from morphlab.errors import ErasingImageError, NonInjectiveMorphismError
from morphlab.interference import (
    INNER_IMAGE_FACTOR,
    INTERFERED_FACTORIZATION,
    InterferenceDecision,
    InterferenceWitness,
    _backtrack,
    _forward_dp,
    affix_donor,
)

FIB = Morphism.parse("a->ab;b->a")
TM = Morphism.parse("a->ab;b->ba")


def reassembles(phi, witness, text):
    y = "".join(phi.image_map[c] for c in witness.y_symbols)
    return witness.x + y + witness.z == text


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
    def test_fibonacci_aba(self):
        result = factorizable(FIB, "aba")
        assert result
        assert result.x == "" and result.z == "a"
        assert "".join(result.y_symbols) == "a"

    def test_thue_morse_abab(self):
        result = factorizable(TM, "abab")
        assert result
        assert result.x + "".join(
            TM.image_map[c] for c in result.y_symbols
        ) + result.z == "abab"

    def test_thue_morse_abba_not_factorizable(self):
        result = factorizable(TM, "abba")
        assert not result
        assert result.table == (1, 1, 1, 0, 1)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(morphism_and_text())
    def test_agrees_with_enumeration(self, case):
        phi, text = case
        result = factorizable(phi, text)
        witnesses = enumerate_interfered_factorizations(phi, text)
        assert result.admits == any(w.z for w in witnesses)
        if result:
            assert result.x == "" or result.x in phi.proper_image_suffixes
            assert result.z in phi.proper_image_prefixes
            assert reassembles(phi, result, text)
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
        assert result.table == bits

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
        result = factorizable(Morphism.parse(spec), text)
        assert result.admits
        assert (result.x, result.y_symbols, result.z) == (x, y_symbols, z)
        assert result.table == bits

    def test_requires_non_erasing(self):
        with pytest.raises(ErasingImageError):
            factorizable(Morphism.parse("a->ab;b->."), "ab")

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            factorizable(FIB, "")


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
        with pytest.raises(NonInjectiveMorphismError):
            is_interference_free_on(dup, word("a"))
        decision = is_interference_free_on(dup, word("a"), allow_non_injective=True)
        assert decision.injectivity_overridden

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            is_interference_free_on(FIB, word(""))

    def test_erasing_image_rejected_at_entry(self):
        erasing = Morphism.parse("a->ab;b->.")
        with pytest.raises(ErasingImageError, match="erased: b"):
            is_interference_free_on(erasing, word("a"), allow_non_injective=True)

    def test_language_loop(self):
        decisions = is_interference_free_on_language(
            FIB, [word("abaaba"), word("abaab")]
        )
        assert decisions["abaaba"].interference_free
        assert not decisions["abaab"].interference_free


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


def reference_decision(phi, u, *, allow_non_injective=False):
    """The decision as a DP over the positions of phi(u), kept as the
    reference the window automaton must reproduce field for field."""
    overridden = not phi.is_injective
    assert allow_non_injective or not overridden
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
        x, y_symbols, z = _backtrack(text, j, parent)
        witness = InterferenceWitness(
            INTERFERED_FACTORIZATION,
            x=x,
            y_symbols=y_symbols,
            z=z,
            donor_x=affix_donor(phi, x, suffix=True),
            donor_z=affix_donor(phi, z, suffix=False),
        )
        return InterferenceDecision(False, witness, overridden)
    inner = is_inner_image_factor(phi, text)
    if inner:
        witness = InterferenceWitness(INNER_IMAGE_FACTOR, host=inner.host, offset=inner.offset)
        return InterferenceDecision(False, witness, overridden)
    return InterferenceDecision(True, None, overridden)


@st.composite
def any_morphism_and_word(draw):
    """2-4 source symbols, images of length 1..5 over {a, b, c}, injective
    or not, and a nonempty source word of length <= 8."""
    source = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet="abc", min_size=1, max_size=5)
    phi = Morphism.from_map({c: draw(image) for c in source})
    u = draw(st.text(alphabet=source, min_size=1, max_size=8))
    return phi, word(u)


class TestWitnessDifferential:
    """Every decision field, the witness included, equals the reference."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(any_morphism_and_word())
    def test_small_instances(self, case):
        phi, u = case
        overridden = not phi.is_injective
        got = is_interference_free_on(phi, u, allow_non_injective=overridden)
        assert got == reference_decision(phi, u, allow_non_injective=overridden)

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


def test_decision_applies_phi_only_to_the_ends_of_u(monkeypatch):
    applied = []
    apply_text = Morphism.apply_text

    def counting(self, text):
        applied.append(len(text))
        return apply_text(self, text)

    monkeypatch.setattr(Morphism, "apply_text", counting)
    for i in (20, 21):  # IF, then NOT-IF with a witness as long as u
        applied.clear()
        is_interference_free_on(FIBONACCI, fibonacci_word(i))
        assert sum(applied) <= 2 * FIBONACCI.max_image_length, (i, applied)


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

    def test_non_injective_override_keeps_x(self):
        phi = Morphism.parse("a->b;b->c;c->ccc")
        decision = is_interference_free_on(phi, word("cbcaaa"), allow_non_injective=True)
        w = decision.witness
        assert decision.injectivity_overridden
        assert w.x == "cc" and w.z == ""
        assert reassembles(phi, w, phi.apply_text("cbcaaa"))

    def test_non_injective_unsorted_source_keeps_source_order(self):
        # equal images listed b before a: the first source symbol listed wins
        phi = Morphism.parse("b->bb;a->bb")
        decision = is_interference_free_on(phi, word("aa"), allow_non_injective=True)
        assert decision.witness.describe() == "x=b y=b z=b"


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


class TestBarrierCertificate:
    def test_certificate_is_sound(self, small_injective_morphisms, small_words):
        for phi in small_injective_morphisms[::53]:
            for u in small_words[::7]:
                cert = barrier_certificate(phi, u)
                if cert is None:
                    continue
                b_l, b_r = cert
                assert u.text.startswith(b_l.text)
                assert u.text.endswith(b_r.text)
                assert is_interference_free_on(phi, b_l)
                assert is_interference_free_on(phi, b_r)
                # soundness: a certificate implies the full decision
                assert is_interference_free_on(phi, u), (phi.format(), u.text)

    def test_thue_morse_order_four(self):
        cert = barrier_certificate(TM, word("abbabaab"))
        assert cert is not None
        b_l, b_r = cert
        assert is_interference_free_on(TM, b_l)
        assert is_interference_free_on(TM, b_r)

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            barrier_certificate(FIB, word(""))
