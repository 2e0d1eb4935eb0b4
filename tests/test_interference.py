import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morphlab import (
    Morphism,
    barrier_certificate,
    brute_force_is_interference_free,
    factorizable,
    is_inner_image_factor,
    is_interference_free_on,
    is_interference_free_on_language,
    is_strongly_interference_free,
    word,
)
from morphlab.errors import ErasingImageError, NonInjectiveMorphismError

FIB = Morphism.parse("a->ab;b->a")
TM = Morphism.parse("a->ab;b->ba")


def reassembles(phi, witness, text):
    y = "".join(phi.image_map[c] for c in witness.y_symbols)
    return witness.x + y + witness.z == text


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
        assert result.table is not None

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
