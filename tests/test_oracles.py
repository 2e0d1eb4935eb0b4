import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morphlab import enumeration
from morphlab import (
    BudgetExceededError,
    Morphism,
    count_circular_factorizations,
    count_image_factorizations,
    enumerate_circular_factorizations,
    enumerate_image_factorizations,
    enumerate_interfered_factorizations,
    is_recognizable_on,
    word,
)
from morphlab.enumeration import RecognizabilityDecision
from morphlab.errors import NonInjectiveMorphismError
from morphlab.words import Word

from conftest import any_morphism_and_word

FIB = Morphism.parse("a->ab;b->a")
TM = Morphism.parse("a->ab;b->ba")


def rotations(w: Word) -> list[Word]:
    """The ``|w|`` rotations of ``w`` as a multiset (list, in shift order)."""
    t = w.text
    return [Word(t[i:] + t[:i], w.alphabet) for i in range(len(t))]


class TestRotations:
    def test_shift_order(self):
        assert [r.text for r in rotations(word("abb"))] == ["abb", "bba", "bab"]

    @given(st.text(alphabet="ab", min_size=1, max_size=30))
    def test_rotations_preserve_multiset(self, text):
        w = word(text)
        assert sorted("".join(r.text) for r in rotations(w))[0].count("a") == text.count("a")
        assert len(rotations(w)) == len(text)


class TestImageFactorizations:
    def test_ambiguous_decomposition(self):
        m = Morphism.parse("a->a;b->aa")
        seqs = set(enumerate_image_factorizations(m, "aaa"))
        assert seqs == {("a", "a", "a"), ("a", "b"), ("b", "a")}
        assert count_image_factorizations(m, "aaa") == 3

    def test_empty_word(self):
        assert enumerate_image_factorizations(FIB, "") == [()]

    def test_injective_morphism_unique(self):
        assert enumerate_image_factorizations(FIB, "abaababa") == [
            tuple("abaab")
        ]

    def test_no_factorization(self):
        assert enumerate_image_factorizations(FIB, "ba") == []

    def test_budgets_are_module_constants(self):
        assert enumeration.WORD_LENGTH_BUDGET == 64
        assert enumeration.FACTORIZATION_BUDGET == 100_000

    def test_budget_word_length(self, monkeypatch):
        # every enumerator reads the budget at call time
        monkeypatch.setattr(enumeration, "WORD_LENGTH_BUDGET", 3)
        for enumerate_ in (
            enumerate_image_factorizations,
            enumerate_interfered_factorizations,
            enumerate_circular_factorizations,
        ):
            with pytest.raises(BudgetExceededError, match="word length 4"):
                enumerate_(FIB, "abab")
        assert enumerate_image_factorizations(FIB, "aba") == [("a", "b")]

    def test_budget_factorization_count(self, monkeypatch):
        # a^12 has 233 factorizations under a->a;b->aa
        m = Morphism.parse("a->a;b->aa")
        monkeypatch.setattr(enumeration, "FACTORIZATION_BUDGET", 5)
        with pytest.raises(BudgetExceededError):
            enumerate_image_factorizations(m, "a" * 12)
        with pytest.raises(BudgetExceededError):
            enumerate_circular_factorizations(m, "a" * 12)
        assert len(enumerate_image_factorizations(m, "aaaa")) == 5


class TestInterferedFactorizations:
    def test_fibonacci_odd_witnesses(self):
        found = enumerate_interfered_factorizations(FIB, FIB.apply_text("abaab"))
        assert found
        for w in found:
            y = "".join(FIB.image_map[c] for c in w.y_symbols)
            assert w.x + y + w.z == FIB.apply_text("abaab")
            assert w.x or w.z

    def test_clean_word_has_none(self):
        assert enumerate_interfered_factorizations(TM, TM.apply_text("abba")) == []

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            enumerate_interfered_factorizations(FIB, "")


class TestCircularFactorizations:
    def test_fib_ab_unique(self):
        found = enumerate_circular_factorizations(FIB, "ab")
        assert len(found) == 1
        cf = found[0]
        assert (cf.q, cf.r_symbols, cf.p, cf.split_symbol) == ("", (), "ab", "a")

    def test_reassembly(self):
        for text in ("ab", "aba", "abaab", "baaba"):
            for cf in enumerate_circular_factorizations(FIB, text):
                r = "".join(FIB.image_map[c] for c in cf.r_symbols)
                assert cf.q + r + cf.p == text
                assert cf.p
                assert cf.p + cf.q == FIB.image_map[cf.split_symbol]

    def test_count_matches_enumeration(self):
        for phi in (FIB, TM, Morphism.parse("a->a;b->aa")):
            for text in ("a", "ab", "aab", "abab", "aaaa", "babab"):
                assert count_circular_factorizations(phi, text) == len(
                    enumerate_circular_factorizations(phi, text)
                ), (phi.format(), text)

    def test_tm_aa_rotations(self):
        # mu(aa) = abab; its rotation baba splits two ways around the seam
        counts = {
            r.text: count_circular_factorizations(TM, r.text)
            for r in rotations(word("abab"))
        }
        assert counts["baba"] == 2

    def test_count_rejects_empty_word(self):
        message = "circular factorizations are defined for nonempty words"
        with pytest.raises(ValueError, match=message):
            count_circular_factorizations(FIB, "")

    def test_every_rotation_has_the_same_count(self, rotation_sweep):
        assert rotation_sweep["uneven"] == []


class TestRecognizability:
    def test_if_examples_recognizable(self):
        assert is_recognizable_on(FIB, word("abaaba"))
        assert is_recognizable_on(TM, word("abba"))

    def test_recognizable_but_not_if(self):
        assert is_recognizable_on(FIB, word("abaab"))

    def test_injective_but_not_recognizable(self):
        decision = is_recognizable_on(TM, word("aa"))
        assert not decision
        assert decision.factorization_count == 2
        # every rotation has the same count, so phi(u) itself is reported
        assert decision.offending_rotation == TM.apply(word("aa"))

    def test_rejects_non_injective(self):
        with pytest.raises(NonInjectiveMorphismError):
            is_recognizable_on(Morphism.parse("a->ab;b->ab"), word("a"))

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            is_recognizable_on(FIB, word(""))


def all_rotations_decision(phi, u, count=count_circular_factorizations):
    """The first rotation of phi(u), in shift order, whose circular
    factorization count is not 1: the decision by definition, kept as the
    oracle for the one-count decision."""
    text = phi.apply_text(u.text)
    for i in range(len(text)):
        rot = text[i:] + text[:i]
        rot_count = count(phi, rot)
        if rot_count != 1:
            return RecognizabilityDecision(False, Word(rot, phi.target), rot_count)
    return RecognizabilityDecision(True)


@pytest.fixture(scope="module")
def rotation_sweep(small_injective_morphisms, small_words):
    """Every rotation of phi(u) counted once over the binary sweep: the
    instances whose rotations have different counts, and those where the
    one-count decision differs from the all-rotations loop."""
    uneven, disagree = [], []
    for phi in small_injective_morphisms:
        for u in small_words:
            text = phi.apply_text(u.text)
            counts = {
                rot: count_circular_factorizations(phi, rot)
                for rot in (text[i:] + text[:i] for i in range(len(text)))
            }
            if len(set(counts.values())) != 1:
                uneven.append((phi.format(), u.text, counts))
            expected = all_rotations_decision(phi, u, lambda _phi, rot: counts[rot])
            if is_recognizable_on(phi, u) != expected:
                disagree.append((phi.format(), u.text, expected))
    return {"uneven": uneven, "disagree": disagree}


class TestRecognizabilityOracle:
    """One count decides recognizability exactly as the all-rotations loop."""

    def test_agrees_with_all_rotations_on_the_sweep(self, rotation_sweep):
        assert rotation_sweep["disagree"] == []

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(any_morphism_and_word())
    def test_agrees_with_all_rotations_on_ternary_images(self, case):
        phi, u = case
        assume(phi.is_injective)
        assert is_recognizable_on(phi, u) == all_rotations_decision(phi, u)

    def test_one_count_per_decision(self, monkeypatch):
        calls = []
        count = enumeration.count_circular_factorizations

        def counting(phi, w):
            calls.append(str(w))
            return count(phi, w)

        monkeypatch.setattr(enumeration, "count_circular_factorizations", counting)
        for phi, u in ((FIB, word("abaaba")), (TM, word("aa")), (TM, word("abbab"))):
            calls.clear()
            is_recognizable_on(phi, u)
            assert calls == [phi.apply_text(u.text)]
