import tracemalloc

import pytest

from morphlab import (
    FIBONACCI,
    NAMED_MORPHISMS,
    THUE_MORSE,
    extensions,
    fibonacci_G,
    fibonacci_alpha,
    fibonacci_delta,
    fibonacci_number,
    fibonacci_word,
    flip,
    is_interference_free_on,
    longest_proper_prefix,
    structural_checks,
    thue_morse_word,
    word,
)
from morphlab import classic
from morphlab.words import Alphabet, Word


class TestNamedMorphisms:
    def test_all_six_present_and_injective(self):
        expected = {
            "fibonacci": "a->ab;b->a",
            "thue-morse": "a->ab;b->ba",
            "variant-thue-morse": "a->abc;b->ac;c->b",
            "mephisto-waltz": "a->aab;b->bba",
            "thue-morse-morse": "a->abb;b->baa",
            "last-nonzero-digit": "a->aba;b->abb",
        }
        assert {nm.name for nm in NAMED_MORPHISMS.values()} == set(expected)
        for name, spec in expected.items():
            m = NAMED_MORPHISMS[name].morphism
            assert m.format() == spec
            assert m.is_injective


class TestFibonacciWords:
    def test_base_cases(self):
        assert fibonacci_word(1).text == "b"
        assert fibonacci_word(2).text == "a"
        assert fibonacci_word(6).text == "abaababa"

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            fibonacci_word(0)
        with pytest.raises(ValueError, match="exceeds the cap 30"):
            fibonacci_word(31)

    def test_recursion_matches_iteration(self):
        for i in range(1, 21):
            assert fibonacci_word(i) == FIBONACCI.iterate(word("b"), i - 1)

    def test_lengths(self):
        for i in range(1, 26):
            assert len(fibonacci_word(i)) == fibonacci_number(i)

    def test_recurrence(self):
        for i in range(3, 15):
            assert fibonacci_word(i) == fibonacci_word(i - 1) + fibonacci_word(i - 2)


class TestThueMorseWords:
    def test_fixtures(self):
        assert thue_morse_word(4).text == "abbabaab"
        assert thue_morse_word(5).text == "abbabaabbaababba"

    def test_lengths(self):
        for i in range(1, 15):
            assert len(thue_morse_word(i)) == 2 ** (i - 1)

    def test_recursion_matches_iteration(self):
        for i in range(1, 16):
            assert thue_morse_word(i) == THUE_MORSE.iterate(word("a"), i - 1)

    def test_flip_recurrence(self):
        for i in range(2, 12):
            prev = thue_morse_word(i - 1)
            assert thue_morse_word(i) == prev + flip(prev)


class TestGAndDelta:
    def test_fixtures(self):
        assert fibonacci_G(6).text == "abaaba"
        assert fibonacci_delta(6).text == "ba"
        assert fibonacci_delta(7).text == "ab"
        assert (fibonacci_G(6) + fibonacci_delta(6)) == fibonacci_word(6)

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            fibonacci_G(2)
        for i in (0, -3):
            with pytest.raises(ValueError, match="must be >= 1"):
                fibonacci_delta(i)
            with pytest.raises(ValueError, match="must be >= 1"):
                fibonacci_alpha(i)

    def test_refused_past_the_cap_before_it_is_built(self):
        classic._fibonacci_text.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap 30"):
                fibonacci_G(classic.MAX_FIBONACCI_ORDER + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_alpha(self):
        assert fibonacci_alpha(6).text == "a"
        assert fibonacci_alpha(7).text == "b"


class TestExtensions:
    def test_of_ab(self):
        assert {w.text for w in extensions(word("ab"))} == {
            "aaba", "aabb", "baba", "babb"
        }

    def test_of_empty(self):
        assert {w.text for w in extensions(word(""))} == {"aa", "ab", "ba", "bb"}

    def test_always_four(self):
        for text in ("a", "ba", "abba"):
            assert len(extensions(word(text))) == 4

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            extensions(Word("abc", Alphabet(("a", "b", "c"))))


class TestStructuralChecks:
    def test_all_pass_to_twenty(self):
        report = structural_checks()
        assert report.name == "fibonacci-structure"
        assert report.passed, [r.label for r in report.instances if not r.ok]

    def test_lists_every_fact_for_each_order(self):
        labels = [r.label for r in structural_checks().instances]
        want = []
        for i in range(3, 21):
            want += [f"no aaa in F_{i}", f"no bb in F_{i}", f"F_{i} = G_{i} . Delta_{i}"]
            if i >= 7:
                want.append(f"Occ(G_{i - 1}, F_{i}) = {(1, fibonacci_number(i - 2) + 1)}")
        assert labels == want

    def test_fails_when_a_fact_is_broken(self, monkeypatch):
        # Delta_i is ba for even i, so a constant ab breaks F_i = G_i . Delta_i there
        monkeypatch.setattr(classic, "fibonacci_delta", lambda i: Word("ab"))
        report = structural_checks()
        assert not report.passed
        assert [r.label for r in report.instances if not r.ok] == [
            f"F_{i} = G_{i} . Delta_{i}" for i in range(4, 21, 2)
        ]


class TestInterferenceSweeps:
    def test_fibonacci_parity(self):
        for i in range(4, 15, 2):
            assert is_interference_free_on(FIBONACCI, fibonacci_word(i)), i
        for i in range(5, 15, 2):
            assert not is_interference_free_on(FIBONACCI, fibonacci_word(i)), i

    def test_thue_morse_and_flip(self):
        for i in range(4, 12):
            assert is_interference_free_on(THUE_MORSE, thue_morse_word(i)), i
            assert is_interference_free_on(THUE_MORSE, flip(thue_morse_word(i))), i

    def test_prefix_family_odd_orders(self):
        for i in range(5, 14, 2):
            prefix = longest_proper_prefix(fibonacci_word(i))
            assert is_interference_free_on(FIBONACCI, prefix), i
            assert FIBONACCI.apply(prefix) == longest_proper_prefix(fibonacci_word(i + 1))
