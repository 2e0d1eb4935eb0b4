import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphlab import (
    BINARY,
    FIBONACCI,
    THUE_MORSE,
    Alphabet,
    AlphabetMismatchError,
    Morphism,
    OccurrenceSet,
    Word,
    extensions,
    fibonacci_G,
    fibonacci_word,
    flip,
    interference_free_on_every_word,
    is_interference_free_on,
    is_recognizable_on,
    longest_proper_prefix,
    occ_count,
    occurrences,
    thue_morse_word,
    word,
)
from morphlab import classic, cli
from morphlab.words import find_all, naive_occurrences

binary_texts = st.text(alphabet="ab", max_size=30)


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_rejects_multichar_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("ab",))

    def test_membership_and_index(self):
        abc = Alphabet(("a", "b", "c"))
        assert "c" in abc
        assert "d" not in abc
        assert len(abc) == 3
        assert not abc.is_binary
        assert BINARY.is_binary


class TestWord:
    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            Word("abc", BINARY)
        # slices skip the check; the constructor still makes it
        with pytest.raises(ValueError, match="not in alphabet"):
            Word(word("abab")[1:3].text + "c", BINARY)

    def test_slicing_keeps_alphabet(self):
        w = word("abab")
        assert isinstance(w[1:3], Word)
        assert w[1:3].text == "ba"
        assert w[0] == "a"
        abc = Alphabet(("a", "b", "c"))
        assert Word("abcab", abc)[1:3] == Word("bc", abc)
        assert Word("abab", abc)[0:2].alphabet is abc

    # slices skip the constructor's alphabet check; they must still equal the
    # checked construction
    @given(
        st.sampled_from([BINARY, Alphabet(("a", "b", "c"))]).flatmap(
            lambda a: st.tuples(st.just(a), st.text(alphabet=a.symbols, max_size=20))
        ),
        st.integers(-25, 25) | st.none(),
        st.integers(-25, 25) | st.none(),
        st.sampled_from([None, 1, 2, -1]),
    )
    def test_slice_equals_checked_construction(self, drawn, start, stop, step):
        alphabet, text = drawn
        s = slice(start, stop, step)
        piece = Word(text, alphabet)[s]
        assert piece == Word(text[s], alphabet)
        assert hash(piece) == hash(Word(text[s], alphabet))

    def test_concatenation(self):
        assert (word("ab") + word("ba")).text == "abba"
        other = Word("c", Alphabet(("c",)))
        with pytest.raises(AlphabetMismatchError):
            word("ab") + other

    def test_word_helper_infers_alphabet(self):
        assert word("ab").alphabet is BINARY
        assert word("cba").alphabet.symbols == ("a", "b", "c")


class TestOccurrences:
    def test_positions_are_one_based(self):
        occ = occurrences(word("ab"), word("abaab"))
        assert tuple(occ) == (1, 4)

    def test_overlapping_occurrences(self):
        assert tuple(occurrences(word("aa"), word("aaaa"))) == (1, 2, 3)

    def test_empty_pattern_convention(self):
        occ = occurrences(word(""), word("ab"))
        assert tuple(occ) == (1, 2, 3)

    def test_occ_count_fixture(self):
        assert occ_count(word("aba"), word("abaababa")) == 3
        assert occ_count(word("ab"), word("abbabaabbaababba")) == 5

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            occurrences(Word("a", Alphabet(("a",))), word("ab"))

    def test_occurrence_set_validation(self):
        with pytest.raises(ValueError):
            OccurrenceSet((3, 2))
        with pytest.raises(ValueError):
            OccurrenceSet((0,))

    def test_serialize(self):
        assert occurrences(word("a"), word("aba")).serialize() == "1,3"

    @given(binary_texts, binary_texts)
    def test_matches_naive_oracle(self, pattern, text):
        u, w = word(pattern), word(text)
        assert occurrences(u, w) == naive_occurrences(u, w)

    @given(binary_texts)
    def test_find_all_self(self, text):
        if text:
            assert find_all(text, text) == [0]


class TestTransforms:
    def test_flip(self):
        assert flip(word("aab")).text == "bba"
        with pytest.raises(ValueError):
            flip(Word("a", Alphabet(("a",))))

    def test_longest_proper_prefix(self):
        assert longest_proper_prefix(word("abaab")).text == "abaa"
        with pytest.raises(ValueError):
            longest_proper_prefix(word("a"))


@pytest.fixture
def checked_words(monkeypatch):
    """Texts of the words built through ``Word.__post_init__``'s check."""
    texts = []
    original = Word.__post_init__

    def counting(self):
        texts.append(self.text)
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    return texts


class TestValidatedOnce:
    """``Word(text, alphabet)`` and ``word(text)`` check their input; a word
    the library builds from valid parts is built without the check."""

    def test_library_built_words_are_trusted(self, checked_words, capsys):
        classic._fibonacci_text.cache_clear()
        classic._thue_morse_text.cache_clear()
        a, u, v = word("a"), word("abaab"), word("ba")
        built = [
            fibonacci_word(30),
            thue_morse_word(22),
            FIBONACCI.iterate(a, 28),
            THUE_MORSE.iterate(a, 21),
            FIBONACCI.apply(u),
            Morphism.parse("a->ac;b->.").apply(u),
            flip(u),
            u + v,
            u[1:3],
            fibonacci_G(30),
            *extensions(v),
            *Morphism.parse("a->ab;b->.").injectivity_witness,
            is_recognizable_on(THUE_MORSE, a).offending_rotation,
        ]
        assert not is_interference_free_on(FIBONACCI, interference_free_on_every_word(FIBONACCI))
        assert cli.main(["occ", "--pattern", "ab", "--text", "abcab"]) == 0
        assert checked_words == []
        # F_30 = phi^28(a) and tm_22 = mu^21(a)
        assert built[0] == built[2] and built[1] == built[3]
        for w in built:
            assert Word(w.text, w.alphabet) == w
        assert len(checked_words) == len(built)

    @pytest.mark.parametrize("text", ["", "abba", "abc", "ba" * 1000, "zy"])
    def test_word_checks_at_most_once(self, checked_words, text):
        w = word(text)
        assert len(checked_words) <= 1
        assert Word(w.text, w.alphabet) == w

    def test_derived_alphabet_matches_checked(self):
        rng = random.Random(31)
        texts = ["c", "abc", "cab", "zyx", "aaz", " ab", *(
            "".join(rng.choices("abcz", k=rng.randint(1, 8))) for _ in range(200)
        )]
        for text in texts:
            if set(text) <= {"a", "b"}:
                continue
            derived, checked = word(text).alphabet, Alphabet(tuple(sorted(set(text))))
            assert derived == checked and hash(derived) == hash(checked), text
            assert derived._symbol_set == checked._symbol_set == set(text), text

    def test_constructor_still_checks(self, checked_words):
        with pytest.raises(ValueError, match="not in alphabet"):
            Word("abc", BINARY)
        assert checked_words == ["abc"]
