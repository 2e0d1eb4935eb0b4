import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlab import (
    BINARY,
    Alphabet,
    Morphism,
    Word,
    compute_mus,
    compute_net_occurrences,
    fibonacci_word,
    mus_to_net,
    naive_mus,
    naive_net_occurrences,
    thue_morse_word,
    verify_fibonacci_mus,
    verify_net_closed_forms,
    verify_occ_lemmas,
    verify_occurrence_preservation,
    verify_tm_mus,
    word,
)
from morphlab import morphisms, repeats
from morphlab.classic import NAMED_MORPHISMS
from morphlab.errors import BudgetExceededError, NonInjectiveMorphismError
from morphlab.repeats import (
    MusOccurrence,
    NetOccurrence,
    lcp_array,
    shortest_unique_lengths,
    suffix_array,
)
from morphlab.words import occ_count

binary_texts = st.text(alphabet="ab", min_size=1, max_size=60)
ternary_texts = st.text(alphabet="abc", min_size=1, max_size=60)
# 1 to 5 symbols, one alphabet given out of code-point order; long enough for
# SA-IS to recurse on repeated LMS substrings
SORT_ALPHABETS = ("a", "ab", "abc", "abcde", "zéa")
sort_texts = st.sampled_from(SORT_ALPHABETS).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, max_size=300)
)
# NUL, newline, a two-byte and two four-byte symbols, the last code point
# among them: a sentinel taken from the symbols would equal one of them; over
# {a} every suffix is a prefix of a longer one, so every LCP comparison runs
# to the end of the text
EDGE_SYMBOLS = "\0\n\u00e9\U0001F600\U0010FFFF"
EDGE_ALPHABETS = (EDGE_SYMBOLS, "a")
edge_texts = st.sampled_from(EDGE_ALPHABETS).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, min_size=1, max_size=60)
)


def lcp_by_definition(text, sa):
    """lcp[k] from comparing suffixes sa[k - 1] and sa[k] symbol by symbol;
    lcp[0] = 0."""
    out = [0]
    for k in range(1, len(text)):
        a, b = text[sa[k - 1] :], text[sa[k] :]
        h = 0
        while h < min(len(a), len(b)) and a[h] == b[h]:
            h += 1
        out.append(h)
    return out


class TestSuffixStructures:
    @given(sort_texts)
    @example("")
    @example("a")
    @example("ab")
    @example("ba")
    @example("aa")
    @example("aaa")
    @example("a" * 300)
    def test_suffix_array_is_sorted(self, text):
        sa = suffix_array(text)
        suffixes = [text[i:] for i in sa]
        assert suffixes == sorted(suffixes)
        assert sorted(sa) == list(range(len(text)))

    def test_suffix_array_equals_slice_sort(self):
        texts = [fibonacci_word(i).text for i in range(1, 19)]
        texts += [thue_morse_word(i).text for i in range(1, 13)]
        for named in NAMED_MORPHISMS.values():
            text = "a"
            while len(text) <= 3000:
                texts.append(text)
                text = named.morphism.apply_text(text)
        rng = random.Random(7)
        for alphabet in SORT_ALPHABETS:
            texts += ["".join(rng.choices(alphabet, k=300)) for _ in range(20)]
        for text in texts:
            naive = sorted(range(len(text)), key=lambda i: text[i:])
            assert suffix_array(text) == naive, text[:40]

    def test_suffix_array_memory_is_linear(self):
        # a sort keyed by the suffixes themselves peaks near n^2 / 2 bytes
        # (130 MiB at n = 16,384); SA-IS peaks at about 6.7 MiB here
        text = "".join(random.Random(5).choices("ab", k=100_000))
        tracemalloc.start()
        try:
            suffix_array(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @given(binary_texts)
    def test_lcp_matches_definition(self, text):
        sa = suffix_array(text)
        assert lcp_array(text, sa) == lcp_by_definition(text, sa)

    @given(edge_texts)
    @example("a")
    @example("a" * 60)
    @example("\0" * 5 + "\U0001F600\0")
    def test_lcp_matches_definition_on_edge_alphabets(self, text):
        sa = suffix_array(text)
        assert lcp_array(text, sa) == lcp_by_definition(text, sa)

    @given(edge_texts)
    @example("a" * 60)
    @example("\n\0\n\0\n")
    def test_mus_and_net_match_the_oracles_on_edge_alphabets(self, text):
        w = word(text)
        assert shortest_unique_lengths(text) == naive_shortest_unique_lengths(text)
        assert compute_mus(w) == naive_mus(w)
        assert compute_net_occurrences(w) == naive_net_occurrences(w)

    @given(binary_texts)
    def test_shortest_unique_lengths(self, text):
        l = shortest_unique_lengths(text)
        n = len(text)
        for i in range(n):
            unique = [
                length
                for length in range(1, n - i + 1)
                if occ_count(word(text[i : i + length]), word(text)) == 1
            ]
            if unique:
                assert l[i] == unique[0]
            else:
                assert l[i] > n


def short_words():
    """Every binary word of length <= 14 and every ternary word of length <= 8."""
    for alphabet, longest in (("ab", 14), ("abc", 8)):
        for n in range(1, longest + 1):
            for p in product(alphabet, repeat=n):
                yield "".join(p)


def naive_shortest_unique_lengths(text):
    """l[i] by counting every substring: the least m with text[i:i + m]
    occurring once, or repeats._INF when there is none."""
    counts = Counter(text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1))
    return [
        next((m for m in range(1, len(text) - i + 1) if counts[text[i : i + m]] == 1), repeats._INF)
        for i in range(len(text))
    ]


def lms_substrings(text):
    """The LMS substrings of text by definition: suffix i is S-type when
    text[i:] < text[i + 1:]; an LMS position is S-type after an L-type one;
    each substring runs to the next LMS position inclusive, the last one to
    the end.  Returns (the non-last substrings, the last one or None)."""
    n = len(text)
    s_type = [text[i:] < text[i + 1 :] for i in range(n)]
    lms = [i for i in range(1, n) if s_type[i] and not s_type[i - 1]]
    inner = [text[v : e + 1] for v, e in zip(lms, lms[1:])]
    return inner, (text[lms[-1] :] if lms else None)


def sais_levels(monkeypatch, text):
    """The number of ``repeats._sais`` levels that sorting text runs."""
    calls = []
    original = repeats._sais

    def counting(s, upper):
        calls.append(len(s))
        return original(s, upper)

    monkeypatch.setattr(repeats, "_sais", counting)
    suffix_array(text)
    monkeypatch.undo()
    return len(calls)


class TestLmsKeyOrder:
    """Each level of SA-IS names its LMS substrings by sorting byte-string
    keys: the 4-byte codes of the substring, then a cap above every code,
    except for the last substring, which has no cap."""

    @staticmethod
    def assert_sorted(text):
        naive = sorted(range(len(text)), key=lambda i: text[i:])
        assert suffix_array(text) == naive, text[:40]

    def test_every_short_word(self):
        for text in short_words():
            self.assert_sorted(text)

    def test_inner_substring_a_proper_prefix_of_another(self):
        text = "bacbacbc"
        inner, _ = lms_substrings(text)
        assert any(v != w and w.startswith(v) for v in inner for w in inner)
        self.assert_sorted(text)

    def test_last_substring_a_prefix_of_another(self):
        text = "babab"
        inner, last = lms_substrings(text)
        assert any(w.startswith(last) for w in inner)
        self.assert_sorted(text)

    def test_another_substring_a_proper_prefix_of_the_last(self):
        text = "bababaa"
        inner, last = lms_substrings(text)
        assert any(last.startswith(v) and last != v for v in inner)
        self.assert_sorted(text)

    def test_distinct_names_sort_without_recursion(self, monkeypatch):
        for text in ("babab", "bacbacbc", "abcacbab"):
            inner, last = lms_substrings(text)
            assert len(inner) >= 1 and len(set(inner)) == len(inner)
            assert sais_levels(monkeypatch, text) == 1
            self.assert_sorted(text)

    def test_repeated_names_recurse(self, monkeypatch):
        texts = ["bababab"]
        texts += [fibonacci_word(i).text for i in (8, 12, 16)]
        texts += [thue_morse_word(i).text for i in (6, 9, 12)]
        for text in texts:
            inner, _ = lms_substrings(text)
            assert len(set(inner)) < len(inner)
            assert sais_levels(monkeypatch, text) > 1
            self.assert_sorted(text)

    @pytest.mark.parametrize("text, count", [("ba", 0), ("aaa", 0), ("ab", 0), ("a" * 300, 0),
                                             ("bab", 1), ("abab", 1), ("baab", 1)])
    def test_zero_or_one_lms_position(self, text, count):
        inner, last = lms_substrings(text)
        assert len(inner) + (last is not None) == count
        self.assert_sorted(text)

    def test_edge_alphabet(self):
        edge = "\0\né\U0001F600\U0010FFFF"
        texts = ["".join(p) for n in range(1, 5) for p in product(edge, repeat=n)]
        rng = random.Random(23)
        texts += ["".join(rng.choices(edge, k=rng.randint(5, 200))) for _ in range(300)]
        for text in texts:
            self.assert_sorted(text)

    def test_codes_above_one_byte(self):
        # 1,024 symbols, so codes and names above 255 whose keys compare in
        # their higher bytes.  The order of two LMS suffixes with equal LMS
        # substrings is read from the names of what follows them: here 60
        # copies of one block, each followed by a different random tail
        symbols = [chr(c) for c in range(0x100, 0x500)]
        rng = random.Random(31)
        block = "".join(rng.choices(symbols, k=50))
        self.assert_sorted("".join(block + "".join(rng.choices(symbols, k=10)) for _ in range(60)))
        self.assert_sorted("".join(rng.choices(symbols, k=3000)))


class TestShortWordOutputs:
    """The results equal the oracles on every short word, and are exactly the
    result types."""

    def test_every_short_word_against_the_oracles(self):
        for text in short_words():
            assert shortest_unique_lengths(text) == naive_shortest_unique_lengths(text), text
            w = word(text)
            mus = compute_mus(w)
            assert mus == naive_mus(w), text
            net = naive_net_occurrences(w)
            assert compute_net_occurrences(w) == net, text
            assert mus_to_net(mus, len(w)) == net, text

    def test_every_short_edge_word_against_the_oracles(self):
        for n in range(1, 6):
            for p in product(EDGE_SYMBOLS, repeat=n):
                text = "".join(p)
                assert shortest_unique_lengths(text) == naive_shortest_unique_lengths(text), text
                w = word(text)
                assert compute_mus(w) == naive_mus(w), text
                assert compute_net_occurrences(w) == naive_net_occurrences(w), text

    @pytest.mark.parametrize(
        "text, tail",
        [
            ("aaaaaa", range(1, 6)),
            ("abab", range(2, 4)),
            ("abaabbab", range(6, 8)),
            ("aaab", range(4, 4)),  # no suffix is repeated
        ],
    )
    def test_unbounded_positions_are_one_tail_range(self, text, tail):
        # l[i] is _INF exactly where suffix i occurs elsewhere, and a later
        # suffix of a repeated suffix is repeated too
        assert [i for i in range(len(text)) if text.find(text[i:]) < i] == list(tail)
        l = shortest_unique_lengths(text)
        assert [i for i, m in enumerate(l) if m == repeats._INF] == list(tail)
        assert all(m <= len(text) - i for i, m in enumerate(l) if i not in tail)

    def test_result_types(self):
        w = Word("".join(random.Random(29).choices("ab", k=300)))
        mus = compute_mus(w)
        nets = (compute_net_occurrences(w), mus_to_net(mus, len(w)))
        assert mus and all(type(m) is MusOccurrence for m in mus)
        assert nets[0] and all(type(o) is NetOccurrence for net in nets for o in net)
        assert nets[0] == nets[1] == naive_net_occurrences(w)


class TestMus:
    def test_fibonacci_fixtures(self):
        assert [(m.start, m.end, m.content.text) for m in compute_mus(fibonacci_word(6))] == [
            (3, 4, "aa"),
            (5, 7, "bab"),
        ]
        assert [(m.start, m.end, m.content.text) for m in compute_mus(fibonacci_word(7))] == [
            (5, 7, "bab"),
            (8, 12, "aabaa"),
        ]

    def test_uniform_word(self):
        assert [(m.start, m.end) for m in compute_mus(word("aaaa"))] == [(1, 4)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="MUSs are defined for nonempty words"):
            compute_mus(word(""))
        with pytest.raises(
            ValueError, match="net occurrences are defined for nonempty words"
        ):
            compute_net_occurrences(word(""))

    def test_exhaustive_small_against_naive(self):
        for n in range(1, 11):
            for p in product("ab", repeat=n):
                w = word("".join(p))
                assert compute_mus(w) == naive_mus(w), w.text

    @given(binary_texts)
    def test_random_against_naive(self, text):
        w = word(text)
        assert compute_mus(w) == naive_mus(w)


class TestNetOccurrences:
    def test_fibonacci_seven(self):
        assert [o.interval for o in compute_net_occurrences(fibonacci_word(7))] == [
            (1, 6),
            (6, 11),
            (9, 13),
        ]

    def test_square_free_word(self):
        assert compute_net_occurrences(word("ab")) == []

    def test_repeated_single_symbol(self):
        assert [o.interval for o in compute_net_occurrences(word("aa"))] == [
            (1, 1),
            (2, 2),
        ]

    def test_exhaustive_small_against_naive(self):
        for n in range(1, 11):
            for p in product("ab", repeat=n):
                w = word("".join(p))
                assert compute_net_occurrences(w) == naive_net_occurrences(w), w.text

    @given(binary_texts)
    def test_random_against_naive(self, text):
        w = word(text)
        assert compute_net_occurrences(w) == naive_net_occurrences(w)


class TestMusIntervalCache:
    """compute_mus and compute_net_occurrences share a one-entry cache of MUS
    intervals keyed by the text."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        """Texts passed to repeats.suffix_array, from an empty cache on."""
        texts = []
        original = repeats.suffix_array

        def counting(text):
            texts.append(text)
            return original(text)

        monkeypatch.setattr(repeats, "suffix_array", counting)
        repeats._mus_intervals.cache_clear()
        yield texts
        repeats._mus_intervals.cache_clear()

    def test_mus_then_net_sorts_once(self, sorts):
        w = fibonacci_word(9)
        assert compute_mus(w) == naive_mus(w)
        assert compute_net_occurrences(w) == naive_net_occurrences(w)
        assert sorts == [w.text]

    def test_one_entry_only(self, sorts):
        w1, w2 = fibonacci_word(8), thue_morse_word(5)
        compute_mus(w1)
        compute_mus(w2)
        compute_mus(w1)
        assert sorts == [w1.text, w2.text, w1.text]

    def test_results_are_fresh_lists(self, sorts):
        w = word("abaababaab")
        first = compute_mus(w)
        second = compute_mus(w)
        assert first is not second
        first.clear()
        assert compute_mus(w) == second == naive_mus(w)
        net = compute_net_occurrences(w)
        assert net is not compute_net_occurrences(w)
        net.append(NetOccurrence(1, 1))
        assert compute_net_occurrences(w) == naive_net_occurrences(w)
        assert len(sorts) == 1

    def test_contents_take_the_callers_alphabet(self, sorts):
        abc = Alphabet(("a", "b", "c"))
        text = "abbaabab"
        binary = compute_mus(Word(text, BINARY))
        ternary = compute_mus(Word(text, abc))
        assert {m.content.alphabet for m in binary} == {BINARY}
        assert {m.content.alphabet for m in ternary} == {abc}
        assert [m.interval for m in binary] == [m.interval for m in ternary]
        assert ternary == naive_mus(Word(text, abc))
        assert len(sorts) == 1


@pytest.fixture
def trusted_words(monkeypatch):
    """Texts of the words built by ``Word._trusted`` (every slice of a word)."""
    texts = []
    original = Word._trusted.__func__

    def counting(cls, text, alphabet):
        texts.append(text)
        return original(cls, text, alphabet)

    monkeypatch.setattr(Word, "_trusted", classmethod(counting))
    return texts


class TestResultTypes:
    """MusOccurrence is the named tuple (start, end, word), whose content is
    sliced from word when read; NetOccurrence is the named tuple (start, end)."""

    def test_fields(self):
        w = fibonacci_word(7)
        m = compute_mus(w)[0]
        assert MusOccurrence._fields == ("start", "end", "word")
        assert NetOccurrence._fields == ("start", "end")
        assert m == (5, 7, w) and m.word is w
        assert isinstance(MusOccurrence.content, property)
        assert m.content == Word("bab", BINARY)
        assert m.interval == (5, 7)

    @given(ternary_texts)
    def test_content_is_the_slice_over_the_words_alphabet(self, text):
        w = Word(text, Alphabet(("a", "b", "c")))
        for m in compute_mus(w) + naive_mus(w):
            assert m.content == w[m.start - 1 : m.end]
            assert m.content.alphabet == w.alphabet

    def test_equal_iff_same_interval_in_equal_words(self):
        abc = Alphabet(("a", "b", "c"))
        m = MusOccurrence(1, 2, Word("abab", BINARY))
        assert m == MusOccurrence(1, 2, Word("abab", BINARY))
        assert hash(m) == hash(MusOccurrence(1, 2, Word("abab", BINARY)))
        assert m != MusOccurrence(1, 3, Word("abab", BINARY))
        # the same content in another word, or over another alphabet
        assert m != MusOccurrence(1, 2, Word("abba", BINARY))
        assert m != MusOccurrence(1, 2, Word("abab", abc))
        assert compute_mus(Word("abab", BINARY)) != compute_mus(Word("abab", abc))

    def test_net_occurrence_is_its_interval(self):
        assert NetOccurrence(1, 4) == (1, 4)
        assert NetOccurrence(1, 4).interval == (1, 4)
        assert compute_net_occurrences(fibonacci_word(7)) == [(1, 6), (6, 11), (9, 13)]

    def test_attributes_cannot_be_set(self):
        m = compute_mus(fibonacci_word(7))[0]
        o = NetOccurrence(1, 4)
        for obj, attr in ((m, "start"), (m, "word"), (m, "content"), (m, "extra"),
                          (o, "end"), (o, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)

    def test_hashable_and_repr_shows_the_content(self):
        w = fibonacci_word(7)
        mus = compute_mus(w)
        net = compute_net_occurrences(w)
        assert len(set(mus)) == len(mus) and len(set(net)) == len(net)
        assert repr(mus[1]) == "MusOccurrence(start=8, end=12, content='aabaa')"
        assert w.text not in repr(mus)
        assert repr(net[0]) == "NetOccurrence(start=1, end=6)"

    def test_contents_are_built_only_when_read(self, trusted_words):
        w = Word("".join(random.Random(17).choices("ab", k=10_000)))
        mus = compute_mus(w)
        assert len(mus) > 100
        assert trusted_words == []
        assert mus[3].content.text == trusted_words[0]
        assert len(trusted_words) == 1


class TestTracedStages:
    """The benchmark's per-layer trace wraps ``repeats.suffix_array``,
    ``repeats.lcp_array`` and ``repeats.shortest_unique_lengths`` as module
    attributes; a refactor that stops calling one of them through its module
    name would leave that row reading 0.  ``shortest_unique_lengths`` finds
    its LCPs in text order, so ``lcp_array`` is not called."""

    def test_mus_then_net_calls_each_stage_once(self, monkeypatch):
        calls = Counter()
        for name in ("suffix_array", "lcp_array", "shortest_unique_lengths"):
            original = getattr(repeats, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(repeats, name, counting)
        repeats._mus_intervals.cache_clear()
        w = Word("".join(random.Random(19).choices("ab", k=200)))
        try:
            assert compute_mus(w) == naive_mus(w)
            assert compute_net_occurrences(w) == naive_net_occurrences(w)
        finally:
            repeats._mus_intervals.cache_clear()
        stages = ("suffix_array", "lcp_array", "shortest_unique_lengths")
        assert {name: calls[name] for name in stages} == {
            "suffix_array": 1,
            "lcp_array": 0,
            "shortest_unique_lengths": 1,
        }


@st.composite
def call_sequences(draw):
    """(word, function) calls over a few texts of length <= 10, each text
    drawn over {a, b} or {a, b, c} and called with either alphabet it fits."""
    abc = Alphabet(("a", "b", "c"))
    pool = draw(
        st.lists(
            st.sampled_from(["ab", "abc"]).flatmap(
                lambda a: st.text(alphabet=a, min_size=1, max_size=10)
            ),
            min_size=1,
            max_size=4,
        )
    )
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        text = draw(st.sampled_from(pool))
        fits = [BINARY, abc] if set(text) <= {"a", "b"} else [abc]
        alphabet = draw(st.sampled_from(fits))
        fn = draw(st.sampled_from(["mus", "net"]))
        calls.append((Word(text, alphabet), fn))
    return calls


class TestCallSequences:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(call_sequences())
    def test_any_call_order_matches_the_oracles(self, calls):
        # a stale or mis-keyed cache entry would answer for the wrong word
        for w, fn in calls:
            if fn == "mus":
                assert compute_mus(w) == naive_mus(w), w
            else:
                assert compute_net_occurrences(w) == naive_net_occurrences(w), w


class TestMusToNet:
    def test_fixture(self):
        mus = compute_mus(fibonacci_word(7))
        assert [(m.start, m.end) for m in mus] == [(5, 7), (8, 12)]
        assert [o.interval for o in mus_to_net(mus, 13)] == [(1, 6), (6, 11), (9, 13)]

    def test_single_mus(self):
        out = mus_to_net(compute_mus(word("aaaa")), 4)
        assert [o.interval for o in out] == [(1, 3), (2, 4)]

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            mus_to_net([], 5)

    def test_degenerate_intervals_dropped(self):
        # a single-symbol word is its own MUS; both formula intervals are empty
        assert mus_to_net(compute_mus(word("a")), 1) == []

    # compute_net_occurrences is this composition, so the definitional oracle
    # is the reference
    @given(ternary_texts)
    def test_duality_random(self, text):
        w = word(text)
        assert mus_to_net(compute_mus(w), len(w)) == naive_net_occurrences(w)

    def test_duality_long_random(self):
        rng = random.Random(11)
        for _ in range(500):
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 200)))
            w = word(text)
            assert mus_to_net(compute_mus(w), len(w)) == naive_net_occurrences(w)


class TestOccurrencePreservation:
    def test_positive_fixture(self):
        report = verify_occurrence_preservation(
            Morphism.parse("a->ab;b->ba"), word("ab"), word("abaab"), 1
        )
        assert report.preconditions_hold
        assert (report.count_before, report.count_after) == (2, 2)
        assert report.bijection_holds

    def test_precondition_failure_records_counts(self):
        report = verify_occurrence_preservation(
            Morphism.parse("a->ab;b->a"), word("ab"), word("abaab"), 1
        )
        assert not report.preconditions_hold
        assert report.failing_iterate == 0
        assert (report.count_before, report.count_after) == (2, 3)

    def test_second_negative_fixture(self):
        report = verify_occurrence_preservation(
            Morphism.parse("a->ab;b->ba"), word("aa"), word("aabbb"), 1
        )
        assert not report.preconditions_hold
        assert (report.count_before, report.count_after) == (1, 2)

    def test_positive_fibonacci_fixture(self):
        report = verify_occurrence_preservation(
            Morphism.parse("a->ab;b->a"), word("aa"), word("aabbb"), 1
        )
        assert report.preserved
        assert (report.count_before, report.count_after) == (1, 1)

    def test_uniform_position_formula(self):
        # for a 2-uniform morphism, position p maps to 2^k (p-1) + 1
        mu = Morphism.parse("a->ab;b->ba")
        u, v = word("abba"), word("babbaababba")
        for k in (1, 2, 3):
            report = verify_occurrence_preservation(mu, u, v, k)
            if report.preconditions_hold:
                assert report.bijection_holds
                from morphlab.words import occurrences
                before = occurrences(u, v)
                after = occurrences(mu.iterate(u, k), mu.iterate(v, k))
                assert tuple(2**k * (p - 1) + 1 for p in before) == tuple(after.positions)

    def test_monotone_counts_under_nonerasing(self):
        rng = random.Random(3)
        specs = ("a->ab;b->a", "a->ab;b->ba", "a->aab;b->bba", "a->ba;b->bb")
        for _ in range(250):
            phi = Morphism.parse(rng.choice(specs))
            u = word("".join(rng.choice("ab") for _ in range(rng.randint(1, 6))))
            v = word("".join(rng.choice("ab") for _ in range(rng.randint(1, 30))))
            assert occ_count(u, v) <= occ_count(phi.apply(u), phi.apply(v))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_occurrence_preservation(
                Morphism.parse("a->ab;b->ab"), word("a"), word("a"), 1
            )
        with pytest.raises(ValueError):
            verify_occurrence_preservation(
                Morphism.parse("a->ab;b->a"), word("a"), word("a"), 0
            )

    def test_rejects_non_injective_with_witness(self):
        phi = Morphism.parse("a->a;b->aa")
        with pytest.raises(NonInjectiveMorphismError) as caught:
            verify_occurrence_preservation(phi, word("a"), word("a"), 1)
        assert tuple(w.text for w in caught.value.witness) == ("aa", "b")

    def test_refuses_phi_k_of_u_above_the_budget_before_applying(self, monkeypatch):
        # phi^8(aaaa) holds 220 symbols, phi^8(a) 55
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 100)
        phi = Morphism.parse("a->ab;b->a")
        with pytest.raises(BudgetExceededError):
            phi.iterate(word("aaaa"), 8)
        assert len(phi.iterate(word("a"), 8)) == 55
        applied = []
        monkeypatch.setattr(Morphism, "apply_text", lambda self, text: applied.append(text))
        with pytest.raises(BudgetExceededError, match="phi\\^8\\(u\\) would hold more than 100"):
            verify_occurrence_preservation(phi, word("aaaa"), word("a"), 8)
        assert applied == []

    @pytest.mark.parametrize("u", ["a", "b"])
    def test_rejects_iterating_a_non_endomorphism(self, u):
        # the same error whichever path the check would take: c = phi(b) has
        # no image, while phi is IF on a and on phi(a) = ab
        with pytest.raises(ValueError, match="iterating k >= 2 requires"):
            verify_occurrence_preservation(Morphism.parse("a->ab;b->c"), word(u), word("ab"), 2)


class TestTheoremSweeps:
    def test_fibonacci_mus_closed_form(self):
        assert verify_fibonacci_mus(range(6, 15)).passed

    def test_fibonacci_mus_rejects_small_index(self):
        with pytest.raises(ValueError):
            verify_fibonacci_mus(range(5, 7))

    def test_tm_mus_closed_form(self):
        report = verify_tm_mus(range(5, 12))
        assert report.passed

    def test_mus_closed_forms_past_criterion_7(self):
        # criterion 7 stops at F_18 and tm_14; these reach the deeper
        # recursion levels of the suffix sort
        assert verify_fibonacci_mus([26]).passed
        assert verify_tm_mus([19]).passed

    def test_net_closed_forms(self):
        assert verify_net_closed_forms(range(7, 13), range(5, 11)).passed

    def test_occ_lemma_constancy(self):
        report = verify_occ_lemmas(max_fib=16, max_tm=11, max_lpp=14)
        by_label = {r.label: r for r in report.instances}
        for d in (1, 2, 3):
            assert by_label[f"fib d={d}"].ok
            assert by_label[f"tm d={d}"].ok
        assert by_label["occ(F_4, F_6) = 3"].ok
        # prefix equality holds for k >= 5; at k = 4 the suffix occurrence of
        # ab on odd i adds one, which the report checks as an exact relation
        for k in range(5, 15):
            assert by_label[f"lpp k={k}"].ok
        assert by_label["occ(ab, F_i) = occ(aba, F_i) + (i mod 2)"].ok
        # the plain k = 4 equality is false: F_5 = abaab
        assert occ_count(word("ab"), fibonacci_word(5)) == 2
        assert occ_count(word("aba"), fibonacci_word(5)) == 1
        assert any("tm_2" in note for note in report.notes)
