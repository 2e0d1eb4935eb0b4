from itertools import product

import pytest

from morphlab import DictionaryMatcher, Morphism
from morphlab.aho_corasick import matcher_for, scan
from morphlab.errors import ErasingImageError
from morphlab.words import find_all


def naive_artifacts(phi, text):
    """S, P_pref, P_suf computed by direct substring comparison."""
    n = len(text)
    s = {}
    for c, img in phi.images:
        for i in find_all(img, text):
            s.setdefault(i + 1, set()).add(c)
    p_pref = {
        i for i in range(1, n + 1) if text[:i] in phi.proper_image_suffixes
    }
    p_suf = {
        i for i in range(1, n + 1) if text[i - 1 :] in phi.proper_image_prefixes
    }
    return {k: tuple(sorted(v)) for k, v in s.items()}, p_pref, p_suf


class TestBuild:
    def test_rejects_empty_pattern(self):
        with pytest.raises(ErasingImageError):
            DictionaryMatcher([("", "a")])

    def test_rejects_empty_dictionary(self):
        with pytest.raises(ValueError):
            DictionaryMatcher([])

    def test_simple_matches(self):
        m = DictionaryMatcher([("ab", "a"), ("a", "b")])
        starts = [(start + 1, pid) for start, _len, pid in m.matches("aba")[0]]
        assert sorted(starts) == [(1, "a"), (1, "b"), (3, "b")]

    def test_no_matches(self):
        m = DictionaryMatcher([("ab", "a")])
        assert m.matches("bbb")[0] == []

    def test_overlapping_patterns(self):
        m = DictionaryMatcher([("ab", "a"), ("ba", "b")])
        starts = [(start + 1, pid) for start, _len, pid in m.matches("aba")[0]]
        assert sorted(starts) == [(1, "a"), (2, "b")]

    def test_matches_sorted_by_end(self):
        phi = Morphism.parse("a->aba;b->ba")
        ends = [start + length for start, length, _ in
                matcher_for(phi).matches("ababa")[0]]
        assert ends == sorted(ends)


class TestScanArtifacts:
    def test_fibonacci_example(self):
        phi = Morphism.parse("a->ab;b->a")
        result = scan(phi, "abaababa")
        assert result.s[1] == ("a", "b")
        assert result.p_pref == frozenset()
        assert result.p_suf == {8}
        assert result.occ_total == 8

    def test_exhaustive_small_agreement(self):
        images = ["".join(p) for n in (1, 2, 3) for p in product("ab", repeat=n)]
        morphs = [
            Morphism.from_map({"a": ia, "b": ib})
            for ia, ib in product(images[:7], repeat=2)
        ]
        texts = ["".join(p) for n in range(1, 8) for p in product("ab", repeat=n)]
        # ternary images of length <= 4 with periodic and bordered shapes
        ternary = ("abca", "caba", "aaca", "bcb", "cabc", "ccc", "abcc", "bacb", "c")
        morphs += [
            Morphism.from_map({"a": ia, "b": ib, "c": ic})
            for ia, ib, ic in product(ternary, repeat=3)
            if len({ia, ib, ic}) == 3
        ][::7]
        texts += ["".join(p) for n in range(1, 7) for p in product("abc", repeat=n)]
        for phi in morphs:
            for text in texts:
                result = scan(phi, text)
                s, p_pref, p_suf = naive_artifacts(phi, text)
                assert result.s == s, (phi.format(), text)
                assert set(result.p_pref) == p_pref, (phi.format(), text)
                assert set(result.p_suf) == p_suf, (phi.format(), text)

    def test_matcher_cache_reuses_instances(self):
        phi = Morphism.parse("a->ab;b->a")
        assert matcher_for(phi) is matcher_for(Morphism.parse("a->ab;b->a"))
