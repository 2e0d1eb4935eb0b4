from itertools import product

from morphlab import Morphism
from morphlab.aho_corasick import scan


def naive_artifacts(phi, text):
    """S, P_pref, P_suf computed by direct substring comparison."""
    n = len(text)
    s = {}
    for c, img in phi.images:
        for i in range(n):
            if text[i : i + len(img)] == img:
                s.setdefault(i + 1, set()).add(c)
    p_pref = {
        i for i in range(1, n + 1) if text[:i] in phi.proper_image_suffixes
    }
    p_suf = {
        i for i in range(1, n + 1) if text[i - 1 :] in phi.proper_image_prefixes
    }
    return {k: tuple(sorted(v)) for k, v in s.items()}, p_pref, p_suf


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

    def test_matches_in_start_order(self):
        phi = Morphism.from_map({"a": "abca", "b": "bc", "c": "c"})
        for text in ("abcabca", "bcbcabcab", "cabcacbc"):
            matches = scan(phi, text).matches
            starts = [start for start, _, _ in matches]
            assert starts == sorted(starts), text
            # all the forward DP relies on: a match ending at p precedes
            # every match starting at p
            for k, (start, length, _) in enumerate(matches):
                end = start + length
                assert all(s != end for s, _, _ in matches[:k]), (text, k)
