from itertools import product

from morphlab import Morphism
from morphlab.aho_corasick import p_pref_lengths, p_suf_lengths


def naive_artifacts(phi, text):
    """P_pref and P_suf computed from the image strings themselves: a prefix
    of length i is in P_pref iff some image longer than i ends with it, and
    a suffix is in P_suf iff some image longer than it starts with it."""
    images = [img for _, img in phi.images]
    n = len(text)
    p_pref = {
        i for i in range(1, n + 1)
        if any(len(img) > i and img.endswith(text[:i]) for img in images)
    }
    p_suf = {
        i for i in range(1, n + 1)
        if any(len(img) > n + 1 - i and img.startswith(text[i - 1 :]) for img in images)
    }
    return p_pref, p_suf


class TestScanArtifacts:
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
        # longer bordered and periodic images: max|img| - 1 is 4 to 7, so the
        # binary texts run both shorter and longer than that cut
        longer = ("abaab", "aabaa", "ababab", "abbabba", "abaababa")
        morphs += [
            Morphism.from_map({"a": ia, "b": ib})
            for ia, ib in product(longer, ("a", "ab", "bab", *longer))
            if ia != ib
        ]
        texts += ["".join(p) for n in range(1, 7) for p in product("abc", repeat=n)]
        for phi in morphs:
            for text in texts:
                p_pref, p_suf = naive_artifacts(phi, text)
                assert p_pref_lengths(phi, text) == p_pref, (phi.format(), text)
                # a suffix of length L starts at position |text| + 1 - L
                positions = {len(text) + 1 - size for size in p_suf_lengths(phi, text)}
                assert positions == p_suf, (phi.format(), text)
