from itertools import product

from morphlab import Morphism
from morphlab.aho_corasick import p_pref_lengths, p_suf_lengths


def naive_artifacts(phi, text):
    """P_pref and P_suf computed by direct substring comparison."""
    n = len(text)
    p_pref = {
        i for i in range(1, n + 1) if text[:i] in phi.proper_image_suffixes
    }
    p_suf = {
        i for i in range(1, n + 1) if text[i - 1 :] in phi.proper_image_prefixes
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
        texts += ["".join(p) for n in range(1, 7) for p in product("abc", repeat=n)]
        for phi in morphs:
            for text in texts:
                p_pref, p_suf = naive_artifacts(phi, text)
                assert p_pref_lengths(phi, text) == p_pref, (phi.format(), text)
                # a suffix of length L starts at position |text| + 1 - L
                positions = {len(text) + 1 - size for size in p_suf_lengths(phi, text)}
                assert positions == p_suf, (phi.format(), text)
