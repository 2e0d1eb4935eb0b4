"""The scan artifacts of a text under a morphism's image set.

One call of :func:`scan` on a text ``w`` of length n yields what the
interference decision reads:

* the match stream -- every image occurrence, from one ``str.find`` loop
                 per image (:func:`words.find_all`), in order of increasing
                 start position; ``S`` groups it by start position;
* ``P_pref``  -- positions i such that the prefix ``w[1..i]`` is a proper
                 suffix of some image;
* ``P_suf``   -- positions i such that the suffix ``w[i..n]`` is a proper
                 prefix of some image.

The two boundary sets mirror each other, and one routine serves both:
``P_pref`` holds the borders between the image suffixes and the first
``max|img| - 1`` symbols of w, found from the Z-function of that head and
one Z-based matching pass per image (Gusfield 1997) in O(sum of |img|);
``P_suf`` is the same routine run on the reversed last ``max|img| - 1``
symbols against the reversed images.

The module keeps its historical name, which the benchmark in ``perfbench/``
reads as ``morphlab.aho_corasick``, though no automaton is built any more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import ErasingImageError
from .morphisms import Morphism
from .words import Word, find_all


@dataclass(frozen=True)
class ScanResult:
    """Scan artifacts for a text ``w`` of length ``n`` under a morphism.

    ``matches`` holds every image occurrence as (0-based start, length,
    source symbol), in order of increasing start position; matches with the
    same start keep the source order of the morphism's images.  So every
    match that ends at p comes before every match that starts at p.  ``s``
    is sparse: only positions with at least one matching image appear.
    ``occ_total`` is the total number of image occurrences in ``w``.
    """

    matches: list[tuple[int, int, str]]
    p_pref: frozenset[int]
    p_suf: frozenset[int]

    @cached_property
    def s(self) -> dict[int, tuple[str, ...]]:
        by_start: dict[int, list[str]] = {}
        for start0, _length, pid in self.matches:
            by_start.setdefault(start0 + 1, []).append(pid)
        return {pos: tuple(sorted(ids)) for pos, ids in sorted(by_start.items())}

    @property
    def occ_total(self) -> int:
        return len(self.matches)


def _z_function(s: str) -> list[int]:
    """z[k] = length of the longest common prefix of s and s[k:]."""
    n = len(s)
    z = [n] * n
    left = right = 0
    for k in range(1, n):
        length = min(right - k, z[k - left]) if k < right else 0
        while k + length < n and s[length] == s[k + length]:
            length += 1
        z[k] = length
        if k + length > right:
            left, right = k, k + length
    return z


def _prefix_borders(head: str, images: Sequence[str]) -> set[int]:
    """Lengths i >= 1 such that ``head[:i]`` is a proper suffix of some image.

    With z the Z-function of the head, one left-to-right pass over an image
    computes lcp(image[k:], head) for every k, as in Gusfield's Z-based
    matching; the suffix ``image[k:]`` is a prefix of the head iff that lcp
    reaches the image's end.  A proper suffix is shorter than max|img|, so
    a head of a text's first max|img| - 1 symbols finds all of the text's.
    """
    z = _z_function(head)
    m = len(head)
    out: set[int] = set()
    for img in images:
        size = len(img)
        left = right = 0  # img[left:right] == head[:right - left]
        for k in range(1, size):
            length = min(right - k, z[k - left]) if k < right else 0
            while length < m and k + length < size and head[length] == img[k + length]:
                length += 1
            if k + length == size:
                out.add(length)
            if k + length > right:
                left, right = k, k + length
    return out


def scan(phi: Morphism, w: Word | str) -> ScanResult:
    """Match stream, P_pref(w) and P_suf(w) for ``w`` under ``phi``.

    Each image is found by its own C-level ``str.find`` loop; a stable sort
    on the start merges the per-image lists, so ties keep the source order.
    P_suf(w) is P_pref of the reversed tail under the reversed images, with
    a suffix of length L starting at position n + 1 - L.
    """
    if not phi.is_non_erasing:
        erased = ", ".join(c for c, img in phi.images if not img)
        raise ErasingImageError(f"image factorizations need nonempty images; erased: {erased}")
    text = str(w)
    matches = [(i, len(img), c) for c, img in phi.images for i in find_all(img, text)]
    matches.sort(key=itemgetter(0))
    images = phi.image_texts
    cut = max(map(len, images)) - 1
    p_pref = frozenset(_prefix_borders(text[:cut], images))
    suffix_lengths = _prefix_borders(text[: -cut - 1 : -1], [img[::-1] for img in images])
    end = len(text) + 1
    return ScanResult(matches, p_pref, frozenset(end - size for size in suffix_lengths))
