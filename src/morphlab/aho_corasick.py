"""The scan artifacts of a text under a morphism's image set.

One call of :func:`scan` on a text ``w`` of length n yields

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
symbols against the reversed images.  :func:`p_pref_lengths` and
:func:`p_suf_lengths` expose that routine on its own, since it needs only
the two ends of w.

The interference decision reads only those two: it never
builds w or its match stream (see :mod:`interference`).  :func:`scan` serves
``interference.factorizable`` (which reports the reachability table over w),
the ``scan-debug`` command and the tests.

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


def require_non_erasing(phi: Morphism) -> None:
    """Image factorizations need nonempty images: raise ErasingImageError
    naming the erased symbols otherwise."""
    if not phi.is_non_erasing:
        erased = ", ".join(c for c, img in phi.images if not img)
        raise ErasingImageError(f"image factorizations need nonempty images; erased: {erased}")


def p_pref_lengths(phi: Morphism, head: str) -> set[int]:
    """P_pref of a text w that begins with ``head``, given at least the first
    max|img| - 1 symbols of w (or all of w)."""
    return _prefix_borders(head[: phi.max_image_length - 1], phi.image_texts)


def p_suf_lengths(phi: Morphism, tail: str) -> set[int]:
    """The lengths of the suffixes of a text w that are proper image
    prefixes, given at least the last max|img| - 1 symbols of w (or all of
    w) as ``tail``: P_pref of the reversed tail under the reversed images.
    A suffix of length L starts at the position |w| + 1 - L of P_suf."""
    return _prefix_borders(tail[: -phi.max_image_length : -1], phi.reversed_image_texts)


def scan(phi: Morphism, w: Word | str) -> ScanResult:
    """Match stream, P_pref(w) and P_suf(w) for ``w`` under ``phi``.

    Each image is found by its own C-level ``str.find`` loop; a stable sort
    on the start merges the per-image lists, so ties keep the source order.
    """
    require_non_erasing(phi)
    text = str(w)
    matches = [(i, len(img), c) for c, img in phi.images for i in find_all(img, text)]
    matches.sort(key=itemgetter(0))
    end = len(text) + 1
    p_suf = frozenset(end - size for size in p_suf_lengths(phi, text))
    return ScanResult(matches, frozenset(p_pref_lengths(phi, text)), p_suf)
