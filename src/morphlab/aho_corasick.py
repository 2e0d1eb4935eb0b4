"""The boundary sets of a text under a morphism's image set.

For a text ``w`` of length n,

* ``P_pref`` -- positions i such that the prefix ``w[1..i]`` is a proper
                suffix of some image;
* ``P_suf``  -- positions i such that the suffix ``w[i..n]`` is a proper
                prefix of some image.

The two sets mirror each other, and one routine serves both: ``P_pref``
holds the borders between the image suffixes and the first
``max|img| - 1`` symbols of w, found from the Z-function of that head and
one Z-based matching pass per image (Gusfield 1997) in O(sum of |img|);
``P_suf`` is the same routine run on the reversed last ``max|img| - 1``
symbols against the reversed images.  So :func:`p_pref_lengths` and
:func:`p_suf_lengths` need only the two ends of w.  They serve the
interference decision, which never builds w, ``interference.factorizable``
and the ``scan-debug`` command.

The module keeps its historical name because the benchmark in
``perfbench/`` reads it as ``morphlab.aho_corasick``; no automaton is built
any more.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ErasingImageError
from .morphisms import Morphism


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
