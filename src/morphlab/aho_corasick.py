"""Aho-Corasick dictionary matching over the image set of a morphism.

The automaton is the classic goto/failure/output construction.  One forward
scan of a text ``w`` of length n yields the scan artifacts used by the
interference decision:

* the match stream -- every image occurrence, in order of increasing end
                 position; ``S`` groups it by start position;
* ``P_suf``   -- positions i such that the suffix ``w[i..n]`` is a proper
                 prefix of some image (computed by walking failure links
                 from the final state; a node qualifies iff it is not a
                 leaf, and the walk stops at the root);
* ``P_pref``  -- positions i such that the prefix ``w[1..i]`` is a proper
                 suffix of some image.  These are the borders between the
                 image suffixes and the first ``|img| - 1`` symbols of w:
                 the Z-function of that head of w and one Z-based matching
                 pass per image (Gusfield 1997) find them in O(sum of
                 |img|), with no second pass over w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import ErasingImageError
from .morphisms import Morphism
from .words import Word


class _Node:
    __slots__ = ("children", "fail", "goto", "outputs", "depth")

    def __init__(self, depth: int):
        self.children: dict[str, _Node] = {}
        self.fail: _Node | None = None
        self.goto: dict[str, _Node] = {}
        self.outputs: list[tuple[str, int]] = []  # (pattern id, pattern length)
        self.depth = depth


@dataclass(frozen=True)
class ScanResult:
    """Scan artifacts for a text ``w`` of length ``n`` under a morphism.

    ``matches`` holds every image occurrence as (0-based start, length,
    source symbol), in order of increasing end position.  ``s`` is sparse:
    only positions with at least one matching image appear.  ``occ_total``
    is the total number of image occurrences in ``w``.
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


class DictionaryMatcher:
    """Multi-pattern matcher over a fixed dictionary; immutable after build."""

    def __init__(self, patterns: Sequence[tuple[str, str]]):
        if not patterns:
            raise ValueError("pattern set must be nonempty")
        self._root = _Node(0)
        alphabet: set[str] = set()
        for text, pid in patterns:
            if not text:
                raise ErasingImageError(f"empty pattern for id {pid!r}")
            alphabet.update(text)
            node = self._root
            for ch in text:
                nxt = node.children.get(ch)
                if nxt is None:
                    nxt = _Node(node.depth + 1)
                    node.children[ch] = nxt
                node = nxt
            node.outputs.append((pid, len(text)))
        self._alphabet = tuple(sorted(alphabet))
        self._build_links()

    @classmethod
    def for_morphism(cls, phi: Morphism) -> "DictionaryMatcher":
        return cls([(img, c) for c, img in phi.images])

    def _build_links(self) -> None:
        root = self._root
        root.fail = root
        for ch in self._alphabet:
            child = root.children.get(ch)
            root.goto[ch] = child if child is not None else root
            if child is not None:
                child.fail = root
        queue = list(root.children.values())
        while queue:
            nxt: list[_Node] = []
            for node in queue:
                # own outputs plus everything reachable through the failure link
                node.outputs = node.outputs + node.fail.outputs
                for ch in self._alphabet:
                    child = node.children.get(ch)
                    if child is None:
                        node.goto[ch] = node.fail.goto[ch]
                    else:
                        child.fail = node.fail.goto[ch]
                        node.goto[ch] = child
                        nxt.append(child)
            queue = nxt

    # -- scanning -------------------------------------------------------------

    def matches(self, text: str) -> tuple[list[tuple[int, int, str]], "_Node"]:
        """All pattern occurrences as (0-based start, length, id), in order of
        increasing end position, plus the final automaton state."""
        root = self._root
        node = root
        out: list[tuple[int, int, str]] = []
        append = out.append
        for j, ch in enumerate(text):
            node = node.goto.get(ch, root)  # symbols outside the dictionary reset to root
            if node.outputs:
                for pid, length in node.outputs:
                    append((j + 1 - length, length, pid))
        return out, node

    def boundary_positions(self, final: "_Node", n: int) -> list[int]:
        """Failure-link walk from the final state: 1-based positions i such
        that ``text[i..n]`` is a proper prefix of some pattern."""
        res = []
        q = final
        while q.depth:
            if q.children:  # not a leaf
                res.append(n - q.depth + 1)
            q = q.fail
        return res


@lru_cache(maxsize=4096)
def matcher_for(phi: Morphism) -> DictionaryMatcher:
    """Cached per-morphism matcher over the image set."""
    return DictionaryMatcher.for_morphism(phi)


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


def _prefix_borders(text: str, images: Sequence[str]) -> frozenset[int]:
    """P_pref: lengths i >= 1 such that ``text[:i]`` is a proper suffix of
    some image.

    With z the Z-function of the head ``text[:max|img| - 1]``, one left-to-
    right pass over an image computes lcp(image[k:], head) for every k, as
    in Gusfield's Z-based matching; the suffix ``image[k:]`` is a prefix of
    the text iff that lcp reaches the image's end.
    """
    head = text[: max(map(len, images)) - 1]
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
    return frozenset(out)


def scan(phi: Morphism, w: Word | str) -> ScanResult:
    """Match stream, P_pref(w) and P_suf(w) for ``w`` under ``phi``, from one
    forward scan of ``w``."""
    if not phi.is_non_erasing:
        erased = ", ".join(c for c, img in phi.images if not img)
        raise ErasingImageError(f"image factorizations need nonempty images; erased: {erased}")
    text = str(w)
    matcher = matcher_for(phi)
    matches, final = matcher.matches(text)
    p_suf = frozenset(matcher.boundary_positions(final, len(text)))
    return ScanResult(matches, _prefix_borders(text, phi.image_texts), p_suf)
