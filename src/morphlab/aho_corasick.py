"""The boundary sets of a text under a morphism's image set.

For a text ``w`` of length n,

* ``P_pref`` -- positions i such that the prefix ``w[1..i]`` is a proper
                suffix of some image;
* ``P_suf``  -- positions i such that the suffix ``w[i..n]`` is a proper
                prefix of some image.

A proper affix is shorter than max|img|, so both sets are read from the
first and the last ``max|img| - 1`` symbols of w: each of at most
``max|img| - 1`` prefixes (suffixes) of w is looked up in the morphism's
cached :attr:`~Morphism.proper_image_suffixes`
(:attr:`~Morphism.proper_image_prefixes`).  Building those two frozensets
takes O(sum of |img|^2) time and memory once per morphism; building
:attr:`~Morphism.image_ends`, which every decision does, takes the same
order of time.  So :func:`p_pref_lengths` and :func:`p_suf_lengths` need
only the two ends of w.  They serve the interference decision, which never
builds w.
Above ``morphisms.AFFIX_BUDGET`` characters the sets are refused with
``BudgetExceededError`` before they are built.  A decision reads them
before ``image_ends``, so one image of 10^5 symbols raises at once instead
of asking for about 10 GB.

The module keeps its historical name because the benchmark in
``perfbench/`` reads it as ``morphlab.aho_corasick``; no automaton is built
any more.
"""

from __future__ import annotations

from .morphisms import Morphism


def p_pref_lengths(phi: Morphism, head: str) -> set[int]:
    """P_pref of a text w that begins with ``head``, given at least the first
    max|img| - 1 symbols of w (or all of w)."""
    suffixes = phi.proper_image_suffixes
    cut = min(len(head), phi.max_image_length - 1)
    return {i for i in range(1, cut + 1) if head[:i] in suffixes}


def p_suf_lengths(phi: Morphism, tail: str) -> set[int]:
    """The lengths of the suffixes of a text w that are proper image
    prefixes, given at least the last max|img| - 1 symbols of w (or all of
    w) as ``tail``.  A suffix of length L starts at the position
    |w| + 1 - L of P_suf."""
    prefixes = phi.proper_image_prefixes
    cut = min(len(tail), phi.max_image_length - 1)
    return {i for i in range(1, cut + 1) if tail[-i:] in prefixes}
