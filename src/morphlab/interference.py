"""Deciding interference-freeness of a morphism on a word.

An injective morphism phi interferes on u when phi(u) either

* admits an interfered image factorization x . y . z -- x a proper suffix of
  some image, y a concatenation of images, z a proper prefix of some image,
  with x . z nonempty -- or
* sits strictly inside a single image (touching neither end).

One scan of w = phi(u) (see :func:`aho_corasick.scan`) yields the image
match stream, in order of increasing start, and the boundary sets P_pref
and P_suf.  A forward dynamic program over that match stream then answers
both factorization cases.  The DP table C is indexed 0..n with C[j] = 1 iff
the prefix w[1..j] splits as x . y; seeds place the possible ends of x and
matches of images propagate forward.  Instead of bits we propagate the
minimal seed value that reaches each position, and backtrack stored
predecessors to a witness.

* Pass 1 finds witnesses with z nonempty: it seeds C[0] (x empty) and every
  i in P_pref with value |x|, and accepts at j in P_suf when C[j-1] holds.
  Its witness has the smallest |x|, then the leftmost acceptance.
* Only when pass 1 fails does the z-empty case remain: x nonempty and
  C[n] = 1.  The same DP over the same match stream answers it, seeded only
  from P_pref with value -|x|, so the longest x is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aho_corasick import ScanResult, scan
from .errors import NonInjectiveMorphismError
from .morphisms import Morphism
from .words import Word

_INF = 1 << 60

INTERFERED_FACTORIZATION = "interfered_factorization"
INNER_IMAGE_FACTOR = "inner_image_factor"


@dataclass(frozen=True)
class InterferenceWitness:
    """Evidence that phi is not interference-free on a word.

    For the factorization kind, ``x + phi(y_symbols) + z`` reassembles the
    image of the word; ``donor_x`` / ``donor_z`` name source symbols whose
    images contribute x and z.  For the inner kind, the image of the word
    occurs inside ``phi(host)`` starting at 1-based ``offset >= 2`` and
    ending strictly before the image's last position.
    """

    kind: str
    x: str = ""
    y_symbols: tuple[str, ...] = ()
    z: str = ""
    donor_x: str | None = None
    donor_z: str | None = None
    host: str | None = None
    offset: int | None = None

    def describe(self) -> str:
        if self.kind == INNER_IMAGE_FACTOR:
            return f"inner host={self.host} offset={self.offset}"
        y = "".join(self.y_symbols)
        return f"x={self.x or '.'} y={y or '.'} z={self.z or '.'}"


@dataclass(frozen=True)
class FactorizableTable:
    """Reachability table C[0..n]: C[j] = 1 iff w[1..j] = x . y."""

    bits: tuple[int, ...]


@dataclass(frozen=True)
class FactorizableResult:
    admits: bool
    x: str = ""
    y_symbols: tuple[str, ...] = ()
    z: str = ""
    table: FactorizableTable | None = None

    def __bool__(self) -> bool:
        return self.admits


@dataclass(frozen=True)
class InnerFactorResult:
    found: bool
    host: str | None = None
    offset: int | None = None  # 1-based start inside the host image

    def __bool__(self) -> bool:
        return self.found


@dataclass(frozen=True)
class InterferenceDecision:
    interference_free: bool
    witness: InterferenceWitness | None = None
    injectivity_overridden: bool = False

    def __bool__(self) -> bool:
        return self.interference_free


@dataclass(frozen=True)
class StrongInterferenceDecision:
    interference_free: bool
    failing_symbol: str | None = None
    witness: InterferenceWitness | None = None

    def __bool__(self) -> bool:
        return self.interference_free


def _require_injective(phi: Morphism, allow_non_injective: bool) -> bool:
    """Returns True when the injectivity precondition was overridden."""
    if phi.is_injective:
        return False
    if not allow_non_injective:
        raise NonInjectiveMorphismError(
            "interference-freeness is defined for injective morphisms only",
            witness=phi.injectivity_witness,
        )
    return True


def _forward_dp(n, matches, seeds, accepts):
    """Forward DP over the start-sorted match stream.

    Every match ending at p comes before any match starting at p, so C[p]
    is final when the matches from p are read.

    ``seeds`` maps a table index to the seed value it encodes; ``accepts`` are
    candidate 1-based positions j (acceptance needs table index j-1 set).
    Returns (the accepting j minimizing (value, j) or None, minseed, parent).
    """
    minseed = [_INF] * (n + 1)
    parent: list[tuple[int, str] | None] = [None] * (n + 1)
    for idx, value in seeds.items():
        minseed[idx] = value
    for p, length, sym in matches:
        v = minseed[p]
        if v < minseed[p + length]:
            minseed[p + length] = v
            parent[p + length] = (p, sym)
    best = None
    for j in sorted(accepts):
        v = minseed[j - 1]
        if v < _INF and (best is None or v < best[0]):
            best = (v, j)
    return (None if best is None else best[1]), minseed, parent


def _backtrack(text, j, parent):
    """Recover (x, y symbol sequence, z) for the acceptance at j."""
    pos = j - 1
    syms: list[str] = []
    while parent[pos] is not None:
        pos, sym = parent[pos]
        syms.append(sym)
    syms.reverse()
    return text[:pos], tuple(syms), text[j - 1:]


def _pass1(text: str, artifacts: ScanResult):
    """Witnesses with z nonempty: x empty or in P_pref, acceptance in P_suf."""
    seeds = {i: i for i in artifacts.p_pref}
    seeds[0] = 0
    return _forward_dp(len(text), artifacts.matches, seeds, artifacts.p_suf)


def affix_donor(phi: Morphism, part: str, *, suffix: bool) -> str | None:
    """The smallest source symbol whose image has ``part`` as a proper
    suffix (or prefix); None for an empty part."""
    if not part:
        return None
    fits = str.endswith if suffix else str.startswith
    return min(c for c, img in phi.images if len(img) > len(part) and fits(img, part))


def factorizable(phi: Morphism, w: Word | str) -> FactorizableResult:
    """True iff w = x . y . z with x a possibly-empty proper image suffix,
    y a concatenation of images and z a NONEMPTY proper image prefix."""
    text = str(w)
    if not text:
        raise ValueError("factorizable is defined for nonempty words")
    j, minseed, parent = _pass1(text, scan(phi, text))
    table = FactorizableTable(tuple(1 if v < _INF else 0 for v in minseed))
    if j is None:
        return FactorizableResult(False, table=table)
    x, y_symbols, z = _backtrack(text, j, parent)
    return FactorizableResult(True, x=x, y_symbols=y_symbols, z=z, table=table)


def _factorization_witness(phi: Morphism, text: str) -> InterferenceWitness | None:
    n = len(text)
    artifacts = scan(phi, text)
    j, _, parent = _pass1(text, artifacts)
    if j is None and artifacts.p_pref:
        # z empty: x nonempty and phi(u) = x . y; -|x| prefers the longest x
        seeds = {i: -i for i in artifacts.p_pref}
        j, _, parent = _forward_dp(n, artifacts.matches, seeds, (n + 1,))
    if j is None:
        return None
    x, y_symbols, z = _backtrack(text, j, parent)
    return InterferenceWitness(
        INTERFERED_FACTORIZATION,
        x=x,
        y_symbols=y_symbols,
        z=z,
        donor_x=affix_donor(phi, x, suffix=True),
        donor_z=affix_donor(phi, z, suffix=False),
    )


def is_inner_image_factor(phi: Morphism, w: Word | str) -> InnerFactorResult:
    """True iff w occurs strictly inside some image, touching neither end."""
    text = str(w)
    if not text:
        raise ValueError("inner-factor check is defined for nonempty words")
    for c, img in phi.images:
        limit = len(img) - len(text) - 1  # last admissible 0-based start
        start = img.find(text, 1)
        if 0 < start <= limit:
            return InnerFactorResult(True, host=c, offset=start + 1)
    return InnerFactorResult(False)


def is_interference_free_on(
    phi: Morphism, u: Word, *, allow_non_injective: bool = False
) -> InterferenceDecision:
    """Decide interference-freeness of phi on the single word u."""
    overridden = _require_injective(phi, allow_non_injective)
    if len(u) == 0:
        raise ValueError("interference-freeness is defined for nonempty words")
    text = phi.apply_text(u.text)
    witness = _factorization_witness(phi, text)
    if witness is not None:
        return InterferenceDecision(False, witness, overridden)

    inner = is_inner_image_factor(phi, text)
    if inner:
        witness = InterferenceWitness(
            INNER_IMAGE_FACTOR, host=inner.host, offset=inner.offset
        )
        return InterferenceDecision(False, witness, overridden)
    return InterferenceDecision(True, None, overridden)


def is_interference_free_on_language(
    phi: Morphism, words: list[Word], *, allow_non_injective: bool = False
) -> dict[str, InterferenceDecision]:
    """Convenience loop over a finite language; keyed by word text."""
    return {
        u.text: is_interference_free_on(phi, u, allow_non_injective=allow_non_injective)
        for u in words
    }


def is_strongly_interference_free(phi: Morphism) -> StrongInterferenceDecision:
    """phi is strongly interference-free iff it is interference-free on every
    single source symbol."""
    _require_injective(phi, False)
    for c in phi.source.symbols:
        decision = is_interference_free_on(phi, Word(c, phi.source))
        if not decision:
            return StrongInterferenceDecision(False, c, decision.witness)
    return StrongInterferenceDecision(True)


def barrier_certificate(
    phi: Morphism, u: Word, *, max_length: int = 8
) -> tuple[Word, Word] | None:
    """Search for a prefix/suffix pair of u, each interference-free on its
    own, certifying interference-freeness of u without the full decision.

    Shortest candidates are tried first, capped at ``max_length``.  A result
    is a sufficient certificate; None is inconclusive, not negative.
    """
    _require_injective(phi, False)
    n = len(u)
    if n == 0:
        raise ValueError("barrier certificate is defined for nonempty words")

    def first_if(candidates):
        for cand in candidates:
            if is_interference_free_on(phi, cand):
                return cand
        return None

    cap = min(max_length, n)
    b_l = first_if(u[:k] for k in range(1, cap + 1))
    b_r = first_if(u[n - k:] for k in range(1, cap + 1))
    if b_l is not None and b_r is not None and len(b_l) + len(b_r) <= n:
        return b_l, b_r
    if n <= max_length and is_interference_free_on(phi, u):
        return u, u  # degenerate: u certifies itself
    return None
