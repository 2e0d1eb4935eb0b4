import random
import re
import tracemalloc
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphlab import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    BudgetExceededError,
    Morphism,
    NonInjectiveMorphismError,
    Word,
    is_interference_free_on,
    is_recognizable_on,
    word,
)
from morphlab import morphisms

FIB = Morphism.parse("a->ab;b->a")
TM = Morphism.parse("a->ab;b->ba")


class TestParseFormat:
    def test_parse_basic(self):
        assert FIB.image_map == {"a": "ab", "b": "a"}
        assert FIB.source.symbols == ("a", "b")
        assert FIB.target.symbols == ("a", "b")

    def test_parse_epsilon(self):
        m = Morphism.parse("a->ab;b->.")
        assert m.image_map["b"] == ""

    def test_parse_ignores_whitespace(self):
        assert Morphism.parse(" a -> ab ; b -> a ") == FIB

    def test_roundtrip(self):
        for spec in ("a->ab;b->a", "a->abc;b->ac;c->b", "a->.;b->a"):
            assert Morphism.parse(spec).format() == spec

    def test_malformed_specs_rejected(self):
        for bad in ("", "b", "ab->a", "aa->b", "a->b;a->c"):
            with pytest.raises(ValueError):
                Morphism.parse(bad)


def binary_sweep_maps():
    """Every map {a, b} -> {a, b, c}* with image lengths 1..3: the
    candidates of the binary sweep, injective or not."""
    images = ["".join(p) for n in (1, 2, 3) for p in product("abc", repeat=n)]
    return [{"a": ia, "b": ib} for ia, ib in product(images, repeat=2)]


def random_maps(count=500, seed=29):
    """Seeded maps over 1-3 source symbols from {a, b, c}, in random order,
    with images of length 0..4 over {a, b, c}."""
    rng = random.Random(seed)
    return [
        {c: "".join(rng.choices("abc", k=rng.randint(0, 4)))
         for c in rng.sample("abc", rng.randint(1, 3))}
        for _ in range(count)
    ]


@pytest.fixture
def checks(monkeypatch):
    """The constructor checks run, as ("Alphabet", symbols) and
    ("Morphism", images)."""
    runs = []
    for cls, name in ((Alphabet, "symbols"), (Morphism, "images")):
        def counting(self, original=cls.__post_init__, name=name):
            runs.append((type(self).__name__, getattr(self, name)))
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return runs


class TestCheckedAtTheBoundary:
    """``Alphabet(symbols)`` and ``Morphism(source, target, images)`` check
    their input; ``from_map`` and ``parse`` check the caller's source
    symbols once and build the derived target and the morphism trusted."""

    @pytest.mark.parametrize("maps", [binary_sweep_maps, random_maps])
    def test_trusted_matches_checked(self, maps):
        for m in maps():
            chars = tuple(sorted(set("".join(m.values()))))
            source = Alphabet(tuple(m))
            checked = Morphism(source, Alphabet(chars) if chars else source, tuple(m.items()))
            trusted = Morphism.from_map(m)
            assert trusted == checked and hash(trusted) == hash(checked), m
            assert trusted.source == checked.source, m
            assert trusted.target == checked.target, m
            assert trusted.target._symbol_set == checked.target._symbol_set, m
            assert trusted.image_map == checked.image_map == m, m

    def test_from_map_and_parse_check_the_source_once(self, checks):
        for build in (
            lambda: Morphism.from_map({"b": "ac", "a": ""}),
            lambda: Morphism.parse("b->ac;a->."),
        ):
            phi = build()
            assert checks == [("Alphabet", ("b", "a"))]
            assert phi.target.symbols == ("a", "c")
            checks.clear()

    def test_constructors_still_check(self, checks):
        Morphism(Alphabet(("a", "b")), BINARY, (("a", "ab"), ("b", "")))
        assert checks == [
            ("Alphabet", ("a", "b")),
            ("Morphism", (("a", "ab"), ("b", ""))),
        ]

    @pytest.mark.parametrize("build, message", [
        (lambda: Alphabet(()), "alphabet must contain at least one symbol"),
        (lambda: Alphabet(("ab",)), "alphabet symbols must be single characters, got 'ab'"),
        (lambda: Alphabet((1,)), "alphabet symbols must be single characters, got 1"),
        (lambda: Alphabet(("a", "a")), "alphabet symbols must be distinct: ('a', 'a')"),
        (lambda: Word("abc", BINARY), "symbols ['c'] not in alphabet ('a', 'b')"),
        (lambda: Morphism(BINARY, BINARY, (("a", "ab"),)),
         "images must be given for exactly the source symbols ('a', 'b')"),
        (lambda: Morphism(BINARY, BINARY, (("b", "a"), ("a", "b"))),
         "images must be given for exactly the source symbols ('a', 'b')"),
        (lambda: Morphism(BINARY, BINARY, (("a", "ab"), ("b", "c"))),
         "image of 'b' uses symbols outside the target alphabet"),
        (lambda: Morphism.from_map({"ab": "a"}),
         "alphabet symbols must be single characters, got 'ab'"),
        (lambda: Morphism.from_map({1: "a"}), "alphabet symbols must be single characters, got 1"),
        (lambda: Morphism.from_map({}), "alphabet must contain at least one symbol"),
    ])
    def test_checks_keep_their_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_names_the_tracer_wraps_exist(self):
        # perfbench/tracing.py wraps is_injective by its type and counts
        # word checks on Word.__post_init__; it skips a missing name silently
        assert isinstance(vars(Morphism)["is_injective"], cached_property)
        assert callable(vars(Word).get("__post_init__"))


class TestApplication:
    def test_apply(self):
        assert FIB.apply(word("abaab")).text == "abaababa"
        assert TM.apply(word("ab")).text == "abba"

    def test_apply_rejects_foreign_symbols(self):
        with pytest.raises(AlphabetMismatchError):
            FIB.apply_text("abc")

    def test_iterate(self):
        assert FIB.iterate(word("b"), 0).text == "b"
        assert FIB.iterate(word("b"), 5).text == "abaababa"
        with pytest.raises(ValueError):
            FIB.iterate(word("a"), -1)

    def test_iterate_requires_endomorphism(self):
        m = Morphism.parse("a->bc;b->c")
        with pytest.raises(ValueError):
            m.iterate(word("a"), 2)


class TestIterationBudget:
    """phi^k(u) is refused, before it is built, above LENGTH_BUDGET symbols."""

    def test_budget_is_eight_tm_22(self):
        assert morphisms.LENGTH_BUDGET == 2**24 == 8 * 2**21

    @pytest.mark.parametrize("k", [40, 60, 10**6])
    def test_fibonacci_refused_before_it_is_built(self, k):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"phi\\^{k}\\(u\\) would hold more than"):
                FIB.iterate(word("a"), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_exact_length_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 64)
        doubling = Morphism.parse("a->aa")
        assert len(doubling.iterate(word("a"), 6)) == 64
        assert len(doubling.iterate(word("aa"), 5)) == 64
        with pytest.raises(BudgetExceededError):
            doubling.iterate(word("a"), 7)
        with pytest.raises(BudgetExceededError):
            doubling.iterate(word("a" * 65), 1)

    def test_lengths_computed_past_a_loose_bound(self, monkeypatch):
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 64)
        # |u| max|img|^k is far above 64, the exact lengths are not
        fixed = Morphism.parse("a->a;b->bbbb")
        assert fixed.iterate(word("a" * 60), 40).text == "a" * 60
        # lengths 60 and 30 in turn: a table that never settles
        assert len(Morphism.parse("a->bc;b->.;c->a").iterate(word("a" * 30), 10**4)) == 30
        # a morphism that is no endomorphism is iterated once
        once = Morphism.parse("a->bcbc;b->c")
        assert len(once.iterate(word("b" * 30 + "a" * 8), 1)) == 62
        with pytest.raises(BudgetExceededError):
            once.iterate(word("b" * 30 + "a" * 9), 1)

    def test_apply_and_recognizability_at_the_budget(self, monkeypatch):
        # both build phi(u) whole: an image of exactly the budget is built,
        # and one more symbol is refused before anything is built
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 64)
        at, over = word("a" * 32), word("a" * 32 + "b")
        assert FIB.apply(at).text == "ab" * 32
        assert is_recognizable_on(FIB, at)

        def refused(self, text):
            raise AssertionError("phi(u) was built")

        monkeypatch.setattr(Morphism, "apply_text", refused)
        for build in (FIB.apply, lambda u: is_recognizable_on(FIB, u)):
            with pytest.raises(BudgetExceededError, match="phi\\^1\\(u\\) would hold more than 64"):
                build(over)

    def test_unknown_symbols_still_rejected(self, monkeypatch):
        # 3 * 2^5 symbols bound phi^5(abc), which holds 13 + 8 symbols and a
        # c that has no image
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 64)
        with pytest.raises(AlphabetMismatchError):
            FIB.iterate(word("abc"), 5)


def levels_iterates(phi, u, n):
    """phi^k(u), or the exception that ``Morphism.iterate`` raises, for
    k = 0..n, from one level-by-level ``apply_text`` loop.  The checks come
    in iterate's order: endomorphism, budget (an imageless symbol counts 0),
    then the first imageless symbol of u."""
    known = "".join(c for c in u.text if c in phi.image_map)
    try:
        phi.apply_text(u.text)
        imageless = None
    except AlphabetMismatchError as exc:
        imageless = exc
    yield u.text
    text = known
    for k in range(1, n + 1):
        if k >= 2 and not phi.is_endomorphism:
            yield ValueError("iterating k >= 2 requires image symbols to map into the source")
            continue
        text = phi.apply_text(text)
        if len(text) > morphisms.LENGTH_BUDGET:
            yield BudgetExceededError(
                f"phi^{k}(u) would hold more than {morphisms.LENGTH_BUDGET} symbols, the budget"
            )
        else:
            yield imageless or text


CHAIN = "abcdefghijklmnopqrstuvwx"


def traced_peak(call):
    """``call()`` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def all_images(symbols, longest=3):
    return ["".join(p) for n in range(longest + 1) for p in product(symbols, repeat=n)]


def all_words(symbols, longest=5):
    return [word("".join(p)) for n in range(longest + 1) for p in product(symbols, repeat=n)]


class TestIterateAgainstLevels:
    """``iterate`` builds phi^k(u) from per-symbol tables; it must give the
    text, alphabet and exception of a level-by-level ``apply_text`` loop, on
    erasing images, unreachable symbols and imageless symbols of u alike."""

    @staticmethod
    def check(morphisms_, words, n=8):
        for phi in morphisms_:
            for u in words:
                for k, want in enumerate(levels_iterates(phi, u, n)):
                    case = (phi.format(), u.text, k)
                    if isinstance(want, Exception):
                        with pytest.raises(type(want)) as got:
                            phi.iterate(u, k)
                        assert str(got.value) == str(want), case
                        continue
                    w = phi.iterate(u, k)
                    assert w.text == want, case
                    assert w.alphabet == (u.alphabet if k == 0 else phi.target), case

    def test_one_symbol_source(self):
        # images over {a, b}: b has no image, and k >= 2 needs an endomorphism
        self.check(
            [Morphism(Alphabet(("a",)), Alphabet(("a", "b")), (("a", img),))
             for img in all_images("ab")],
            all_words("ab"),
        )

    def test_two_symbol_source(self):
        images = all_images("ab")
        self.check(
            [Morphism.from_map({"a": ia, "b": ib}) for ia, ib in product(images, repeat=2)],
            all_words("ab") + [word(t) for t in ("c", "ac", "bca", "abcab", "cbaab")],
        )

    def test_two_symbol_source_at_a_small_budget(self, monkeypatch):
        # the budget is checked before the first imageless symbol of u
        monkeypatch.setattr(morphisms, "LENGTH_BUDGET", 40)
        images = all_images("ab")
        self.check(
            [Morphism.from_map({"a": ia, "b": ib}) for ia, ib in product(images, repeat=2)],
            all_words("ab", 3) + [word(t) for t in ("c", "bca", "abbcab", "cbbbab")],
        )

    def test_three_symbol_source(self):
        # a seeded sample of the 40^3 morphisms, each on every word of length 0-5
        images = all_images("abc")
        rng = random.Random(23)
        self.check(
            [Morphism.from_map(dict(zip("abc", rng.choices(images, k=3)))) for _ in range(20)]
            + [Morphism.parse("a->ab;b->.;c->cc"), Morphism.parse("a->.;b->.;c->.")],
            all_words("abc"),
        )

    @pytest.mark.parametrize("spec, u, k, want", [
        # phi^23(a) is x repeated 2^23 times and phi^24(a) is empty: every
        # table entry is a factor of the result, so no level is built
        (";".join(f"{c}->{d}{d}" for c, d in zip(CHAIN, CHAIN[1:])) + ";x->.", "a", 24, ""),
        # |phi^40(b)| = 2^40, but u = a never reaches b
        ("a->a;b->bb", "a", 40, "a"),
        # S_i alternates {a} and {b, c}: 30,000 levels store two symbol sets
        ("a->bc;b->a;c->.", "aa", 30_000, "aa"),
    ])
    def test_peak_under_100_kb(self, spec, u, k, want):
        phi, u = Morphism.parse(spec), word(u)
        w, peak = traced_peak(lambda: phi.iterate(u, k))
        assert w.text == want
        assert peak < 100_000, peak

    def test_thue_morse_peak(self):
        # 2 MiB of output, joined from its two 1 MiB halves
        w, peak = traced_peak(lambda: TM.iterate(word("a"), 21))
        assert len(w) == 2**21
        assert peak < 4.5 * 2**20, peak


class TestPredicates:
    def test_proper_prefixes_and_suffixes(self):
        assert FIB.proper_image_prefixes == {"a"}
        assert FIB.proper_image_suffixes == {"b"}
        m = Morphism.parse("a->abc;b->ac;c->b")
        assert m.proper_image_prefixes == {"a", "ab"}
        assert m.proper_image_suffixes == {"c", "bc"}

    def test_affix_sets_refused_above_the_budget(self, monkeypatch):
        # the sets of "abc" hold 1 + 2 characters each, those of "abcd" 6
        monkeypatch.setattr(morphisms, "AFFIX_BUDGET", 3)
        assert Morphism.parse("a->abc;b->b").proper_image_prefixes == {"a", "ab"}
        m = Morphism.parse("a->abcd;b->b")
        for name in ("proper_image_prefixes", "proper_image_suffixes"):
            with pytest.raises(BudgetExceededError, match="6 characters"):
                getattr(m, name)

    def test_long_image_refused_before_its_affixes_are_built(self):
        # one image of 10^5 symbols: its affix sets would hold about 5 * 10^9
        # characters each, so the decision raises before building either
        m = Morphism.from_map({"a": "ab" * 50_000, "b": "b"})
        u = word("ab")
        tracemalloc.start()
        try:
            for name in ("proper_image_prefixes", "proper_image_suffixes"):
                with pytest.raises(BudgetExceededError):
                    getattr(m, name)
            with pytest.raises(BudgetExceededError):
                is_interference_free_on(m, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert "proper_image_prefixes" not in vars(m)
        assert "proper_image_suffixes" not in vars(m)

    def test_image_set_totals(self):
        m = Morphism.parse("a->ab;b->ab")
        assert m.image_texts == ("ab",)


class TestInjectivity:
    def test_classic_morphisms_injective(self):
        for spec in ("a->ab;b->a", "a->ab;b->ba", "a->abc;b->ac;c->b",
                     "a->aab;b->bba", "a->abb;b->baa", "a->aba;b->abb"):
            assert Morphism.parse(spec).is_injective

    def test_duplicate_images_not_injective(self):
        m = Morphism.parse("a->ab;b->ab")
        assert not m.is_injective
        u, v = m.injectivity_witness
        assert u.text != v.text
        assert m.apply(u) == m.apply(v)

    def test_prefix_code_counterexample(self):
        # ab . a = a . ba
        m = Morphism.parse("a->ab;b->a;c->ba")
        assert not m.is_injective
        u, v = m.injectivity_witness
        assert m.apply_text(u.text) == m.apply_text(v.text)
        assert sorted((u.text, v.text)) == ["ab", "bc"]

    def test_erasing_image_not_injective(self):
        assert not Morphism.parse("a->.;b->a").is_injective

    def test_injective_morphisms_have_no_empty_image(self):
        # every morphism of a 1-3-symbol source with images of length 0-3
        # over {a, b} that erases a symbol has a witness pair, so the
        # decisions, which require injectivity, need no erasing check
        images = ["".join(p) for n in range(4) for p in product("ab", repeat=n)]
        erasing = [
            Morphism.from_map(dict(zip("abc", chosen)))
            for size in (1, 2, 3)
            for chosen in product(images, repeat=size)
            if not all(chosen)
        ]
        assert len(erasing) == 1 + 29 + 631
        for m in erasing:
            u, v = m.injectivity_witness
            assert u != v and m.apply(u) == m.apply(v), m.format()
            with pytest.raises(NonInjectiveMorphismError):
                is_interference_free_on(m, Word(m.source.symbols[0], m.source))

    def test_witness_is_canonical_shortest(self):
        m = Morphism.parse("a->aa;b->aaa")
        u, v = m.injectivity_witness
        # aa.aaa = aaa.aa is the shortest collision
        assert sorted((u.text, v.text)) == ["ab", "ba"]

    def test_injectivity_agrees_with_brute_force(self):
        images = ["".join(p) for n in (0, 1, 2) for p in product("ab", repeat=n)]
        maps = [{"a": ia} for ia in images]
        maps += [{"a": ia, "b": ib} for ia, ib in product(images, repeat=2)]
        for images_of in maps:
            m = Morphism.from_map(images_of)
            source = "".join(images_of)
            words = [
                "".join(p) for n in range(1, 5) for p in product(source, repeat=n)
            ]
            collide = any(
                m.apply_text(u) == m.apply_text(v)
                for u in words
                for v in words
                if u != v
            )
            assert m.is_injective == (not collide), m.format()
            if collide:
                u, v = m.injectivity_witness
                assert u != v and m.apply(u) == m.apply(v), m.format()

    @pytest.mark.parametrize("spec, pair", [
        ("a->.", ("a", "aa")),
        ("a->.;b->.", ("a", "b")),
        # (a, aa) is as short, but the search pairs different first symbols
        ("a->.;b->b", ("ab", "b")),
    ])
    def test_witnesses_with_erased_images(self, spec, pair):
        u, v = Morphism.parse(spec).injectivity_witness
        assert (u.text, v.text) == pair


@given(st.text(alphabet="ab", min_size=1, max_size=12))
def test_morphism_is_homomorphism(text):
    cut = len(text) // 2
    u, v = word(text[:cut]), word(text[cut:])
    assert FIB.apply(u) + FIB.apply(v) == FIB.apply(u + v)
