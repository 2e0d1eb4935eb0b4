from itertools import product

import pytest
from hypothesis import strategies as st

from morphlab import Morphism, word


def binary_words(max_len, min_len=1):
    """All words over {a, b} with min_len <= length <= max_len."""
    return [
        word("".join(p))
        for n in range(min_len, max_len + 1)
        for p in product("ab", repeat=n)
    ]


@pytest.fixture(scope="session")
def small_injective_morphisms():
    """All injective morphisms {a, b} -> {a, b, c}* with image lengths 1..3."""
    images = ["".join(p) for n in (1, 2, 3) for p in product("abc", repeat=n)]
    out = []
    for ia, ib in product(images, repeat=2):
        m = Morphism.from_map({"a": ia, "b": ib})
        if m.is_injective:
            out.append(m)
    return out


@pytest.fixture(scope="session")
def small_words():
    return binary_words(6)


@st.composite
def any_morphism_and_word(draw):
    """2-4 source symbols, images of length 1..5 over {a, b, c}, injective
    or not, and a nonempty source word of length <= 8."""
    source = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet="abc", min_size=1, max_size=5)
    phi = Morphism.from_map({c: draw(image) for c in source})
    u = draw(st.text(alphabet=source, min_size=1, max_size=8))
    return phi, word(u)
