"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (run pytest
with ``-s`` or check captured output) and then asserts.  Criterion 9 checks
the prefix-occurrence equality occ(lpp(F_k), F_i) = occ(F_k, F_i) for
k >= 5 and, at k = 4, the exact relation occ(ab, F_i) = occ(aba, F_i) +
(i mod 2): ab is a suffix of odd-order Fibonacci words.  The counterexample
to plain equality at k = 4 is pinned in
``tests/test_repeats.py::TestTheoremSweeps::test_occ_lemma_constancy``.
"""

import random
import time
from itertools import accumulate, product

import pytest

from morphlab import (
    FIBONACCI,
    THUE_MORSE,
    Morphism,
    brute_force_is_interference_free,
    compute_mus,
    count_circular_factorizations,
    fibonacci_word,
    interference_free_on_every_word,
    is_interference_free_on,
    is_recognizable_on,
    mus_to_net,
    naive_net_occurrences,
    structural_checks,
    thue_morse_word,
    verify_fibonacci_mus,
    verify_net_closed_forms,
    verify_occ_lemmas,
    verify_occurrence_preservation,
    verify_tm_mus,
    word,
)
from morphlab.words import find_all

from conftest import binary_words


def report(num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="session")
def sweep(small_injective_morphisms, small_words):
    """Decision sweep shared by criteria 1, 5 and 6: the fast decision and
    the brute-force oracle over every (morphism, word) instance."""
    t0 = time.perf_counter()
    mismatches = []
    if_positive = []
    for phi in small_injective_morphisms:
        for u in small_words:
            fast = bool(is_interference_free_on(phi, u))
            if fast != brute_force_is_interference_free(phi, u):
                mismatches.append((phi.format(), u.text))
            if fast:
                if_positive.append((phi, u))
    elapsed = time.perf_counter() - t0
    total = len(small_injective_morphisms) * len(small_words)
    return {
        "mismatches": mismatches,
        "if_positive": if_positive,
        "elapsed": elapsed,
        "total": total,
    }


def test_criterion_1_oracle_equivalence(sweep):
    ok = not sweep["mismatches"] and sweep["elapsed"] < 120
    report(
        1,
        "oracle equivalence for the interference decision",
        ok,
        f"{sweep['total']} instances, {len(sweep['mismatches'])} mismatches, "
        f"{sweep['elapsed']:.1f}s",
    )


def test_criterion_2_preservation_fixtures():
    fixtures = [
        ("a->ab;b->ba", "ab", "abaab", True, 2, 2),
        ("a->ab;b->a", "ab", "abaab", False, 2, 3),
        ("a->ab;b->ba", "aa", "aabbb", False, 1, 2),
        ("a->ab;b->a", "aa", "aabbb", True, 1, 1),
    ]
    ok = True
    for spec, u, v, pre, before, after in fixtures:
        r = verify_occurrence_preservation(Morphism.parse(spec), word(u), word(v), 1)
        ok &= (r.preconditions_hold, r.count_before, r.count_after) == (pre, before, after)
    report(2, "occurrence-preservation fixtures", ok)


def test_criterion_3_parity_sweeps():
    t0 = time.perf_counter()
    ok = all(
        not is_interference_free_on(FIBONACCI, fibonacci_word(i))
        for i in range(5, 20, 2)
    )
    ok &= all(
        bool(is_interference_free_on(FIBONACCI, fibonacci_word(i)))
        for i in range(4, 21, 2)
    )
    ok &= all(
        bool(is_interference_free_on(THUE_MORSE, thue_morse_word(i)))
        for i in range(4, 17)
    )
    elapsed = time.perf_counter() - t0
    report(3, "Fibonacci parity and Thue-Morse sweeps", ok and elapsed < 10,
           f"{elapsed:.1f}s")


def test_criterion_4_strong_classification():
    # strongly IF means IF on every nonempty word; otherwise the answer is
    # the first symbol on which phi is not IF
    ok = all(
        interference_free_on_every_word(Morphism.parse(spec)) is None
        for spec in ("a->aab;b->bba", "a->abb;b->baa", "a->aba;b->abb")
    )
    fib = interference_free_on_every_word(FIBONACCI)
    tm = interference_free_on_every_word(THUE_MORSE)
    ok &= fib is not None and fib.text == "b"
    ok &= tm is not None and tm.text == "a"
    report(4, "strong interference-freeness classification", ok)


def test_criterion_5_if_implies_recognizable(sweep):
    failures = [
        (phi.format(), u.text)
        for phi, u in sweep["if_positive"]
        if not is_recognizable_on(phi, u)
    ]
    ok = not failures
    # recognizable but not interference-free
    ok &= bool(is_recognizable_on(FIBONACCI, fibonacci_word(5)))
    ok &= not is_interference_free_on(FIBONACCI, fibonacci_word(5))
    # injective but not recognizable, with the seam rotation split two ways
    ok &= THUE_MORSE.is_injective
    ok &= not is_recognizable_on(THUE_MORSE, word("aa"))
    ok &= count_circular_factorizations(THUE_MORSE, "baba") == 2
    report(5, "interference-freeness implies recognizability", ok,
           f"{len(sweep['if_positive'])} positive instances")


def test_criterion_6_occurrence_preservation(sweep):
    rng = random.Random(20260823)
    by_phi = {}
    for phi, u in sweep["if_positive"]:
        by_phi.setdefault(phi, []).append(u)
    failures = 0
    checked = 0
    for phi, us in by_phi.items():
        vs = [
            "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
            for _ in range(100)
        ]
        endo = phi.is_endomorphism
        max_k = 3 if endo else 1
        # images of v under phi^k plus prefix-length tables for the bijection,
        # from |phi^k(c)| built once per symbol c and k
        tables = []
        for k in range(1, max_k + 1):
            size = {c: len(phi.iterate(word(c), k)) for c in phi.source.symbols}
            data = []
            for v in vs:
                fv = phi.iterate(word(v), k).text
                data.append((v, fv, [0, *accumulate(map(size.__getitem__, v))]))
            tables.append(data)
        for u in us:
            iterate_ok = 1
            if endo:
                w_i = phi.apply(u)
                for _ in range(2):
                    if not is_interference_free_on(phi, w_i):
                        break
                    iterate_ok += 1
                    w_i = phi.apply(w_i)
            for k in range(1, iterate_ok + 1):
                fu = phi.iterate(u, k).text
                for v, fv, prefix in tables[k - 1]:
                    before = find_all(u.text, v)
                    after = find_all(fu, fv)
                    checked += 1
                    if [prefix[p] for p in before] != after:
                        failures += 1
    report(6, "occurrence preservation with position bijection",
           failures == 0, f"{checked} checks, {failures} failures")


def test_criterion_7_mus_closed_forms():
    t0 = time.perf_counter()
    fib = verify_fibonacci_mus(range(6, 19))
    tm = verify_tm_mus(range(5, 15))
    elapsed = time.perf_counter() - t0
    report(7, "MUS closed forms for Fibonacci and Thue-Morse",
           fib.passed and tm.passed and elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_8_net_closed_forms_and_duality():
    # compute_net_occurrences is mus_to_net over compute_mus, so the duality
    # is checked against the definition, not against that function
    duality_ok = all(
        mus_to_net(compute_mus(w), len(w)) == naive_net_occurrences(w)
        for w in binary_words(14)
        + [word("".join(p)) for n in range(1, 9) for p in product("abc", repeat=n)]
    )
    closed = verify_net_closed_forms(range(7, 19), range(5, 15))
    report(8, "net-occurrence closed forms and MUS/net duality",
           duality_ok and closed.passed)


def test_criterion_9_occurrence_constancy():
    rep = verify_occ_lemmas()
    labels = {r.label for r in rep.instances}
    assert "occ(ab, F_i) = occ(aba, F_i) + (i mod 2)" in labels
    failing = [r.label for r in rep.instances if not r.ok]
    report(9, "occurrence-constancy lemmas", rep.passed,
           f"failing: {failing}; notes: {rep.notes}")


def test_criterion_10_linear_time_scaling():
    # each order's time is the minimum of 5 runs, taken in 5 rounds over all
    # orders: a single run of a few milliseconds, or 5 in a row, is easily
    # stretched by a busy machine
    words = {i: fibonacci_word(i) for i in range(20, 26)}
    runs = {i: [] for i in words}
    for _ in range(5):
        for i, u in words.items():
            t0 = time.perf_counter()
            is_interference_free_on(FIBONACCI, u)
            runs[i].append(time.perf_counter() - t0)
    times = {i: min(r) for i, r in runs.items()}
    ratios = [times[i] / times[i - 1] for i in range(21, 26)]
    # consecutive orders alternate IF (even) and NOT-IF (odd) inputs, so
    # orders of one parity test growth alone; |F_i| / |F_(i-2)| is about
    # 2.62, so 4.2 is the geometric mean of linear (2.62) and quadratic
    # (6.85) growth over two orders
    same_parity = [times[i] / times[i - 2] for i in range(22, 26)]
    ok = (times[25] < 1.0 and all(r < 3.0 for r in ratios)
          and all(r < 4.2 for r in same_parity))
    report(10, "linear-time scaling of the interference decision", ok,
           f"t(25)={times[25]:.3f}s ratios=" + ",".join(f"{r:.2f}" for r in ratios)
           + " same-parity=" + ",".join(f"{r:.2f}" for r in same_parity))


def test_criterion_11_structural_facts():
    rep = structural_checks()
    failing = [r.label for r in rep.instances if not r.ok]
    report(11, "Fibonacci structural facts", rep.passed, "; ".join(failing))
