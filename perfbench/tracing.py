"""Per-layer tracing of the library from outside it.

While a :class:`Tracer` is installed, it replaces the library's public
functions and methods listed in :data:`TARGETS` with wrappers and puts the
originals back on :meth:`Tracer.uninstall`; the library's sources are never
edited.  Each wrapped call records one span (name, start, end, parent span,
op id) in flat arrays that stay in memory until the run writes them out.
Counters ride on the same wrappers.  A span's self time is its duration
minus the durations of its direct children; calls nest, so the children
never overlap.

Entry points missing from the library are skipped, so the benchmark keeps
running when a layer is removed; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path
from time import perf_counter

#: Op ids of spans outside the workload's ops.
SETUP_OP = -1
PROBE_OP = -2
#: Phases, as ``min(op id, 0)``: set-up, probe, or one of the timed passes.
SETUP, PROBE, PASS = SETUP_OP, PROBE_OP, 0


def _count_matches(tracer, args, result):
    tracer.count("aho_corasick.matches.symbols", len(args[1]))
    tracer.count("aho_corasick.matches.occ", len(result[0]))


def _count_boundary(tracer, args, result):
    # the forward matcher yields P_suf; the matcher over reversed images P_pref
    side = "p_suf" if args[0] in tracer.forward_matchers else "p_pref"
    tracer.count(f"aho_corasick.{side}.size", len(result))


def _note_forward(tracer, args, result):
    tracer.forward_matchers.add(result)


def _count_outcome(tracer, args, result):
    if result.interference_free:
        outcome = "if"
    elif result.witness.host is not None:
        outcome = "inner_witness"
    elif result.witness.z:
        outcome = "pass1_witness"  # pass 1 finds every witness with z nonempty
    else:
        outcome = "pass2_witness"
    tracer.count(f"interference.outcome.{outcome}")


def _count_symbols(tracer, args, result):
    tracer.count("morphisms.apply_text.symbols", len(result))


#: (span name, module, class or None, attribute, counter hook)
TARGETS = (
    ("aho_corasick.matches", "aho_corasick", "DictionaryMatcher", "matches", _count_matches),
    ("aho_corasick.boundary_positions", "aho_corasick", "DictionaryMatcher", "boundary_positions",
     _count_boundary),
    ("aho_corasick.matcher_build", "aho_corasick", "DictionaryMatcher", "__init__", None),
    ("aho_corasick.matcher_for", "aho_corasick", None, "matcher_for", _note_forward),
    ("interference.decide", "interference", None, "is_interference_free_on", _count_outcome),
    ("interference.inner_factor", "interference", None, "is_inner_image_factor", None),
    ("morphisms.apply_text", "morphisms", "Morphism", "apply_text", _count_symbols),
    ("morphisms.iterate", "morphisms", "Morphism", "iterate", None),
    ("morphisms.is_injective", "morphisms", "Morphism", "is_injective", None),
    ("enumeration.recognizable", "enumeration", None, "is_recognizable_on", None),
    ("enumeration.count_circular", "enumeration", None, "count_circular_factorizations", None),
    ("words.occurrences", "words", None, "occurrences", None),
    ("repeats.suffix_array", "repeats", None, "suffix_array", None),
    ("repeats.lcp_array", "repeats", None, "lcp_array", None),
    ("repeats.shortest_unique_lengths", "repeats", None, "shortest_unique_lengths", None),
    ("repeats.compute_mus", "repeats", None, "compute_mus", None),
    ("repeats.compute_net_occurrences", "repeats", None, "compute_net_occurrences", None),
    ("repeats.verify_occurrence_preservation", "repeats", None, "verify_occurrence_preservation",
     None),
    ("classic.generate", "classic", None, "fibonacci_word", None),
    ("classic.generate", "classic", None, "thue_morse_word", None),
    ("cli.main", "cli", None, "main", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.forward_matchers: weakref.WeakSet = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[min(self.op_id, 0)][key] += amount

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for span, module_name, class_name, attr, hook in TARGETS:
            try:
                module = importlib.import_module(f"morphlab.{module_name}")
            except ImportError:
                continue
            if class_name is None:
                original = vars(module).get(attr)
                if callable(original):
                    self._replace_everywhere(original, self._wrap(span, original, hook))
                continue
            owner = vars(module).get(class_name)
            original = vars(owner).get(attr) if owner is not None else None
            if isinstance(original, cached_property):
                wrapped = cached_property(self._wrap(span, original.func, hook))
                wrapped.__set_name__(owner, attr)
            elif callable(original):
                wrapped = self._wrap(span, original, hook)
            else:
                continue
            self._patch(owner, attr, wrapped)
        word = getattr(importlib.import_module("morphlab.words"), "Word", None)
        post_init = vars(word).get("__post_init__") if word is not None else None
        if post_init is not None:
            counting = self._counting(post_init, "words.word_constructions")
            self._patch(word, "__post_init__", counting)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped) -> None:
        """Rebind every library module attribute that names ``original``, so
        that calls through imported aliases are traced too."""
        for name, module in list(sys.modules.items()):
            if name == "morphlab" or name.startswith("morphlab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _counting(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, span, fn, hook):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        tracer = self
        names, parents, ops, starts, ends, stack = (
            self.span_name, self.parent, self.op, self.start, self.end, self._stack,
        )

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except Exception:  # a counter must never break the traced call
                    tracer.count("trace.hook_errors")
            return result

        return wrapper

    # -- reading the spans ----------------------------------------------------

    def totals(self) -> dict[tuple[int, str], list]:
        """[calls, seconds, self seconds] per (phase, span name)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            duration = self.end[i] - self.start[i]
            row = out[min(self.op[i], 0), self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return out

    def calls_under(self, phase: int, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        names, spans = self.names, self.span_name
        return sum(
            1
            for i in range(len(spans))
            if min(self.op[i], 0) == phase
            and names[spans[i]] == child
            and self.parent[i] >= 0
            and names[spans[self.parent[i]]] == parent
        )

    def ops_calling(self, phase: int, span_names) -> int:
        """Distinct op ids with at least one span among ``span_names``."""
        wanted = {self._name_ids[s] for s in span_names if s in self._name_ids}
        return len({self.op[i] for i in range(len(self.span_name))
                    if self.span_name[i] in wanted and min(self.op[i], 0) == phase})

    def write(self, path: Path, ops: range) -> None:
        """Spans of the set-up, the probes and the ops in ``ops`` as
        tab-separated lines, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                if self.op[i] >= 0 and self.op[i] not in ops:
                    continue
                f.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t{self.op[i]}"
                        f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
