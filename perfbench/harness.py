"""Measurement: set-ups, timed passes, traced passes and probes.

A pass runs every op of a workload once.  End-to-end metrics come from a run
with tracing off; per-layer metrics from a separate traced run, which
alternates untraced and traced passes so that their ratio gives the tracing
overhead, and checks that both produce the same results.
"""

from __future__ import annotations

import gc
import io
import math
import resource
import statistics
import tracemalloc
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import morphlab as ml

from .tracing import PASS, PROBE, PROBE_OP, SETUP, Tracer
from .workloads import clear_library_caches, count_upto

#: Enough latency samples that at least ten lie beyond the 90th percentile.
MIN_SAMPLES = 110
#: Latency samples the untraced run has room for before it must grow the buffer.
LATENCY_CAPACITY = 400_000
#: Set-ups per untraced run, ``setup_s`` being their median: at least
#: SETUP_MIN_REPEATS, and more, up to SETUP_MAX_REPEATS, until the measured
#: set-up time reaches SETUP_SHARE of the run's seconds, so that short
#: set-ups span several of the machine's slow and fast phases.
SETUP_MIN_REPEATS = 21
SETUP_MAX_REPEATS = 100
SETUP_SHARE = 0.06
#: Ops run back to back for about this many seconds between two calibrations.
CHUNK_S = 0.2
#: Iterations of the calibration loop, and the seconds it takes on the
#: reference interpreter: Python 3.11 on a 2-core KVM guest (Intel Xeon).
CALIBRATION_LOOPS = 10_000
REFERENCE_S = 0.002
#: Where the traced run writes its spans and the CLI probe its input files.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Probe sizes per scale: Fibonacci orders (and timings per order) for the
#: growth exponent, orders for the suffix-array memory growth and for the CLI
#: calls.
PROBES = {
    "full": {"growth": range(22, 27), "growth_reps": 3, "memory": (20, 22), "cli": 18},
    "tiny": {"growth": range(10, 15), "growth_reps": 1, "memory": (10, 12), "cli": 10},
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def error_rate_note(self) -> str:
        return (f"error_rate {self.failed / self.attempted} "
                f"({self.failed} failed of {self.attempted} attempted)")


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    notes: list[str]


class Clock:
    """Scales measured intervals to the reference interpreter speed.

    The speed of a shared machine drifts by a quarter within seconds, as
    other tenants load it.  A fixed loop of plain Python that touches no
    library code is timed before and after each measured interval; the
    interval is multiplied by ``REFERENCE_S`` over the mean of the two loop
    times.  The
    library's own cost is unchanged by this, but most of the machine's drift
    cancels, so runs at different times stay comparable.
    """

    def __init__(self):
        self.last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        """Median seconds of three runs of the calibration loop: integer
        arithmetic, then tuple, dict, list and str churn and a sort."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            s = 0
            for i in range(CALIBRATION_LOOPS):
                s += i * i % 7
            table: dict[int, tuple[int, int]] = {}
            items = []
            for i in range(CALIBRATION_LOOPS // 5):
                item = (i, i & 7)
                table[i & 511] = item
                items.append(item)
                str(i)
            items.sort(key=lambda t: -t[0])
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def mark(self) -> None:
        """Calibrate now, as the start of the next interval."""
        self.last = self._calibrate()

    def scale(self) -> float:
        """Calibrate now; the factor for the interval since the last calibration."""
        now = self._calibrate()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setups(wl, clock: Clock, min_seconds: float):
    """Median scaled seconds of set-ups from cleared caches, their number,
    and the inputs of the last one."""
    times: list[float] = []
    ops = None
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < min_seconds and len(times) < SETUP_MAX_REPEATS
    ):
        ops = None
        clear_library_caches()
        gc.collect()
        clock.mark()
        t0 = perf_counter()
        ops = wl.setup()
        elapsed = perf_counter() - t0
        times.append(elapsed * clock.scale())
    return statistics.median(times), len(times), ops


def run_pass(
    wl, ops, expected, tally, clock, *, reference=None, keep=None, tracer=None
) -> list[float]:
    """Run and check every op once; each op's scaled seconds.  With
    ``reference``, each result must also equal the reference result of the
    same op."""
    latencies: list[float] = []
    chunk: list[float] = []
    clock.mark()
    chunk_start = perf_counter()
    for k, op in enumerate(ops):
        if perf_counter() - chunk_start >= CHUNK_S:
            factor = clock.scale()
            latencies.extend(x * factor for x in chunk)
            chunk = []
            chunk_start = perf_counter()
        tally.attempted += 1
        if tracer is not None:
            tracer.op_id = tally.attempted
        t0 = perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a raised exception is a failed op
            chunk.append(perf_counter() - t0)
            tally.fail(wl.label(op), f"raised {exc!r}")
            continue
        chunk.append(perf_counter() - t0)
        error = wl.check(op, result, expected[k])
        if error is None and reference is not None and result != reference[k]:
            error = "result differs between the traced and the untraced pass"
        if error is not None:
            tally.fail(wl.label(op), error)
        if keep is not None:
            keep.append(result)
    factor = clock.scale()
    latencies.extend(x * factor for x in chunk)
    return latencies


def measure(wl, seconds: float) -> Report:
    """End-to-end metrics with tracing off."""
    clock = Clock()
    setup_s, setups, ops = timed_setups(wl, clock, SETUP_SHARE * seconds)
    expected = wl.expect(ops)
    tally = Tally()
    run_pass(wl, ops, expected, tally, clock)  # warm-up: lazy state and caches fill
    # allocated once and untracked by the GC, so that neither peak RSS nor
    # collection time grows with the number of passes
    latencies = array("d", bytes(8 * LATENCY_CAPACITY))
    count = 0
    pass_rates = []
    start = perf_counter()
    while not pass_rates or perf_counter() - start < seconds or count < MIN_SAMPLES:
        times = run_pass(wl, ops, expected, tally, clock)
        pass_rates.append(len(times) / sum(times))
        if count + len(times) > len(latencies):
            latencies.extend(array("d", bytes(8 * LATENCY_CAPACITY)))
        latencies[count : count + len(times)] = array("d", times)
        count += len(times)
    rss_mb = peak_rss_mb()  # before the statistics below allocate
    latencies = latencies[:count]
    # the median of each op's median: where the pooled median falls between
    # the latencies of two op kinds, it would read the noisy extremes of both
    op_medians = [statistics.median(latencies[k :: len(ops)]) for k in range(len(ops))]
    p90 = statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for x in latencies if x > p90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(pass_rates), "1/s"),
        "op_p50_ms": (statistics.median(op_medians) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"setup_s is the median of {setups} set-ups",
        f"{count} op samples in {len(pass_rates)} passes of {len(ops)} ops, {beyond} beyond p90",
        "ops_per_s is the median over passes of ops per summed op time; "
        "op_p50_ms the median over ops of each op's median latency",
        tally.error_rate_note(),
    ]
    return Report(metrics, tally, notes)


def measure_traced(wl, seconds: float, scale: str, spans_path: Path) -> Report:
    """Per-layer metrics: one traced set-up, then untraced and traced passes
    in turn for ``seconds``, then the probes.  Writes spans to ``spans_path``."""
    tracer = Tracer()
    clock = Clock()
    clear_library_caches()
    tracer.install()
    try:
        ops = wl.setup()
    finally:
        tracer.uninstall()
    expected = wl.expect(ops)
    tally = Tally()
    reference: list = []
    run_pass(wl, ops, expected, tally, clock, keep=reference)
    plain: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(sum(run_pass(wl, ops, expected, tally, clock, reference=reference)))
        if not traced:
            first_traced = range(tally.attempted + 1, tally.attempted + len(ops) + 1)
        tracer.install()
        try:
            times = run_pass(wl, ops, expected, tally, clock, reference=reference, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
    del reference

    sizes = PROBES[scale]
    exponent = growth_exponent(clock, sizes["growth"], sizes["growth_reps"])
    peak_mb, mem_growth = suffix_array_memory(sizes["memory"])
    cli_probe(tracer, sizes["cli"], tally)

    metrics = layer_metrics(tracer, len(traced))
    metrics["interference.growth_exponent"] = (exponent, "exponent")
    metrics["repeats.suffix_array.peak_mb"] = (peak_mb, "MB")
    metrics["repeats.suffix_array.mem_growth"] = (mem_growth, "ratio")
    overhead = statistics.median(plain) / statistics.median(traced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write(spans_path, first_traced)
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced passes of {len(ops)} ops",
        f"{len(tracer.start)} spans; set-up, first traced pass and probes written to {spans_path}",
        tally.error_rate_note(),
    ]
    hook_errors = sum(c["trace.hook_errors"] for c in tracer.counters.values())
    if hook_errors:
        notes.append(f"{hook_errors} counter hooks failed; their counters read low")
    return Report(metrics, tally, notes)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Span and counter totals of the traced passes, per pass.  Layers that
    run in set-up add the traced set-up's totals, per set-up."""
    totals = tracer.totals()
    counters = tracer.counters[PASS]

    def per_pass(name, column):
        return totals.get((PASS, name), (0, 0.0, 0.0))[column] / passes

    def with_setup(name, column):
        return totals.get((SETUP, name), (0, 0.0, 0.0))[column] + per_pass(name, column)

    def counted(key):
        return counters[key] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    calls, self_s = 0, 2
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "aho_corasick.matches", "aho_corasick.boundary_positions", "interference.decide",
        "interference.inner_factor", "morphisms.apply_text", "morphisms.iterate",
        "enumeration.recognizable", "enumeration.count_circular", "words.occurrences",
        "repeats.suffix_array", "repeats.lcp_array", "repeats.shortest_unique_lengths",
        "repeats.compute_mus", "repeats.compute_net_occurrences",
        "repeats.verify_occurrence_preservation",
    ):
        out[f"{name}.self_s"] = (per_pass(name, self_s), "s")
    for name in ("morphisms.is_injective", "aho_corasick.matcher_build", "classic.generate"):
        out[f"{name}.self_s"] = (with_setup(name, self_s), "s")
    out["aho_corasick.matcher_build.count"] = (
        with_setup("aho_corasick.matcher_build", calls), "count",
    )
    for name in ("aho_corasick.matches", "enumeration.count_circular", "repeats.suffix_array"):
        out[f"{name}.calls"] = (per_pass(name, calls), "count")
    for key in (
        "aho_corasick.matches.symbols", "aho_corasick.matches.occ", "aho_corasick.p_pref.size",
        "aho_corasick.p_suf.size", "interference.outcome.if", "interference.outcome.pass1_witness",
        "interference.outcome.pass2_witness", "interference.outcome.inner_witness",
        "morphisms.apply_text.symbols", "words.word_constructions",
    ):
        out[key] = (counted(key), "count")
    lookups = totals.get((PASS, "aho_corasick.matcher_for"), (0,))[0]
    builds = tracer.calls_under(PASS, "aho_corasick.matcher_build", "aho_corasick.matcher_for")
    out["aho_corasick.matcher_for.hit_ratio"] = (ratio(lookups - builds, lookups), "ratio")
    out["enumeration.count_circular.calls_per_decision"] = (
        ratio(per_pass("enumeration.count_circular", calls),
              per_pass("enumeration.recognizable", calls)),
        "calls/op",
    )
    words = tracer.ops_calling(PASS, ("repeats.compute_mus", "repeats.compute_net_occurrences"))
    out["repeats.suffix_array.calls_per_word"] = (
        ratio(per_pass("repeats.suffix_array", calls) * passes, words), "calls/word",
    )
    out["cli.main.self_s"] = (totals.get((PROBE, "cli.main"), (0, 0.0, 0.0))[self_s], "s")
    return out


# -- probes --------------------------------------------------------------------

def growth_exponent(clock: Clock, orders, repeats: int) -> float:
    """Log-log slope of the Fibonacci morphism's decision time against
    |phi(F_i)|; 1 means linear time."""
    phi = ml.FIBONACCI
    xs, ys = [], []
    for i in orders:
        u = ml.fibonacci_word(i)
        times = []
        for _ in range(repeats):
            clock.mark()
            t0 = perf_counter()
            ml.is_interference_free_on(phi, u)
            elapsed = perf_counter() - t0
            times.append(elapsed * clock.scale())
        xs.append(math.log(len(phi.apply_text(u.text))))
        ys.append(math.log(statistics.median(times)))
    return statistics.linear_regression(xs, ys).slope


def suffix_array_memory(orders) -> tuple[float, float]:
    """tracemalloc peak (MB) of the suffix array of the last Fibonacci order,
    and its ratio to the peak at the first order; 0 when there is no
    suffix-array function."""
    suffix_array = getattr(ml.repeats, "suffix_array", None)
    if suffix_array is None:
        return 0.0, 0.0
    peaks = []
    tracemalloc.start()
    try:
        for i in orders:
            text = ml.fibonacci_word(i).text
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            suffix_array(text)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks[-1] / 2**20, peaks[-1] / peaks[0]


def cli_probe(tracer: Tracer, order: int, tally: Tally) -> None:
    """One traced ``check-if @file`` and one ``mus @file`` call, in process,
    with their output checked."""
    from morphlab import cli

    phi = ml.FIBONACCI
    u = ml.fibonacci_word(order)
    want_if = ml.brute_force_is_interference_free(phi, u)
    OUT_DIR.mkdir(exist_ok=True)
    phi_file, word_file = OUT_DIR / "cli-morphism.txt", OUT_DIR / "cli-word.txt"
    phi_file.write_text(phi.format() + "\n")
    word_file.write_text(u.text + "\n")
    out = io.StringIO()
    tracer.op_id = PROBE_OP
    tracer.install()
    try:
        with redirect_stdout(out):
            code_if = cli.main(
                ["check-if", "--morphism", f"@{phi_file}", "--word", f"@{word_file}"]
            )
            code_mus = cli.main(["mus", "--text", f"@{word_file}"])
    finally:
        tracer.uninstall()
        phi_file.unlink()
        word_file.unlink()
    tally.attempted += 2
    if code_if != (0 if want_if else 1):
        tally.fail(f"cli check-if on F_{order}", f"exit code {code_if}")
    lines = out.getvalue().splitlines()[(1 if want_if else 2):]
    musses = [line.split()[1] for line in lines if line.startswith("[")]
    if code_mus != 0 or len(musses) != 2 or any(count_upto(m, u.text, 2) != 1 for m in musses):
        tally.fail(f"cli mus on F_{order}", f"exit code {code_mus}, MUSs {musses}")
