"""Run one workload of the morphlab benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload classic-if --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory; without it the
run fails before printing a result.  The output lists the run's context
(seed, commit, Python version, core count) and every metric by name with its
unit, and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The exit code is 0 only when every result was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("classic-if", "classic-repeats", "small-sweep")


def _import_library():
    package = SRC / "morphlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: the morphlab sources are missing from {package}")
    sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]
    import morphlab

    if Path(morphlab.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported morphlab from {morphlab.__file__}, not from {package}")


def _commit() -> str:
    """The checked-out commit, or 'unknown' outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "morphlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a seconds-long smoke run")
    args = parser.parse_args(argv)

    _import_library()
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        spans = harness.OUT_DIR / f"spans-{args.workload}.tsv"
        report = harness.measure_traced(wl, args.seconds, args.scale, spans)
    else:
        report = harness.measure(wl, args.seconds)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale} commit={_commit()} source={_source_digest()} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    for note in report.notes:
        print(f"# {note}")
    for error in report.tally.errors:
        print(f"perfbench: WRONG {error}", file=sys.stderr)
    for name, (value, unit) in report.metrics.items():
        print(f"{name:48} {value:.6g} {unit}")
    correct = report.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()
        },
    }))
    if not correct:
        print(f"perfbench: {report.tally.failed} of {report.tally.attempted} ops wrong",
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
