"""Tests of the benchmark itself, on tiny inputs and a fixed seed."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_reported_without_errors(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    if not trace:
        assert result["attempted"] >= harness.MIN_SAMPLES
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt(name, expected):
    """The first expected answer, made wrong."""
    first = expected[0]
    if name == "classic-repeats":
        mus, net = first
        return mus[1:], net
    return (not first[0],) + tuple(first[1:])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_wrong_expected_answer_counts_as_an_error(name):
    wl = WORKLOADS[name](SEED, "tiny")
    expect = wl.expect

    def wrong_first(ops):
        expected = expect(ops)
        expected[0] = _corrupt(name, expected)
        return expected

    wl.expect = wrong_first
    report = harness.measure(wl, 0)
    passes = report.tally.attempted // len(wl.setup())
    assert report.tally.failed == passes > 0
    assert report.tally.errors[0].startswith(wl.label(wl.setup()[0]))


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
