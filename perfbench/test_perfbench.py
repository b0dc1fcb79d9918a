"""Checks of the benchmark itself: its input generator, its exact Hilbert
certificate, its printed metrics, its correctness gates and the
reproducibility of its counts.

    PYTHONPATH=src python3 -m pytest -q perfbench

The pool runs go through ``run.run_pool`` in this process, on the first few
tuples of a pool and on the ``monocurve`` already imported.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
from host import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = ("_calls", ".spairs", ".prunes")


@pytest.fixture(scope="module")
def mc():
    return run.layer_modules()


@pytest.fixture(scope="module")
def family():
    return inputs.box_family(60, 60)


def run_small(mc, family, workload, trace, seed=11, size=3, seconds=0.1):
    """``run_pool`` on the first ``size`` tuples of a seeded pool."""
    tuples = run.make_inputs(workload, seed, family)[:size]
    kernels = run.precompute_kernels(mc, tuples, HostSpeed()) if workload == "post_kernel" else None
    return run.run_pool(mc, workload, seed, tuples, kernels, seconds, bool(trace))


def test_own_filter_matches_enumerate_box():
    from monocurve.analysis import enumerate_box

    expected = [(s.m0, s.m1, s.m2, s.n) for s in enumerate_box(24, 30)]
    assert inputs.box_family(24, 30) == expected


def test_box60_family_size(family):
    assert len(family) == 25364


def test_wide_tuples_are_valid_and_seeded():
    from monocurve.semigroup import validate_sequence

    first = [inputs.wide_tuple(random.Random(9)) for _ in range(30)]
    again = [inputs.wide_tuple(random.Random(9)) for _ in range(30)]
    assert first == again
    for t in first:
        validate_sequence(*t)
        assert 61 <= t[0] <= 200 and t[1] - t[0] <= 20 and t[3] <= 300


def test_hilbert_certificate_accepts_program_and_rejects_tampering():
    from monocurve.analysis import analyze_sequence

    for t in [(5, 7, 9, 11), (8, 9, 10, 12), (61, 70, 79, 500)]:
        numerator = analyze_sequence(*t).hilbert_numerator
        assert inputs.hilbert_certified(t, numerator)
        degree, coeff = numerator[-1]
        assert not inputs.hilbert_certified(t, numerator[:-1] + [(degree, coeff + 1)])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(mc, family, workload, trace, capsys):
    result = run_small(mc, family, workload, trace)
    if not trace:
        # measure() adds setup_s from set-ups that re-import monocurve,
        # which this process must not do
        result["end"]["setup_s"] = result["raw_setup_s"] = 0.5
    metrics = run.print_result(result, bool(trace))
    lines = capsys.readouterr().out.splitlines()
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["failed"] == 0 and result["attempted"] >= 3, result["notes"]
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.startswith("metric %s = " % m["name"]) and line.endswith(" " + m["unit"])
                   for line in lines)
    assert any(line.startswith("failed_fraction = 0.000000") for line in lines)


@pytest.mark.parametrize("workload", ["box60", "wide"])
def test_traced_counts_reproduce_over_timed_runs(mc, family, workload):
    """Runs of different lengths stop at different points of a pass; the
    counts are taken over whole passes, so they must still agree."""
    counts = []
    for seconds in (0.3, 0.75):
        result = run_small(mc, family, workload, 1, seconds=seconds)
        assert result["failed"] == 0, result["notes"]
        assert result["whole"] >= 3 and result["whole"] % 3 == 0
        counts.append({k: v for k, v in result["layer"].items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["groebner.buchberger_calls"] > 0


def test_post_kernel_bypasses_the_kernel(mc, family):
    original = mc.analysis.toric_kernel
    result = run_small(mc, family, "post_kernel", 1, size=4)
    assert mc.analysis.toric_kernel is original
    assert result["failed"] == 0, result["notes"]
    assert result["layer"]["groebner.toric_kernel_s"] == 0
    assert result["layer"]["groebner.buchberger_calls"] == 0
    assert result["stand_in_hits"] == result["attempted"]


def test_default_seed_digest_gates_any_pool(mc, family):
    """At the default seed the sweep digest is checked whatever ran, so a
    pool that is not the recorded one fails every call."""
    result = run_small(mc, family, "box60", 0, seed=run.DEFAULT_SEED, size=2, seconds=0.05)
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]
    assert any("digest" in note for note in result["notes"])


def test_missing_program_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box60", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
