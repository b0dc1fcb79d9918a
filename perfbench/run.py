"""Benchmark of ``monocurve.analysis.analyze_sequence`` on seeded workloads.

    python3 perfbench/run.py --workload box60 --seed 1 --seconds 30 --trace 0

Run it from the repository root.  One process, no worker pool, closed loop:
the next tuple starts when the previous one returns.  Each workload draws a
pool of tuples from the seed and analyzes the pool in passes until the time
is up (at least one whole pass).

* ``--trace 0`` times every call untraced and reports the end-to-end metrics.
* ``--trace 1`` wraps the layer calls (``spans.py``) for two thirds of the
  time and reports the per-layer metrics over the whole passes done in it,
  then replays the first pass untraced to measure the tracing overhead on
  equal work.  Calibration samples and output checks run between calls,
  outside the timed latencies.

Workloads (all at ``verify_level="full"``):

* ``box60``: 600 tuples drawn uniformly, without repeats, from the 25 364
  valid tuples with m2 <= 60 and n <= 60 -- the census traffic itself.
* ``wide``: 450 valid tuples with m0 in 61..200, d in 1..20, n in 1..300,
  where the toric kernel's cost is heavy-tailed.
* ``post_kernel``: 300 tuples of the box60 distribution, with
  ``monocurve.analysis.toric_kernel`` replaced by a stand-in returning the
  ideal computed for that tuple during set-up, so everything after the
  kernel runs unchanged and the kernel does no timed work.

Every time is scaled to the reference host speed by ``host.py``'s
interleaved calibration loop, so that minutes-long drift of a shared host
does not read as a change of the program; the raw figures print alongside.
``tuples_per_s`` is the pool size over the sum of the tuples' mean
latencies; ``tuple_ms_p50`` and ``tuple_ms_tail`` (p90: at least ten
distinct tuples beyond it in every pool) are percentiles of those means.
Set-up (import, lazy table loads, the seeded draw of the inputs, kernel
precomputation) runs three times and ``setup_s`` is the median.  The
box-60 family the draw is made from does not depend on the program, so it
is enumerated once, before the timed set-ups.

Outputs are checked after timing: every report must be ``all_verified()``,
carry no Betti triple outside ``ALLOWED_TRIPLES``, match the benchmark's own
exact Hilbert-series certificate, and come back unchanged on every later
pass; at the default seed ``sweep_lines`` of the first pass must hash to
the recorded digest.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when correct, 1 when a check
failed, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from host import HostSpeed  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3
WARM_UP = (5, 7, 9, 11)
LAYERS = ("semigroup", "poly", "groebner", "resolution", "closedform", "analysis")

TAIL = 90

#: pool: tuples drawn per seed.  digest: sha256 of sweep_lines over the
#: first pass at the default seed.
WORKLOADS = {
    "box60": {"pool": 600, "digest": "0901644679cb2c05c50192663c1e6bed37286f3bbecddc7e48f0966d2f969917"},
    "wide": {"pool": 450, "digest": "dc3c43a49c99e73943c0a0b882113122355aafbd55bb4e4cdb04353289d09c01"},
    "post_kernel": {"pool": 300, "digest": "742ef7e2fd86e2a6d55086e86ba4ced2bc142d5790f6de85c5bcf2e7dffdcee3"},
}


class ImportFailure(RuntimeError):
    """The program under test is missing or did not import from ``src/``."""


def layer_modules() -> SimpleNamespace:
    """The layer modules of ``monocurve``, imported as the path finds them."""
    return SimpleNamespace(**{name: importlib.import_module("monocurve." + name) for name in LAYERS})


def import_monocurve() -> SimpleNamespace:
    """Fresh import of every layer module from this checkout's ``src/``."""
    if not (SRC / "monocurve" / "__init__.py").is_file():
        raise ImportFailure("no monocurve package under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "monocurve" or m.startswith("monocurve.")]:
        del sys.modules[name]
    try:
        mc = layer_modules()
    except ImportError as exc:
        raise ImportFailure("cannot import monocurve: %s" % exc) from exc
    for module in vars(mc).values():
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ImportFailure("monocurve imported from %s, not %s" % (module.__file__, SRC))
    return mc


def make_inputs(workload: str, seed: int, family: list | None) -> list:
    """The seeded pool: a sample of ``family``, or fresh ``wide`` draws."""
    rng = random.Random(seed)
    pool = WORKLOADS[workload]["pool"]
    if workload == "wide":
        return [inputs.wide_tuple(rng) for _ in range(pool)]
    return rng.sample(family, pool)


def precompute_kernels(mc, tuples, host: HostSpeed) -> dict:
    """The toric kernel of each tuple, for the ``post_kernel`` stand-in."""
    kernels = {}
    for t in tuples:
        kernels[t] = mc.analysis.toric_kernel(mc.semigroup.validate_sequence(*t))
        host.tick()
    return kernels


def set_up(workload: str, seed: int, family: list | None, host: HostSpeed):
    """Import, warm up, draw the inputs and precompute kernels; returns the
    seconds this took, calibration samples taken meanwhile excluded."""
    calibrated = len(host.samples)
    began = time.perf_counter()
    mc = import_monocurve()
    mc.analysis.analyze_sequence(*WARM_UP)
    tuples = make_inputs(workload, seed, family)
    kernels = precompute_kernels(mc, tuples, host) if workload == "post_kernel" else None
    took = time.perf_counter() - began - sum(host.samples[calibrated:])
    return took, mc, tuples, kernels


class StandIn:
    """Replaces ``analysis.toric_kernel`` with a lookup of precomputed ideals."""

    def __init__(self, kernels: dict):
        self.kernels = kernels
        self.hits = 0

    def __call__(self, spec):
        self.hits += 1
        return self.kernels[spec.weights]

    def install(self, mc) -> None:
        mc.analysis.toric_kernel = self


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def run_tuples(analyze, tuples, host, first, count=None, seconds=0.0, min_count=0, tracer=None):
    """Analyze tuples in order (cycling) until ``count`` are done, or until
    ``seconds`` have passed and at least ``min_count`` are done, sampling
    the host's speed between calls.

    ``first`` maps each tuple to the report of its first call (None if it
    raised); a later call is only compared with that report and dropped, so
    memory does not grow with the number of passes.  Returns the tuples run,
    per-call latencies scaled to the reference host by the calibration
    samples around each call, and (index, note) for each call that raised or
    whose report changed.
    """
    clock = time.perf_counter
    ran, latencies, ends, bad = [], [], [], []
    baseline: dict = {}
    deadline = clock() + seconds
    i = 0
    while (i < count) if count is not None else (i < min_count or clock() < deadline):
        t = tuples[i % len(tuples)]
        if tracer is not None:
            tracer.current_tuple = i
        began = clock()
        try:
            report = analyze(*t, verify_level="full")
        except Exception as exc:  # a raising tuple is a failed operation, not a crash
            report = None
            bad.append((len(ran), "%s on %s: %s" % (type(exc).__name__, t, exc)))
        ends.append(clock())
        latencies.append(ends[-1] - began)
        if t not in first:
            first[t] = report
        elif report is not None and first[t] is not None:
            if t not in baseline:
                baseline[t] = first[t].to_json(timing=False)
            if report.to_json(timing=False) != baseline[t]:
                bad.append((len(ran), "report for %s changed on a repeat" % (t,)))
        ran.append(t)
        host.tick()
        i += 1
    scaled = [latency * host.factor_at(end) for latency, end in zip(latencies, ends)]
    return ran, scaled, bad


def check_reports(workload, seed, mc, first, text) -> tuple:
    """Tuples whose first report fails a check, with one note per failure."""
    bad: dict = {}
    allowed = {tuple(t) for t in mc.analysis.ALLOWED_TRIPLES}
    for t, report in first.items():
        if report is None:
            bad[t] = "no report for %s" % (t,)
        elif not report.all_verified():
            bad[t] = "not verified: %s" % (t,)
        elif tuple(report.betti_computed or ()) not in allowed:
            bad[t] = "foreign Betti triple %s for %s" % (report.betti_computed, t)
        elif not inputs.hilbert_certified(t, report.hilbert_numerator):
            bad[t] = "Hilbert certificate fails for %s" % (t,)
    notes = list(bad.values())
    if seed == DEFAULT_SEED:
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != WORKLOADS[workload]["digest"]:
            bad.update((t, "digest") for t in first)
            notes.append("default-seed digest %s != recorded" % got)
    return set(bad), notes


def load_metric_units() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end, layer


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    family = inputs.box_family(60, 60) if workload != "wide" else None
    setups = []
    for _ in range(SETUP_REPEATS):
        host = HostSpeed()
        host.sample(4)
        took, mc, tuples, kernels = set_up(workload, seed, family, host)
        host.sample(4)
        setups.append((took * host.factor, took))
    print("workload %s seed %d: %d inputs, input digest %s" % (workload, seed, len(tuples), inputs.digest(tuples)))
    gc.collect()
    result = run_pool(mc, workload, seed, tuples, kernels, seconds, trace)
    if not trace:
        result["raw_setup_s"] = statistics.median(raw for _, raw in setups)
        result["end"]["setup_s"] = statistics.median(scaled for scaled, _ in setups)
    return result


def run_pool(mc, workload: str, seed: int, tuples: list, kernels: dict | None, seconds: float, trace: bool) -> dict:
    """Time the pool, check its reports and derive the metrics (all but
    ``setup_s``).  ``kernels`` holds the stand-in's ideals on ``post_kernel``.
    Every module attribute patched here is restored before returning."""
    stand_in = StandIn(kernels) if kernels is not None else None
    original_kernel = mc.analysis.toric_kernel
    pool = len(tuples)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(mc)
        analyze = tracer.wrap(ROOT_SPAN, mc.analysis.analyze_sequence)
    else:
        analyze = mc.analysis.analyze_sequence
    if stand_in is not None:
        stand_in.install(mc)

    first: dict = {}
    host = HostSpeed()
    try:
        began = time.perf_counter()
        timed = seconds * 2 / 3 if trace else seconds
        ran, latencies, bad_runs = run_tuples(
            analyze, tuples, host, first, seconds=timed, min_count=pool, tracer=tracer
        )
        wall = time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
        mc.analysis.toric_kernel = original_kernel

    reports = [r for r in first.values() if r is not None]
    began = time.perf_counter()
    text = mc.analysis.sweep_lines(reports)
    census = mc.analysis.census_digest(json.loads(line) for line in text.splitlines())
    serialize_s = (time.perf_counter() - began) * host.factor / max(1, len(reports))

    result = {"tuples": len(ran), "distinct": len(first), "wall": wall, "factor": host.factor}
    if trace:
        # per-layer figures over whole passes only, so that where the
        # deadline fell cannot weight some tuples more than others
        whole = pool * (len(ran) // pool)
        layer = {
            name: value * host.factor if name.endswith("_s") or "_s." in name else value
            for name, value in tracer.metrics(whole).items()
        }
        if stand_in is not None:
            stand_in.install(mc)
        try:
            replay_ran, replay_lat, replay_bad = run_tuples(
                mc.analysis.analyze_sequence, tuples, HostSpeed(), first, count=pool
            )
        finally:
            mc.analysis.toric_kernel = original_kernel
        bad_runs += [(len(ran) + i, note) for i, note in replay_bad]
        ran += replay_ran
        traced = sum(latencies[:pool])
        untraced = sum(replay_lat)
        layer["analysis.serialize_s"] = serialize_s
        layer["trace.tuples_per_s"] = pool / traced
        layer["trace.untraced_tuples_per_s"] = pool / untraced
        result.update(layer=layer, whole=whole, overhead=traced / untraced,
                      self_times=tracer.self_times(), spans=len(tracer.name))
    else:
        runs: dict = {}
        for t, latency in zip(ran, latencies):
            runs.setdefault(t, []).append(latency)
        ordered = sorted(statistics.fmean(v) for v in runs.values())
        result["end"] = {
            "tuples_per_s": len(ordered) / sum(ordered),
            "tuple_ms_p50": 1000 * percentile(ordered, 50),
            "tuple_ms_tail": 1000 * percentile(ordered, TAIL),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    bad_tuples, notes = check_reports(workload, seed, mc, first, text)
    failed_runs = {i for i, _ in bad_runs} | {i for i, t in enumerate(ran) if t in bad_tuples}
    notes = [note for _, note in bad_runs] + notes
    if stand_in is not None:
        result["stand_in_hits"] = stand_in.hits
        if stand_in.hits != len(ran):
            failed_runs = set(range(len(ran)))
            notes.append("stand-in hits %d != tuples %d" % (stand_in.hits, len(ran)))
    result.update(attempted=len(ran), failed=len(failed_runs), notes=notes, census=census)
    return result


def print_result(result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the JSON metrics block."""
    end_units, layer_units = load_metric_units()
    units = layer_units if trace else end_units
    values = result["layer"] if trace else result["end"]
    if set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(units)))
    attempted, failed = result["attempted"], result["failed"]
    print("tuples %d (%d distinct, %.2f passes) in %.3f s timed: %.3f tuples/s of wall time"
          % (result["tuples"], result["distinct"], result["tuples"] / result["distinct"], result["wall"],
             result["tuples"] / result["wall"]))
    print("mean host speed factor %.4f (measured times are scaled by the factor around them)" % result["factor"])
    if not trace:
        print("tail percentile p%d over %d distinct tuples; raw setup %.4f s"
              % (TAIL, result["distinct"], result["raw_setup_s"]))
    print("failed_fraction = %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    if "stand_in_hits" in result:
        print("stand-in hits %d for %d tuples" % (result["stand_in_hits"], attempted))
    for note in result["notes"][:20]:
        print("  check: %s" % note)
    census = result["census"]
    print("census: triples %s, uncertified %d" % (census["triples"], census["uncertified"]))
    if trace:
        print("per-layer figures over %d tuples (whole passes); tracing overhead %.3f (traced / untraced time)"
              % (result["whole"], result["overhead"]))
        stages = {k: v for k, v in values.items() if k.endswith("_s") and k.split(".")[0] not in ("poly", "trace")}
        stages.pop("analysis.serialize_s")
        total = sum(stages.values()) or 1.0
        print("stage shares of traced tuple time (%d spans):" % result["spans"])
        for name, value in sorted(stages.items(), key=lambda kv: -kv[1]):
            print("  %-40s %6.1f %%" % (name, 100 * value / total))
        print("self time by span name (s, unscaled):")
        for name, value in sorted(result["self_times"].items(), key=lambda kv: -kv[1])[:12]:
            print("  %-40s %9.3f s" % (name, value))
    for name in sorted(values):
        print("metric %s = %.6g %s" % (name, values[name], units[name]))
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportFailure as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    metrics = print_result(result, bool(args.trace))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
