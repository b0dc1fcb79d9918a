"""Command-line behavior: exit codes, JSON schema, determinism, negatives."""

import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monocurve import analysis, cli
from monocurve.analysis import _case_sort_key, analyze_sequence, census_digest, sweep, sweep_lines
from monocurve.groebner import toric_kernel
from monocurve.resolution import build_resolution, minimalize
from monocurve.semigroup import M0_BUDGET, validate_sequence

from test_analysis import _count_case_matches

SCHEMA_KEYS = [
    "seq",
    "valid",
    "params",
    "case",
    "betti_lookup",
    "betti_computed",
    "graded_betti",
    "hilbert_numerator",
    "flags",
    "discrepancies",
    "ms_elapsed",
]


@pytest.fixture(scope="module")
def sweep_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweeps") / "box12.jsonl"
    code = cli.main(["sweep", "--max-m2", "12", "--max-n", "12", "--out", str(path)])
    assert code == 0
    return path


# analyze


def test_analyze_verified_tuple(capsys):
    assert cli.main(["analyze", "--seq", "5,7,9,11"]) == 0
    out = capsys.readouterr().out
    assert "case iv" in out
    assert "lookup (5, 5, 1)" in out
    assert "hilbert_ok=True" in out


def test_analyze_rejects_non_minimal(capsys):
    # m2 = 8 already lies in <4, 6>
    assert cli.main(["analyze", "--seq", "4,6,8,5"]) == 1
    assert "m2 is redundant" in capsys.readouterr().err


def test_analyze_rejects_malformed_seq(capsys):
    assert cli.main(["analyze", "--seq", "5,7,9"]) == 1
    assert "four comma-separated integers" in capsys.readouterr().err


def test_analyze_json_schema(capsys):
    assert cli.main(["analyze", "--seq", "5,7,9,11", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == SCHEMA_KEYS
    assert record["seq"] == [5, 7, 9, 11]
    assert record["valid"] is True
    assert record["case"] == "iv"
    assert record["betti_lookup"] == [5, 5, 1]
    assert record["betti_computed"] == [5, 5, 1]
    assert all(len(row) == 3 for row in record["graded_betti"])
    assert {i for i, _, _ in record["graded_betti"]} == {0, 1, 2}
    assert record["hilbert_numerator"][0] == [0, 1]
    assert set(record["flags"]) == {
        "hilbert_ok",
        "compose_ok",
        "minimal_ok",
        "gb_ok",
        "closed_form_agrees",
    }
    assert isinstance(record["ms_elapsed"], int)


def test_analyze_json_on_invalid_sequence(capsys):
    assert cli.main(["analyze", "--seq", "4,6,8,5", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["valid"] is False
    assert record["case"] is None
    assert record["discrepancies"][0]["kind"] == "invalid_sequence"


def test_analyze_fast_level_skips_closed_form(capsys):
    assert cli.main(["analyze", "--seq", "5,7,9,11", "--verify-level", "fast", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["flags"]["closed_form_agrees"] is None
    assert record["flags"]["gb_ok"] is True


def test_analyze_rejects_huge_redundant_n(capsys):
    # n = 300 000 000 lies in <3, 5, 7>; the verdict must not need a table of n entries
    assert cli.main(["analyze", "--seq", "3,5,7,300000000"]) == 1
    assert "n is redundant" in capsys.readouterr().err


def _address_space_cap():
    cap = 2_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("command", ["analyze", "hilbert", "matrices"])
def test_m0_past_the_budget_refused_cleanly(command):
    """m0 about 10^8 is past M0_BUDGET: exit 1 with a message naming the
    budget, before any table is built, so also under a 2 GB address cap."""
    proc = subprocess.run(
        [sys.executable, "-m", "monocurve.cli", command, "--seq", "100000007,100000008,100000009,1234567891"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_address_space_cap,
    )
    assert proc.returncode == 1
    assert "exceeds M0_BUDGET = %d" % M0_BUDGET in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_exit_two_on_doctored_failure(monkeypatch, capsys):
    report = analyze_sequence(5, 7, 9, 6)
    report.flags["gb_ok"] = False
    monkeypatch.setattr(cli, "analyze_sequence", lambda *a, **k: report)
    assert cli.main(["analyze", "--seq", "5,7,9,6"]) == 2
    assert "gb_ok=False" in capsys.readouterr().out


def test_analyze_out_of_memory_is_one_line_exit_one(monkeypatch, capsys):
    """A MemoryError (m0 near M0_BUDGET under a tight address-space cap)
    is one stderr line and exit 1, not a traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze_sequence", exhausted)
    assert cli.main(["analyze", "--seq", "3999971,3999972,3999973,49999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "out of memory" in captured.err


# sweep


def test_sweep_is_sorted_and_complete(sweep_file):
    records = [json.loads(line) for line in sweep_file.read_text().splitlines()]
    assert len(records) == 43
    seqs = [tuple(r["seq"]) for r in records]
    assert (5, 7, 9, 11) in seqs
    keyed = [(m0, m1 - m0, n) for m0, m1, m2, n in seqs]
    assert keyed == sorted(keyed)
    assert all(list(r) == SCHEMA_KEYS for r in records)
    # persisted records drop wall-clock noise so reruns compare bytewise
    assert all(r["ms_elapsed"] is None for r in records)


def test_sweep_reruns_byte_identical(sweep_file, tmp_path):
    again = tmp_path / "again.jsonl"
    assert cli.main(["sweep", "--max-m2", "12", "--max-n", "12", "--out", str(again)]) == 0
    assert again.read_bytes() == sweep_file.read_bytes()


def test_sweep_thread_count_invariant(sweep_file, tmp_path):
    threaded = tmp_path / "threaded.jsonl"
    code = cli.main(
        ["sweep", "--max-m2", "12", "--max-n", "12", "--threads", "3", "--out", str(threaded)]
    )
    assert code == 0
    assert threaded.read_bytes() == sweep_file.read_bytes()


@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 64])
def test_sweep_caps_workers_at_jobs_and_cpus(cpus, monkeypatch):
    """A huge --threads asks for one worker per job and per CPU at most; a
    stand-in pool records the count and runs the jobs here, so no process
    is started."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
    specs = [spec.weights for spec in analysis.enumerate_box(12, 12)]
    reports = list(analysis.sweep_specs(specs, threads=100000))
    workers = min(len(specs), cpus or 1)
    assert asked == ([workers] if workers > 1 else [])
    assert sweep_lines(reports) == sweep_lines(sweep(12, 12))


def test_sweep_empty_box(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    assert cli.main(["sweep", "--max-m2", "4", "--max-n", "1", "--out", str(empty)]) == 0
    assert empty.read_text() == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--max-m2", "12", "--max-n", "12", "--threads", "0"],
        ["--max-m2", "12", "--max-n", "12", "--threads", "-2"],
        ["--max-m2", "-1", "--max-n", "12"],
        ["--max-m2", "12", "--max-n", "-5"],
    ],
)
def test_sweep_refuses_a_malformed_command_line(args, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep_specs", lambda *a, **k: pytest.fail("swept despite a usage error"))
    assert cli.main(["sweep", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--threads must be at least 1" in captured.err


def test_sweep_progress_on_stderr(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL", 0.0)
    assert cli.main(["sweep", "--max-m2", "12", "--max-n", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.out == sweep_lines(sweep(12, 12))
    lines = captured.err.splitlines()
    # every report but the first (no rate yet) and the last (final line)
    assert len(lines) == 42
    for done, line in enumerate(lines[:-1], 2):
        assert re.fullmatch(r"sweep %d/43 tuples, \d+ s elapsed, ETA \d+ s" % done, line)
    assert re.fullmatch(r"sweep 43/43 tuples done in \d+ s", lines[-1])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_survives_internal_error(threads, sweep_file, monkeypatch, capsys):
    real = analysis.analyze_sequence

    def flaky(*seq, **kwargs):
        if seq == (5, 7, 9, 11):
            raise RuntimeError("boom")
        return real(*seq, **kwargs)

    monkeypatch.setattr(analysis, "analyze_sequence", flaky)
    code = cli.main(["sweep", "--max-m2", "12", "--max-n", "12", "--threads", threads])
    captured = capsys.readouterr()
    assert code == 2
    assert "1 of 43 records failed verification" in captured.err
    clean = sweep_file.read_text().splitlines()
    got = captured.out.splitlines()
    assert len(got) == len(clean) == 43
    [bad] = [k for k, line in enumerate(got) if line != clean[k]]
    record = json.loads(got[bad])
    assert record["seq"] == [5, 7, 9, 11]
    assert record["valid"] and record["betti_computed"] is None
    [disc] = record["discrepancies"]
    assert disc["kind"] == "internal_error"
    assert disc["reason"] == "RuntimeError: boom"
    assert disc["where"].startswith("test_cli.py:")
    assert disc["certified"] is False
    digest = census_digest(json.loads(line) for line in got)
    assert digest["discrepancy_kinds"]["internal_error"] == 1
    assert digest["total"] == 43 and not digest["foreign"]


def test_sweep_unwritable_path(capsys):
    code = cli.main(["sweep", "--max-m2", "5", "--max-n", "2", "--out", "/nonexistent/x.jsonl"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_sweep_refuses_an_unwritable_path_before_sweeping(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL", 0.0)
    monkeypatch.setattr(cli, "sweep_specs", lambda *a, **k: pytest.fail("swept to an unwritable path"))
    code = cli.main(["sweep", "--max-m2", "30", "--max-n", "30", "--out", "/nonexistent/dir/x.jsonl"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("cannot write /nonexistent/dir/x.jsonl: ")


def test_sweep_holds_no_gamma_table(monkeypatch, capsys):
    """cmd_sweep keeps each tuple's weights, not its SequenceSpec, whose
    cached Gamma table would stay alive for the whole sweep."""
    held = []

    def recording(seqs, **kwargs):
        held.extend(seqs)
        return analysis.sweep_specs(seqs, **kwargs)

    monkeypatch.setattr(cli, "sweep_specs", recording)
    assert cli.main(["sweep", "--max-m2", "12", "--max-n", "12"]) == 0
    assert capsys.readouterr().out == sweep_lines(sweep(12, 12))
    assert held == [spec.weights for spec in analysis.enumerate_box(12, 12)]
    assert not any("gamma" in getattr(seq, "__dict__", {}) for seq in held)


def test_sweep_writes_each_record_as_its_report_arrives(monkeypatch, capsys):
    """Record k is on stdout before the sweep yields report k + 1."""
    reports = sweep(8, 8)
    written = []

    def streaming(seqs, **kwargs):
        assert len(seqs) == len(reports) > 2
        for k, report in enumerate(reports):
            written.append(capsys.readouterr().out)
            assert "".join(written) == sweep_lines(reports[:k])
            yield report

    monkeypatch.setattr(cli, "sweep_specs", streaming)
    assert cli.main(["sweep", "--max-m2", "8", "--max-n", "8"]) == 0
    written.append(capsys.readouterr().out)
    assert "".join(written) == sweep_lines(reports)


def test_interrupted_sweep_leaves_the_records_so_far(tmp_path, monkeypatch):
    reports = sweep(8, 8)

    def interrupted(seqs, **kwargs):
        yield from reports[:2]
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sweep_specs", interrupted)
    path = tmp_path / "part.jsonl"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--max-m2", "8", "--max-n", "8", "--out", str(path)])
    assert path.read_text() == sweep_lines(reports[:2])


def test_sweep_stops_at_a_record_it_cannot_write(monkeypatch, capsys):
    """Each record is flushed as its line ends, so a full device fails the
    first write: one `cannot write` line and exit 1, and the sweep stops."""
    reports = sweep(8, 8)
    asked = []

    def streaming(seqs, **kwargs):
        for report in reports:
            asked.append(report)
            yield report

    monkeypatch.setattr(cli, "sweep_specs", streaming)
    assert cli.main(["sweep", "--max-m2", "8", "--max-n", "8", "--out", "/dev/full"]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("sweep ")]
    assert line.startswith("cannot write /dev/full: ")
    assert len(asked) == 1


# census


def test_census_digest(sweep_file, capsys):
    assert cli.main(["census", "--in", str(sweep_file)]) == 0
    out = capsys.readouterr().out
    assert "records: 43" in out
    assert "betti" in out


def test_census_json_case_order(sweep_file, capsys):
    assert cli.main(["census", "--in", str(sweep_file), "--json"]) == 0
    digest = json.loads(capsys.readouterr().out)
    labels = list(digest["cases"])
    assert labels == sorted(labels, key=_case_sort_key)
    assert digest["foreign"] == []
    assert digest["uncertified"] == 0


def test_census_flags_foreign_triple(sweep_file, tmp_path, capsys):
    poisoned = tmp_path / "poisoned.jsonl"
    lines = sweep_file.read_text().splitlines()
    fake = json.loads(lines[0])
    fake["betti_computed"] = [9, 9, 9]
    poisoned.write_text("\n".join(lines + [json.dumps(fake)]) + "\n")
    assert cli.main(["census", "--in", str(poisoned)]) == 2
    assert "[9, 9, 9]" in capsys.readouterr().err


def test_census_empty_file(tmp_path, capsys):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("")
    assert cli.main(["census", "--in", str(blank)]) == 0
    assert "records: 0" in capsys.readouterr().out


def test_census_missing_file(capsys):
    assert cli.main(["census", "--in", "/nonexistent/sweep.jsonl"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_census_unparseable_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq": [5,7,9,11]}\nnot json at all\n')
    assert cli.main(["census", "--in", str(bad)]) == 1
    assert "unparseable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    # bytes that are not UTF-8, and a line nested deeper than the JSON parser recurses
    [b'{"seq": [5,7,9,11]}\n\xff\xfe\n', b"[" * 100_000 + b"\n"],
    ids=["not-utf8", "deep-nesting"],
)
def test_census_refuses_undecodable_input(tmp_path, content, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(content)
    assert cli.main(["census", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("unparseable record in ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line",
    # a literal line, or the overrides that make a real record's field mistyped
    ["[1, 2]", '{"valid": true}', {"discrepancies": [1]}, {"betti_computed": 5}],
)
def test_census_rejects_a_foreign_record(sweep_file, tmp_path, line, capsys):
    mixed = tmp_path / "mixed.jsonl"
    first = sweep_file.read_text().splitlines()[0]
    if isinstance(line, dict):
        line = json.dumps({**json.loads(first), **line})
    mixed.write_text(first + "\n\n" + line + "\n")
    assert cli.main(["census", "--in", str(mixed)]) == 1
    assert capsys.readouterr().err == "not a sweep record at line 3: %s\n" % line


# hilbert


def test_hilbert_pass(capsys):
    assert cli.main(["hilbert", "--seq", "5,7,9,11"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K(z) = 1 ")
    assert "PASS" in out


def test_hilbert_invalid_sequence(capsys):
    assert cli.main(["hilbert", "--seq", "6,8,10,3"]) == 1
    assert capsys.readouterr().err


def test_hilbert_corrupted_resolution_fails(monkeypatch, capsys):
    # swap in the minimal resolution of a different curve: the series
    # identity must notice
    wrong_kernel = toric_kernel(validate_sequence(7, 8, 9, 12))
    wrong = minimalize(build_resolution(wrong_kernel.reduced_gb))
    monkeypatch.setattr(cli, "_resolve", lambda kernel: wrong)
    assert cli.main(["hilbert", "--seq", "5,7,9,11"]) == 2
    out = capsys.readouterr().out
    assert "FAIL: first difference at degree" in out


def test_hilbert_fails_on_a_difference_far_above_degree_200(monkeypatch, capsys):
    # K(z) + z^300 - z^301: a comparison cut at degree 200 would pass it
    original = cli.hilbert_numerator

    def corrupted(res):
        numerator = dict(original(res))
        numerator[300] = numerator.get(300, 0) + 1
        numerator[301] = numerator.get(301, 0) - 1
        return numerator

    monkeypatch.setattr(cli, "hilbert_numerator", corrupted)
    assert cli.main(["hilbert", "--seq", "5,7,9,11"]) == 2
    assert "FAIL: first difference at degree 300 (1 vs 0)" in capsys.readouterr().out


# matrices


def test_matrices_agreeing_tuple(capsys):
    assert cli.main(["matrices", "--seq", "8,9,10,12"]) == 0
    out = capsys.readouterr().out
    assert "generic map 0" in out
    assert "case xix" in out
    assert "closed map 0" in out
    assert "rank agreement: True" in out
    assert "graded degree multiset agreement: True" in out


def test_matrices_template_mismatch_prints_generic_side(capsys):
    assert cli.main(["matrices", "--seq", "6,8,10,7"]) == 0
    out = capsys.readouterr().out
    assert "generic map 0" in out
    assert "no closed form for this tuple" in out
    assert "closed map" not in out


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "seq",
    [
        "5,7,9,11",  # the generic resolution splits off a unit
        "7,9,11,13",  # only the closed-form base splits off a unit
        "6,8,10,7",  # template mismatch: the generic side alone
        "5,6,7,9",  # cross family with offsets (2, 1), case xii
        "6,7,8,10",  # cross family with offsets (2, 2), case xvi
        "6,7,8,9",  # no cross family, plain X1 lead, case xviii
        "8,9,10,12",  # Koszul: three pairwise-coprime leads, case xix
    ],
)
def test_matrices_output_is_pinned(seq, capsys):
    """The whole stdout of ``matrices``, byte for byte, as recorded in
    tests/golden: every entry, its rendering and the column widths."""
    assert cli.main(["matrices", "--seq", seq]) == 0
    expected = (GOLDEN / ("matrices_%s.txt" % seq.replace(",", "_"))).read_text()
    assert capsys.readouterr().out == expected


def test_matrices_matches_the_case_once(monkeypatch, capsys):
    calls = _count_case_matches(monkeypatch, cli)
    assert cli.main(["matrices", "--seq", "5,7,9,11"]) == 0
    assert "case iv" in capsys.readouterr().out
    assert len(calls) == 1


def test_matrices_invalid_sequence(capsys):
    assert cli.main(["matrices", "--seq", "2,4,6,3"]) == 1
    assert capsys.readouterr().err


# plumbing


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "monocurve.cli", "hilbert", "--seq", "5,7,9,6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--seq", "5,7,9,11", "--truncate", "200"],
        ["analyze"],
        ["analyze", "--seq", "-3,1,5,7"],
    ],
)
def test_usage_error_exits_one(argv, capsys):
    """A malformed command line is a usage error, exit 1; 2 stays reserved
    for a failed certificate."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 120), min_size=4, max_size=4))
def test_analyze_any_small_sequence_exits_cleanly(entries):
    seq = ",".join(map(str, entries))
    assert cli.main(["analyze", "--seq=" + seq]) in (0, 1, 2)
