"""Command-line behavior: exit codes, JSON schema, determinism, negatives."""

import json
import subprocess
import sys

import pytest

from monocurve import cli
from monocurve.analysis import _case_sort_key, analyze_sequence
from monocurve.groebner import toric_kernel
from monocurve.resolution import build_resolution, minimalize
from monocurve.semigroup import validate_sequence

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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--seq", "5,7,9,11"],
        ["sweep", "--max-m2", "12", "--max-n", "12"],
        ["hilbert", "--seq", "5,7,9,11"],
    ],
    ids=["analyze", "sweep", "hilbert"],
)
def test_negative_truncate_rejected(argv, capsys):
    assert cli.main(argv + ["--truncate", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--truncate must be nonnegative" in captured.err
    assert captured.out == ""


def test_analyze_exit_two_on_doctored_failure(monkeypatch, capsys):
    report = analyze_sequence(5, 7, 9, 6)
    report.flags["gb_ok"] = False
    monkeypatch.setattr(cli, "analyze_sequence", lambda *a, **k: report)
    assert cli.main(["analyze", "--seq", "5,7,9,6"]) == 2
    assert "gb_ok=False" in capsys.readouterr().out


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


def test_sweep_empty_box(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    assert cli.main(["sweep", "--max-m2", "4", "--max-n", "1", "--out", str(empty)]) == 0
    assert empty.read_text() == ""


def test_sweep_unwritable_path(capsys):
    code = cli.main(["sweep", "--max-m2", "5", "--max-n", "2", "--out", "/nonexistent/x.jsonl"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


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


# hilbert


def test_hilbert_pass(capsys):
    assert cli.main(["hilbert", "--seq", "5,7,9,11", "--truncate", "120"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K(z) = 1 ")
    assert "PASS" in out


def test_hilbert_truncate_zero_trivially_passes(capsys):
    assert cli.main(["hilbert", "--seq", "5,7,9,11", "--truncate", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_hilbert_invalid_sequence(capsys):
    assert cli.main(["hilbert", "--seq", "6,8,10,3"]) == 1
    assert capsys.readouterr().err


def test_hilbert_corrupted_resolution_fails(monkeypatch, capsys):
    # swap in the minimal resolution of a different curve: the series
    # identity must notice
    wrong_kernel = toric_kernel(validate_sequence(7, 8, 9, 12))
    wrong = minimalize(build_resolution(wrong_kernel.reduced_gb))
    monkeypatch.setattr(cli, "_resolve", lambda kernel: wrong)
    assert cli.main(["hilbert", "--seq", "5,7,9,11", "--truncate", "60"]) == 2
    out = capsys.readouterr().out
    assert "FAIL: first difference at degree" in out


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


def test_matrices_invalid_sequence(capsys):
    assert cli.main(["matrices", "--seq", "2,4,6,3"]) == 1
    assert capsys.readouterr().err


# plumbing


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "monocurve.cli", "hilbert", "--seq", "5,7,9,6", "--truncate", "40"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
