"""The summary ``tools/ab_pairs.py`` prints, on fixed numbers."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 102.25, median 104.5, q3 106.75


def test_quartiles_are_inclusive():
    assert ab_pairs.quartiles(PARENT) == (102.25, 104.5, 106.75)
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([1, 2]) == (1.25, 1.5, 1.75)


def test_nine_wins_and_a_median_beyond_the_parents_iqr_is_a_gain():
    new = [p + 10 for p in PARENT[:9]] + [100]  # the last pair lost
    s = ab_pairs.summarize(PARENT, new, "higher")
    assert (s["wins"], s["pairs"], s["new_median"], s["gain"]) == (9, 10, 113.5, True)
    assert s["change"] == pytest.approx(113.5 / 104.5 - 1)


def test_eight_wins_is_no_gain():
    new = [p + 10 for p in PARENT[:8]] + [100, 100]
    s = ab_pairs.summarize(PARENT, new, "higher")
    assert (s["wins"], s["gain"]) == (8, False)


def test_every_win_inside_the_parents_iqr_is_no_gain():
    s = ab_pairs.summarize(PARENT, [p + 1 for p in PARENT], "higher")
    assert (s["wins"], s["new_median"] - s["parent_median"], s["gain"]) == (10, 1, False)


def test_lower_is_better_counts_falls_as_wins():
    s = ab_pairs.summarize(PARENT, [p - 10 for p in PARENT], "lower")
    assert (s["wins"], s["gain"]) == (10, True)
    assert ab_pairs.summarize(PARENT, [p - 10 for p in PARENT], "higher")["wins"] == 0


def test_ties_are_not_wins_and_sides_must_match():
    s = ab_pairs.summarize([5.0] * 10, [5.0] * 10, "higher")
    assert (s["wins"], s["change"], s["gain"]) == (0, 0, False)
    assert math.isnan(ab_pairs.summarize([0.0], [1.0], "higher")["change"])
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_report_has_a_line_per_metric_with_its_verdict():
    results = {
        "tuples_per_s": ab_pairs.summarize(PARENT, [p + 10 for p in PARENT], "higher"),
        "setup_s": ab_pairs.summarize(PARENT, PARENT, "lower"),
    }
    header, first, second = ab_pairs.report_lines(results, ["tuples_per_s", "setup_s"])
    assert header.split()[0] == "metric"
    assert first.startswith("tuples_per_s") and first.endswith("10/10  gain")
    assert second.startswith("setup_s") and second.endswith("0/10  no gain")
