"""How analyze_sequence maps the one FreeResolution.validate() pass onto the
compose_ok and minimal_ok flags."""

from monocurve import analysis
from monocurve.resolution import FreeResolution, GradedMap, _find_constant_entry, minimalize

SEQ = (5, 7, 9, 11)


def _flags(monkeypatch, doctor):
    monkeypatch.setattr(analysis, "minimalize", doctor)
    flags = analysis.analyze_sequence(*SEQ).flags
    return flags["compose_ok"], flags["minimal_ok"]


def test_constant_entry_fails_minimality_only(monkeypatch):
    def flagged_without_trimming(res):
        assert _find_constant_entry(res.maps) is not None
        return FreeResolution(res.maps, minimal=True)

    assert _flags(monkeypatch, flagged_without_trimming) == (True, False)


def test_broken_composition_fails_both(monkeypatch):
    def scaled_entry(res):
        res = minimalize(res)
        first = res.maps[1]
        rows = [list(row) for row in first.entries]
        j = next(j for j, p in enumerate(rows[0]) if not p.is_zero)
        rows[0][j] = rows[0][j] * 2
        maps = list(res.maps)
        maps[1] = GradedMap(first.source, first.target, rows)
        return FreeResolution(maps, minimal=True)

    assert _flags(monkeypatch, scaled_entry) == (False, False)
