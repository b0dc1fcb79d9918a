"""In-memory spans around calls into monocurve's layers, and the metrics
derived from them.

A span is recorded by a wrapper installed at the module attribute a caller
looks up (``monocurve.analysis.toric_kernel``, ``monocurve.groebner.divide``,
...), so the program itself is not edited.  Each span keeps its name, start,
end, parent span and tuple id in flat arrays until the run ends.

A *stage* is a span whose parent is the ``analysis.analyze_sequence`` root:
the stages of one tuple are disjoint, so their durations plus the root's
self time add up to the tuple's wall time.  Every deeper span is attributed
to the stage it runs under.
"""

from __future__ import annotations

import bisect
import time
from array import array

ROOT = "analysis.analyze_sequence"

#: extra wrapping sites besides every layer function ``monocurve.analysis``
#: imports: (module, attribute, span name)
INNER_SITES = (
    ("groebner", "divide", "poly.divide"),
    ("groebner", "s_polynomial", "poly.s_polynomial"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("resolution", "buchberger", "resolution.buchberger"),
    ("resolution", "compose_zero", "resolution.compose_zero"),
    ("resolution", "prune_unit", "resolution.prune_unit"),
    ("resolution", "schreyer_syzygies", "resolution.schreyer_syzygies"),
    ("closedform", "buchberger", "closedform.buchberger"),
    ("closedform", "canonical_generators", "closedform.canonical_generators"),
)

#: stage span name -> per-layer metric holding its time
STAGE_METRICS = {
    "semigroup.validate_sequence": "semigroup.validate_sequence_s",
    "semigroup.gamma_series_truncation": "semigroup.gamma_series_s",
    "groebner.toric_kernel": "groebner.toric_kernel_s",
    "groebner.is_groebner": "groebner.is_groebner_s",
    "resolution.build_resolution": "resolution.build_resolution_s",
    "resolution.minimalize": "resolution.minimalize_s",
    "resolution.compose_zero": "resolution.compose_zero_s",
    "resolution.validate": "resolution.validate_s",
    "resolution.hilbert_numerator": "resolution.hilbert_s",
    "resolution.hilbert_series_truncation": "resolution.hilbert_s",
    "closedform.extract_parameters": "closedform.extract_parameters_s",
    "closedform.case_id": "closedform.case_id_s",
    "closedform.canonical_generators": "closedform.canonical_generators_s",
    "closedform.graded_shifts": "closedform.graded_shifts_s",
    "closedform.closed_form_resolution": "closedform.closed_form_resolution_s",
}
OTHER_STAGES = "analysis.other_stages_s"

#: stages whose poly.divide / poly.s_polynomial time is reported on its own
PRIMITIVE_CALLERS = ("toric_kernel", "build_resolution", "is_groebner", "extract_parameters")


def _remainder_nonzero(result) -> int:
    return 0 if result[1].is_zero else 1


class Tracer:
    """Records spans for the calls it wraps; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.tuple_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.current_tuple = -1
        self._stack = [-1]
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, outcome=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.tuple_id.append(self.current_tuple)
            self.outcome.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            began = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    self.outcome[idx] = outcome(result)
                return result
            finally:
                self.end[idx] = clock()
                self.start[idx] = began
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, outcome=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, outcome))

    def install(self, mc) -> None:
        """Wrap the layer calls of the monocurve modules held by ``mc``."""
        for attr, fn in sorted(vars(mc.analysis).items()):
            module = getattr(fn, "__module__", "") or ""
            if callable(fn) and module.startswith("monocurve.") and module != "monocurve.analysis":
                if isinstance(fn, type):
                    continue
                self.patch(mc.analysis, attr, "%s.%s" % (module.split(".")[-1], fn.__name__))
        for module, attr, name in INNER_SITES:
            outcome = _remainder_nonzero if name == "poly.divide" else None
            self.patch(getattr(mc, module), attr, name, outcome)
        self.patch(mc.resolution.FreeResolution, "validate", "resolution.validate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics ---------------------------------------------------

    def metrics(self, tuples: int) -> dict:
        """Per-tuple layer metrics over the first ``tuples`` traced analyze
        calls; spans of later calls are left out."""
        names = self.names
        root = self._ids.get(ROOT, -2)
        # tuple ids only grow, so the spans of the first calls are a prefix
        n = bisect.bisect_left(self.tuple_id, tuples)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        stage = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            child_time[p] += duration[i]
            stage[i] = i if self.name[p] == root else stage[p]

        sums: dict = {}
        counts: dict = {}

        def add(key, value=1.0, table=sums):
            table[key] = table.get(key, 0.0) + value

        for i in range(n):
            name = names[self.name[i]]
            add(name, table=counts)
            if self.name[i] == root:
                add("analysis.analyze_self_s", duration[i] - child_time[i])
                continue
            if stage[i] < 0:
                continue
            stage_name = names[self.name[stage[i]]]
            if stage[i] == i:
                add(STAGE_METRICS.get(name, OTHER_STAGES), duration[i])
            parent_name = names[self.name[self.parent[i]]]
            short = stage_name.split(".")[-1]
            if name in ("poly.divide", "poly.s_polynomial"):
                add(name + "_s", duration[i])
                caller = short if short in PRIMITIVE_CALLERS else "other"
                add("%s_s.%s" % (name, caller), duration[i])
            if short != "toric_kernel":
                continue
            # the kernel's own Gröbner work
            if name == "groebner.buchberger":
                add("groebner.buchberger_calls", table=counts)
            elif name == "poly.divide":
                add("groebner.divide_calls", table=counts)
                if parent_name == "groebner.buchberger":
                    add("kernel.reductions", table=counts)
                    add("kernel.useful", self.outcome[i], table=counts)
            elif name == "poly.s_polynomial" and parent_name == "groebner.buchberger":
                add("groebner.spairs", table=counts)

        # a count over k whole passes is k times the count over one, so
        # dividing (not multiplying by 1/tuples) gives the same float for any k
        out = {}
        for metric in sorted(set(STAGE_METRICS.values())) + [
            OTHER_STAGES,
            "analysis.analyze_self_s",
        ]:
            out[metric] = sums.get(metric, 0.0) / tuples
        for prim in ("poly.divide", "poly.s_polynomial"):
            out[prim + "_s"] = sums.get(prim + "_s", 0.0) / tuples
            for caller in PRIMITIVE_CALLERS + ("other",):
                key = "%s_s.%s" % (prim, caller)
                out[key] = sums.get(key, 0.0) / tuples
        for metric, span in (
            ("groebner.buchberger_calls", "groebner.buchberger_calls"),
            ("groebner.spairs", "groebner.spairs"),
            ("groebner.divide_calls", "groebner.divide_calls"),
            ("resolution.schreyer_calls", "resolution.schreyer_syzygies"),
            ("resolution.prunes", "resolution.prune_unit"),
            ("resolution.compose_zero_calls", "resolution.compose_zero"),
            ("closedform.extract_fallback_calls", "closedform.buchberger"),
            ("closedform.canonical_generators_calls", "closedform.canonical_generators"),
            ("poly.divide_calls", "poly.divide"),
        ):
            out[metric] = counts.get(span, 0.0) / tuples
        reductions = counts.get("kernel.reductions", 0.0)
        out["groebner.useful_spair_ratio"] = (
            counts.get("kernel.useful", 0.0) / reductions if reductions else 0.0
        )
        return out

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        n = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        totals: dict = {}
        for i in range(n):
            key = self.names[self.name[i]]
            totals[key] = totals.get(key, 0.0) + own[i]
        return totals
