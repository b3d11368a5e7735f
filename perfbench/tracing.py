"""In-memory spans around the program's public functions, for the traced run.

A span is (name, start, end, parent span, query id).  Each traced
function is wrapped once and the wrapper is bound at every module that
binds the original, so `twinwidth.cli.chromatic_number` and the
`is_k_colorable` that `twinwidth.oracles` calls internally are both
seen.  Spans are named after the defining module; a few names cover two
functions (`oracles.solve` is `solve_sat` and `solve_nae`).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (span name, defining module, attribute or Class.attribute)
SPANS = [
    ("cli.main", "cli", "main"),
    ("contraction.merge", "contraction", "ContractionState.merge"),
    ("contraction.max_red_degree", "contraction", "ContractionState.max_red_degree"),
    ("contraction.verify_d_sequence", "contraction", "verify_d_sequence"),
    ("formats.write_trigraph", "formats", "write_trigraph"),
    ("formats.read_trigraph", "formats", "read_trigraph"),
    ("formats.write_sequence", "formats", "write_sequence"),
    ("formats.read_sequence", "formats", "read_sequence"),
    ("formats.write_roles", "formats", "write_roles"),
    ("formats.parse_dimacs_cnf", "formats", "parse_dimacs_cnf"),
    ("mincol.build_mincol", "mincol", "build_mincol"),
    ("mincol.build_mincol_3sequence", "mincol", "build_mincol_3sequence"),
    ("mincol.map", "mincol", "mincol_coloring_from_assignment"),
    ("mincol.map", "mincol", "mincol_assignment_from_coloring"),
    ("threecol.build_3col", "threecol", "build_3col"),
    ("threecol.build_3col_4sequence", "threecol", "build_3col_4sequence"),
    ("threecol.lift_to_k", "threecol", "lift_to_k"),
    ("threecol.map", "threecol", "threecol_coloring_from_assignment"),
    ("threecol.map", "threecol", "threecol_assignment_from_coloring"),
    ("trigraph.Trigraph", "trigraph", "Trigraph.__init__"),
    ("trigraph.quotient", "trigraph", "quotient"),
    ("cnf.CnfFormula", "cnf", "CnfFormula.__post_init__"),
    ("oracles.exact_twinwidth", "oracles", "exact_twinwidth"),
    ("oracles.is_k_colorable", "oracles", "is_k_colorable"),
    ("oracles.chromatic_number", "oracles", "chromatic_number"),
    ("oracles.solve", "oracles", "solve_sat"),
    ("oracles.solve", "oracles", "solve_nae"),
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))
# Oracles that take a budget: a call from outside these is one verdict.
BUDGETED = {"oracles.exact_twinwidth", "oracles.is_k_colorable", "oracles.chromatic_number"}
COUNTERS = ["contraction.steps", "formats.bytes_written", "formats.bytes_read",
            "oracles.over_budget"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.stack: list[int] = []
        self.query_id = -1
        self.counts: Counter = Counter()
        self._budgeted_ids: set[int] = set()
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)

    def _wrap(self, span: str, fn, budget_error):
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span)
        names, starts, ends, parents, queries, stack = (
            self.name, self.start, self.end, self.parent, self.query, self.stack)
        counts = self.counts
        is_budgeted = span in BUDGETED
        budgeted_ids = self._budgeted_ids
        if is_budgeted:
            budgeted_ids.add(nid)

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            queries.append(self.query_id)
            ends.append(0.0)
            stack.append(idx)
            verdict = is_budgeted and (parent < 0 or names[parent] not in budgeted_ids)
            counts["oracles.verdicts"] += verdict
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                counts["oracles.over_budget"] += verdict
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if span.startswith("formats.write"):
                counts["formats.bytes_written"] += len(result)
            elif span.startswith(("formats.read", "formats.parse")):
                counts["formats.bytes_read"] += len(args[0])
            elif span == "contraction.verify_d_sequence":
                counts["contraction.steps"] += len(args[1].steps)
            return result

        return traced

    def install(self) -> None:
        """Bind the wrappers wherever a twinwidth module binds a function in SPANS."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _find_bindings(self) -> list[tuple]:
        budget_error = sys.modules["twinwidth.errors"].BudgetExceeded
        bindings = []
        wrappers = {}  # id(original) -> (original, wrapper)
        for span, module, attr in SPANS:
            owner = sys.modules[f"twinwidth.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, budget_error)
            wrappers[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                bindings.append((owner, attr, original, wrapper))
        for name, module in list(sys.modules.items()):
            if name == "twinwidth" or name.startswith("twinwidth."):
                for attr, value in vars(module).items():
                    if id(value) in wrappers and value is wrappers[id(value)][0]:
                        bindings.append((module, attr, *wrappers[id(value)]))
        return bindings

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, own in zip(self.name, self.self_times()):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += own
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        verdicts = self.counts["oracles.verdicts"]
        out["oracles.decided_share"] = (
            1 - self.counts["oracles.over_budget"] / verdicts if verdicts else 1.0)
        return out

    def write(self, path: Path) -> None:
        """Dump every span as a tab-separated line: name, start, end, parent, query."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tquery\n")
            for nid, s, e, p, q in zip(self.name, self.start, self.end, self.parent, self.query):
                out.write(f"{self.names[nid]}\t{s:.7f}\t{e:.7f}\t{p}\t{q}\n")
