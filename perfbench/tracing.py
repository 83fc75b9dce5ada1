"""Spans and counts at grpinv's layer boundaries, recorded from outside.

`Tracer.install()` replaces each layer function listed below at every import
site: the modules bind them with `from ... import`, so patching the defining
module alone would miss most calls.  Nothing under `src/` changes.  Spans
(name, parent, start, end) stay in memory until `export()`; self time is
computed from them afterwards.

Search nodes are counted by swapping a subclass in for `grpinv.cover._Budget`
that only remembers how many nodes it was issued: the count is issued minus
left, exact, and costs nothing per node.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (span name, defining module, attribute)
LAYER_FUNCTIONS = (
    ("groups.build", "grpinv.groups", "build"),
    ("groups.validate_table", "grpinv.groups", "_validate_table"),
    ("lattice.all_subgroups", "grpinv.lattice", "all_subgroups"),
    ("lattice.cyclic_subgroups", "grpinv.lattice", "cyclic_subgroups"),
    ("lattice.closure", "grpinv.lattice", "closure"),
    ("lattice.as_group", "grpinv.lattice", "as_group"),
    ("iso.embeds", "grpinv.iso", "embeds"),
    ("iso.are_isomorphic", "grpinv.iso", "are_isomorphic"),
    ("iso.is_embedding", "grpinv.iso", "is_embedding"),
    ("cover.make_instance", "grpinv.cover", "make_instance"),
    ("cover.min_cover", "grpinv.cover", "min_cover"),
    ("cover.validate_cover", "grpinv.cover", "validate_cover"),
    ("invariants.ic", "grpinv.invariants", "ic"),
    ("invariants.sigma", "grpinv.invariants", "sigma"),
    ("invariants.sigma_c", "grpinv.invariants", "sigma_c"),
    ("invariants.certificate_sound", "grpinv.invariants", "certificate_sound"),
    ("invariants.validate_optimal", "grpinv.invariants", "validate_optimal_ic_certificate"),
    ("corpus.corpus", "grpinv.corpus", "corpus"),
    ("corpus.run_suites", "grpinv.corpus", "run_suites"),
    ("cli.main", "grpinv.cli", "main"),
    ("cli.build_parser", "grpinv.cli", "_build_parser"),
    ("cli.parse_spec", "grpinv.cli", "parse_spec"),
)

SUITE_NAMES = (
    "triangle", "bounds", "tozp", "subadd", "product", "coordinate", "miller_moreno", "examples",
)

# Per-layer metrics in output order, with units; see README.md for the
# end-to-end metric each should move.
LAYER_METRICS = {
    "groups.build_s": "s",
    "groups.build_calls": "count",
    "groups.validate_table_s": "s",
    "groups.validate_table_calls": "count",
    "lattice.all_subgroups_s": "s",
    "lattice.all_subgroups_calls": "count",
    "lattice.all_subgroups_misses": "count",
    "lattice.subgroups": "count",
    "lattice.cyclic_subgroups_s": "s",
    "lattice.closure_s": "s",
    "lattice.as_group_s": "s",
    "lattice.as_group_calls": "count",
    "iso.embeds_s": "s",
    "iso.embeds_calls": "count",
    "iso.embeds_hit_ratio": "ratio",
    "iso.are_isomorphic_s": "s",
    "iso.are_isomorphic_calls": "count",
    "iso.is_embedding_s": "s",
    "cover.make_instance_s": "s",
    "cover.candidates_in": "count",
    "cover.candidates_kept": "count",
    "cover.points": "count",
    "cover.min_cover_s": "s",
    "cover.nodes": "count",
    "cover.nodes_per_s": "1/s",
    "cover.validate_cover_s": "s",
    "invariants.ic_self_s": "s",
    "invariants.sigma_self_s": "s",
    "invariants.sigma_c_self_s": "s",
    "invariants.certificate_sound_s": "s",
    "invariants.validate_optimal_s": "s",
    "corpus.corpus_s": "s",
    **{f"corpus.{suite}_s": "s" for suite in SUITE_NAMES},
    "corpus.checks": "count",
    "corpus.certificates": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order, so a parent precedes its children
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._lattices: dict[int, object] = {}  # keeps ids unique while counting
        self._budgets: list = []
        self._caches: dict[str, tuple] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer function at every import site under `grpinv`."""
        modules = [m for n, m in list(sys.modules.items()) if n == "grpinv" or n.startswith("grpinv.")]
        hooks = {
            "lattice.all_subgroups": self._after_lattice,
            "cover.make_instance": self._after_instance,
            "cover.min_cover": self._after_min_cover,
            "corpus.run_suites": self._after_run_suites,
        }
        for name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # the layer no longer has this function; its metrics read 0
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info())
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        corpus = sys.modules.get("grpinv.corpus")
        for suite, fn in list(getattr(corpus, "SUITES", {}).items()):
            corpus.SUITES[suite] = self.wrap(f"corpus.{suite}", fn, self._after_suite)
        cli = sys.modules.get("grpinv.cli")
        parser_class = getattr(cli, "_ArgumentParser", None)
        if parser_class is not None:
            self._replace(parser_class, "parse_args", self.wrap("cli.parse_args", parser_class.parse_args))
        cover = sys.modules.get("grpinv.cover")
        budget = getattr(cover, "_Budget", None)
        if budget is not None:
            self._replace(cover, "_Budget", _counting_budget(budget, self._budgets))

    def uninstall(self) -> None:
        corpus = sys.modules.get("grpinv.corpus")
        for suite, fn in list(getattr(corpus, "SUITES", {}).items()):
            corpus.SUITES[suite] = getattr(fn, "__wrapped__", fn)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_lattice(self, _args, _kwargs, lattice) -> None:
        # A cache hands back the object it made on the miss, so each
        # distinct result is one enumeration.
        if id(lattice) not in self._lattices:
            self._lattices[id(lattice)] = lattice
            self.counts["lattice.subgroups"] += len(getattr(lattice, "all", ()))

    def _after_instance(self, args, kwargs, inst) -> None:
        candidates = args[1] if len(args) > 1 else kwargs.get("candidate_sets", ())
        self.counts["cover.candidates_in"] += len(candidates)
        self.counts["cover.points"] += getattr(inst, "universe_size", 0)
        self.counts["cover.candidates_kept"] += len(getattr(inst, "kept", ()))

    def _after_min_cover(self, _args, _kwargs, _solution) -> None:
        while self._budgets:
            budget = self._budgets.pop()
            self.counts["cover.nodes"] += budget.issued - budget.left

    def _after_suite(self, _args, _kwargs, results) -> None:
        self.counts["corpus.checks"] += len(results)

    def _after_run_suites(self, _args, _kwargs, report) -> None:
        self.counts["corpus.certificates"] += getattr(report, "certificates_checked", 0)

    def export(self) -> dict:
        """Spans and counts as plain JSON-ready data."""
        counts = Counter(self.counts)
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            counts[f"{name}.hits"] += after.hits - before.hits
            counts[f"{name}.misses"] += after.misses - before.misses
        return {
            "names": list(self.names),
            "spans": [list(row) for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end)],
            "counts": dict(counts),
        }


def _counting_budget(base, sink: list):
    class CountingBudget(base):
        __slots__ = ("issued",)

        def __init__(self, nodes):
            super().__init__(nodes)
            self.issued = nodes
            sink.append(self)

    return CountingBudget


def raw_totals(trace: dict) -> Counter:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds; plus counts."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for nid, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = Counter(trace["counts"])
    for i, (nid, parent, start, end) in enumerate(spans):
        name = names[nid]
        duration = end - start
        totals[f"calls:{name}"] += 1
        totals[f"self:{name}"] += duration - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][1]
        if p < 0:
            totals[f"incl:{name}"] += duration
    totals["spans"] += len(spans)
    return totals


def layer_metrics(raw: Counter) -> dict[str, float]:
    """Every per-layer metric except the CLI parts and trace overhead,
    which need more than one trace to compute."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = raw["iso.embeds.hits"]
    misses = raw["iso.embeds.misses"]
    return {
        "groups.build_s": raw["incl:groups.build"],
        "groups.build_calls": raw["calls:groups.build"],
        "groups.validate_table_s": raw["incl:groups.validate_table"],
        "groups.validate_table_calls": raw["calls:groups.validate_table"],
        "lattice.all_subgroups_s": raw["incl:lattice.all_subgroups"],
        "lattice.all_subgroups_calls": raw["calls:lattice.all_subgroups"],
        "lattice.all_subgroups_misses": raw["lattice.all_subgroups.misses"],
        "lattice.subgroups": raw["lattice.subgroups"],
        "lattice.cyclic_subgroups_s": raw["incl:lattice.cyclic_subgroups"],
        "lattice.closure_s": raw["incl:lattice.closure"],
        "lattice.as_group_s": raw["incl:lattice.as_group"],
        "lattice.as_group_calls": raw["calls:lattice.as_group"],
        "iso.embeds_s": raw["incl:iso.embeds"],
        "iso.embeds_calls": raw["calls:iso.embeds"],
        "iso.embeds_hit_ratio": ratio(hits, hits + misses),
        "iso.are_isomorphic_s": raw["incl:iso.are_isomorphic"],
        "iso.are_isomorphic_calls": raw["calls:iso.are_isomorphic"],
        "iso.is_embedding_s": raw["incl:iso.is_embedding"],
        "cover.make_instance_s": raw["incl:cover.make_instance"],
        "cover.candidates_in": raw["cover.candidates_in"],
        "cover.candidates_kept": raw["cover.candidates_kept"],
        "cover.points": raw["cover.points"],
        "cover.min_cover_s": raw["incl:cover.min_cover"],
        "cover.nodes": raw["cover.nodes"],
        "cover.nodes_per_s": ratio(raw["cover.nodes"], raw["incl:cover.min_cover"]),
        "cover.validate_cover_s": raw["incl:cover.validate_cover"],
        "invariants.ic_self_s": raw["self:invariants.ic"],
        "invariants.sigma_self_s": raw["self:invariants.sigma"],
        "invariants.sigma_c_self_s": raw["self:invariants.sigma_c"],
        "invariants.certificate_sound_s": raw["incl:invariants.certificate_sound"],
        "invariants.validate_optimal_s": raw["incl:invariants.validate_optimal"],
        "corpus.corpus_s": raw["incl:corpus.corpus"],
        **{f"corpus.{s}_s": raw[f"incl:corpus.{s}"] for s in SUITE_NAMES},
        "corpus.checks": raw["corpus.checks"],
        "corpus.certificates": raw["corpus.certificates"],
        "trace.spans": raw["spans"],
    }


def cli_parts(raw: Counter) -> dict[str, float]:
    """Parse and main time of one CLI invocation's trace."""
    return {
        "cli.parse_s": raw["incl:cli.build_parser"] + raw["incl:cli.parse_args"] + raw["incl:cli.parse_spec"],
        "cli.main_s": raw["incl:cli.main"],
    }
