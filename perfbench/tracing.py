"""Outside-in layer tracing: wrap olp's public functions from the benchmark.

Each wrapped call records a span ``(name, start, end, parent, job)`` in
memory.  A span's self time is its duration minus the durations of its
direct children; a single thread runs everything, so children never
overlap.  Every module binding of a wrapped function is patched, not only
the defining module's, because the engines call each other through names
they imported (``prefwfs.c_op``, ``brewka.kleene``, ``cli.parse_program``).

``is_active``, ``defeats`` and ``is_consistent`` stay unwrapped: they are
the innermost predicates and a wrapper would cost more than their work.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable

LAYERS = {
    "syntax": ("validate_order",),
    "parser": ("parse_program", "render_program"),
    "fixpoint": ("kleene", "kleene_trace", "iterate_union"),
    "classical": (
        "reduct", "cn", "t_step", "c_op", "a_op", "head_candidates",
        "answer_sets", "well_founded_fixpoint", "well_founded_model",
    ),
    "preference": (
        "tp_step", "cp_op", "ap_op", "preferred_answer_sets", "lfp_ap_fixpoint", "lfp_ap",
    ),
    "prefwfs": (
        "d_set", "d_set_simplistic", "tpn_step", "cpn_op", "apn_op",
        "preferred_wfs_fixpoint", "preferred_wfs_set", "preferred_wf_model",
        "defeat_contexts",
    ),
    "brewka": (
        "cl", "c_star", "defeated_rules", "t_star_step", "c_star_pref",
        "brewka_wf_iterates", "brewka_wf_set",
    ),
    "oracle": ("enumerate_subsets", "oracle_cn", "oracle_answer_sets", "check_theorems"),
    "cli": ("main",),
}

# A kleene span whose nearest caller other than kleene_trace is one of these
# runs a top-level (outer) fixpoint; any other kleene span is an inner one.
TOP_FIXPOINTS = frozenset({
    "classical.well_founded_fixpoint",
    "preference.lfp_ap_fixpoint",
    "prefwfs.preferred_wfs_fixpoint",
    "brewka.brewka_wf_iterates",
})

# Counters whose value is a number of distinct inputs, not a sum.
DISTINCT = ("classical.cn", "brewka.cl")


class Tracer:
    """Patches olp's functions on ``install`` and restores them on ``uninstall``.

    ``job`` names the job that later spans belong to.  ``take`` returns the
    per-(metric, job) values recorded since the last ``take`` and clears
    the spans, keeping them in ``last_spans`` for ``write_spans``.
    """

    def __init__(self):
        self.job: str | None = None
        self.spans: list[list] = []
        self.last_spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "olp" or name.startswith("olp.")]
        for layer, names in LAYERS.items():
            defining = sys.modules[f"olp.{layer}"]
            for name in names:
                original = getattr(defining, name)
                qualname = f"{layer}.{name}"
                wrapper = self._wrap(qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + qualname.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            record = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(record, args, result)
            return result

        return wrapper

    def _wrap_generator(self, qualname: str, fn: Callable) -> Callable:
        # Generators interleave with their consumer, so they get no span:
        # only calls and yielded items are counted, and each yield is also
        # credited to the span consuming it.
        counts, spans, stack = self._counts, self.spans, self._stack

        def wrapper(*args, **kwargs):
            counts[(qualname + ".calls", self.job)] += 1
            for item in fn(*args, **kwargs):
                counts[(qualname + ".yielded", self.job)] += 1
                if stack:
                    counts[(spans[stack[-1]][0] + ".candidates", self.job)] += 1
                yield item

        return wrapper

    def _observe_syntax_validate_order(self, record, args, result):
        self._counts[("syntax.order_pairs", self.job)] += len(result.pairs)

    def _observe_fixpoint_kleene(self, record, args, result):
        parent = record[3]
        while parent >= 0 and self.spans[parent][0] == "fixpoint.kleene_trace":
            parent = self.spans[parent][3]
        outer = parent >= 0 and self.spans[parent][0] in TOP_FIXPOINTS
        key = "fixpoint.outer_iterations" if outer else "fixpoint.inner_iterations"
        self._counts[(key, self.job)] += len(result[1]) - 1

    def _observe_classical_cn(self, record, args, result):
        self._distinct["classical.cn"].add((self.job, tuple(r.name for r in args[0])))

    def _observe_brewka_cl(self, record, args, result):
        self._distinct["brewka.cl"].add((self.job, frozenset(r.name for r in args[0])))

    def _observe_classical_answer_sets(self, record, args, result):
        self._counts[("classical.answer_sets.found", self.job)] += len(result)

    def take(self) -> Counter:
        """Per-(metric, job) calls, self times and counters since the last take."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        values = Counter(self._counts)
        self._counts.clear()
        for i, (name, start, end, _, job) in enumerate(spans):
            values[(name + ".calls", job)] += 1
            values[(name + ".self_s", job)] += end - start - child[i]
        for name, seen in self._distinct.items():
            for job, _ in seen:
                values[(name + ".distinct", job)] += 1
            seen.clear()
        self.last_spans = spans[:]
        spans.clear()
        return values

    def write_spans(self, path) -> None:
        """Write the spans of the last ``take`` as JSON lines, with indices."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, job) in enumerate(self.last_spans):
                out.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "job": job}) + "\n")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(values: Counter) -> dict[str, float]:
    """Collapse per-(metric, job) values into the per-layer metrics."""
    total: Counter = Counter()
    for (name, _), value in values.items():
        total[name] += value
    derived = {
        "classical.cn.distinct_ratio": ratio(total["classical.cn.distinct"], total["classical.cn.calls"]),
        "brewka.cl.distinct_ratio": ratio(total["brewka.cl.distinct"], total["brewka.cl.calls"]),
        "classical.answer_sets.hit_ratio": ratio(
            total["classical.answer_sets.found"], total["classical.answer_sets.candidates"]),
    }
    return {**total, **derived}
