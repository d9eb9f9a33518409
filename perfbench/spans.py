"""Out-of-program tracing: spans around calls into ontokit's public functions.

The tracer rebinds each function name where the importing module looks it
up (``ontokit.cli.compute_closure``, ``ontokit.oft.build_ontology``, ...), so
the program itself is unchanged. Spans stay in memory as
``(name, start, end, parent, iteration)`` tuples and are written out once,
when the run ends. A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

CountFn = Callable[[tuple, dict, object], dict[str, float]]


def _lines(args, kwargs, result):
    return {"oft.lines": args[0].count("\n")}


def _closure_pairs(args, kwargs, result):
    closure = result[0]
    pairs = sum(map(len, closure.ancestors.values())) if closure is not None else 0
    return {"reasoner.closure_pairs": pairs}


def _membership_pairs(args, kwargs, result):
    return {"reasoner.membership_pairs": sum(map(len, result.types_of.values()))}


def _validate(args, kwargs, result):
    return {
        "validator.checked_assertions": result.checked_assertions,
        "validator.diagnostics": len(result.diagnostics),
    }


def _dot_edges(args, kwargs, result):
    return {"exchange.dot_edges": result.count(" -> ")}


def _merge(args, kwargs, result):
    return {"exchange.merge_added": result.added, "exchange.merge_conflicts": len(result.conflicts)}


def _csv_rows(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["csv_text"]
    return {"exchange.csv_rows": max(0, len(text.splitlines()) - 1)}


def _result_names(args, kwargs, result):
    return {"dlquery.result_names": len(result)}


def _eval_span(args, kwargs):
    mode = args[4] if len(args) > 4 else kwargs["mode"]
    return f"dlquery.eval_query.{mode.value}"


# (module, attribute, span name, counter). The same function is wrapped at
# every module that imports it, because each module looks it up in its own
# namespace.
TARGETS: list[tuple[str, str, object, Optional[CountFn]]] = [
    ("ontokit.oft", "parse_oft", "oft.parse_oft", _lines),
    ("ontokit.cli", "serialize_oft", "oft.serialize_oft", None),
    ("ontokit.oft", "build_ontology", "model.build_ontology", None),
    ("ontokit.cli", "build_ontology", "model.build_ontology", None),
    ("ontokit.exchange", "build_ontology", "model.build_ontology", None),
    ("ontokit.oft", "canonical_axioms", "model.canonical_axioms", None),
    ("ontokit.exchange", "canonical_axioms", "model.canonical_axioms", None),
    ("ontokit.cli", "compute_closure", "reasoner.compute_closure", _closure_pairs),
    ("ontokit.exchange", "compute_closure", "reasoner.compute_closure", _closure_pairs),
    ("ontokit.cli", "realize", "reasoner.realize", _membership_pairs),
    # The benchmark's own load (query_mix set-up) looks these up in its module.
    ("workloads", "compute_closure", "reasoner.compute_closure", _closure_pairs),
    ("workloads", "realize", "reasoner.realize", _membership_pairs),
    ("ontokit.cli", "validate", "validator.validate", _validate),
    ("ontokit.cli", "export_dot", "exchange.export_dot", _dot_edges),
    ("ontokit.cli", "merge", "exchange.merge", _merge),
    ("ontokit.cli", "ingest_csv", "exchange.ingest_csv", _csv_rows),
    ("ontokit.cli", "parse_query", "dlquery.parse_query", None),
    ("ontokit.cli", "eval_query", _eval_span, _result_names),
]

# Entry points the benchmark calls itself: (attribute of its api object, span, counter).
ENTRY_POINTS: list[tuple[str, object, Optional[CountFn]]] = [
    ("run", "cli.run", None),
    ("parse_query", "dlquery.parse_query", None),
    ("eval_query", _eval_span, _result_names),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.iteration = 0

    def wrap(self, name, fn: Callable, counter: Optional[CountFn] = None) -> Callable:
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.iteration)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[key] += value
            return result

        return traced

    def install(self, api) -> Callable[[], None]:
        """Rebind every target (skipping names the program no longer has);
        returns a function that restores the originals."""
        saved = []
        for module_name, attr, span, counter in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span, getattr(module, attr), counter))
        for attr, span, counter in ENTRY_POINTS:
            saved.append((api, attr, getattr(api, attr)))
            setattr(api, attr, self.wrap(span, getattr(api, attr), counter))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "iteration"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )
