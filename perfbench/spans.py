"""Span recorder for the traced run, measuring nfakit's layers from outside.

The recorder swaps wrappers in for the public names through which the
layers call one another (`nfakit.cli.parse_nfa`, `nfakit.enumeration.mul`,
`nfakit.boolmat.mul` as seen by `power`, ...) and puts the originals back
when the `installed` block ends. Each call becomes a Span; spans stay in
memory and are written out once, after the run.

Two intervals are kept per span: [start, end] around the wrapped call
itself, and [outer_start, outer_end], which also covers the wrapper's own
bookkeeping and counters. A parent's self time subtracts its children's
outer intervals, so instrumentation cost is charged to no layer.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name). A name missing from the module (the
# program moved on) is skipped and reported, never an error.
TARGETS = (
    ("nfakit.cli", "main", "cli.main"),
    ("nfakit.cli", "parse_nfa", "cli.parse_nfa"),
    ("nfakit.cli", "parse_graph", "cli.parse_graph"),
    ("nfakit.cli", "parse_ov", "cli.parse_ov"),
    ("nfakit.cli", "serialize_nfa", "cli.serialize_nfa"),
    ("nfakit.cli", "Nfa", "automata.Nfa"),
    ("nfakit.cli", "enumerate_fast", "enumeration.enumerate_fast"),
    ("nfakit.cli", "enumerate_naive", "accept.enumerate_naive"),
    ("nfakit.cli", "accepts_length", "accept.accepts_length"),
    ("nfakit.cli", "simulate", "accept.simulate"),
    ("nfakit.cli", "reduce_triangle", "reductions.reduce_triangle"),
    ("nfakit.cli", "reduce_ov", "reductions.reduce_ov"),
    ("nfakit.enumeration", "pad_with_chain", "enumeration.pad_with_chain"),
    ("nfakit.enumeration", "require_unary_acyclic", "automata.require_unary_acyclic"),
    ("nfakit.enumeration", "adjacency_matrix", "automata.adjacency_matrix"),
    ("nfakit.enumeration", "Nfa", "automata.Nfa"),
    ("nfakit.enumeration", "mul", "boolmat.mul"),
    ("nfakit.accept", "require_unary_acyclic", "automata.require_unary_acyclic"),
    ("nfakit.accept", "adjacency_matrix", "automata.adjacency_matrix"),
    ("nfakit.accept", "power", "boolmat.power"),
    ("nfakit.boolmat", "mul", "boolmat.mul"),
    ("nfakit.reductions", "Nfa", "automata.Nfa"),
    ("nfakit.reductions", "mul", "boolmat.mul"),
)


def mul_counts(args, result):
    """Work of one product: rows of the left operand and the bits they OR in."""
    try:
        left = args[0]
        rows = left.rows
        return {
            "dim": left.dim,
            "row_ors": sum(map(int.bit_count, rows)),
            "zero_rows": rows.count(0),
            "nnz_out": sum(map(int.bit_count, result.rows)),
        }
    except (AttributeError, IndexError, TypeError):
        return None


COUNTERS = {"boolmat.mul": mul_counts}


class Span:
    __slots__ = ("name", "query", "parent", "start", "end", "outer_start", "outer_end", "counts")

    def __init__(self, name, query, parent, outer_start):
        self.name = name
        self.query = query
        self.parent = parent
        self.outer_start = outer_start
        self.start = self.end = self.outer_end = outer_start
        self.counts = None

    def duration(self) -> float:
        return self.end - self.start

    def instrumentation(self) -> float:
        return (self.outer_end - self.outer_start) - (self.end - self.start)

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Spans of every traced query of one run, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self.query, stack[-1] if stack else None, clock())
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.outer_end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
                span.outer_end = clock()
            return result

        return traced

    @contextmanager
    def installed(self, query_id):
        """Trace one query: wrap every target, restore every original after."""
        self.query = query_id
        originals = []
        try:
            for module_name, attr, name in TARGETS:
                module = sys.modules.get(module_name)
                if module is None or not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self.query = None

    def self_times(self) -> list[float]:
        """Span duration minus the outer intervals of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.outer_end - span.outer_start
        return [span.duration() - c for span, c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, self_s in zip(self.spans, self.self_times()):
                handle.write(json.dumps({**span.as_dict(), "self": self_s}) + "\n")


def missing_targets() -> list[str]:
    """Targets absent from the loaded program, reported with the results."""
    return [
        f"{m}.{a}"
        for m, a, _ in TARGETS
        if m not in sys.modules or not hasattr(sys.modules[m], a)
    ]
