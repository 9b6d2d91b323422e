"""The benchmark's metrics: definitions, and how each is computed.

BENCHMARK.json carries the name, unit, direction and bound of each
metric; the self-check holds the two in step. The layer of each metric
and, for a per-layer metric, the end-to-end metric and workload it should
move are recorded here only, as BENCHMARK.json entries take no other keys.

End-to-end times are in nominal seconds (see hostspeed.py): wall time
scaled by a reference task timed around each query and set-up, so the
host's own speed drift cancels. The report prints wall seconds beside them.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

MAX_SQUARINGS = 12  # k of enum-layered (n up to 4096); enum-window has k = 11


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    # end-to-end: what is measured; per-layer: what the metric should move
    about: str
    bound: float | None = None  # end-to-end only: allowed worsening share


END_TO_END = (
    Metric("query_s.p50", "s", "lower", "end-to-end", "median query time, nominal seconds", 0.25),
    Metric(
        "query_s.tail", "s", "lower", "end-to-end",
        "highest percentile with >= 10 samples beyond it, nominal seconds; the report names it", 0.25,
    ),
    Metric(
        "queries_per_s", "1/s", "higher", "end-to-end",
        "closed loop, one client: queries over their summed nominal seconds", 0.25,
    ),
    Metric("ok_share", "share", "higher", "end-to-end", "1 - fail_share over queries attempted", 0.01),
    Metric(
        "setup_s", "s", "lower", "end-to-end",
        "median of set-ups in nominal seconds: import, generation, files, oracles, one warm-up query", 0.25,
    ),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", "peak resident memory of the process", 0.1),
)

_DENSE = "query_s.* on enum-window and accept-cyclic"
_SPARSE = "query_s.* on enum-layered; enum-window shows the dense contrast"
_OVERHEAD = "query_s.p50 on enum-layered, little on enum-window"
_REDUCTIONS = "query_s.* on reductions"

PER_LAYER = (
    Metric("boolmat.mul_s", "s", "lower", "boolmat", _DENSE),
    Metric("boolmat.row_ors", "count", "lower", "boolmat", _DENSE),
    Metric("boolmat.bytes_computed", "B", "lower", "boolmat", _DENSE + " (row_ors x ceil(dim/8), computed)"),
    Metric("boolmat.zero_row_share", "share", "higher", "boolmat", _SPARSE),
    Metric("boolmat.products", "count", "lower", "boolmat", "query_s.* on accept-cyclic and reductions (triangle half)"),
    Metric("boolmat.power_self_s", "s", "lower", "boolmat", "query_s.* on accept-cyclic and reductions (triangle half)"),
    Metric("accept.accepts_length_self_s", "s", "lower", "accept", "query_s.* on accept-cyclic and reductions (triangle half)"),
    Metric("cli.parse_s", "s", "lower", "cli", _OVERHEAD),
    Metric("cli.main_self_s", "s", "lower", "cli", _OVERHEAD),
    Metric("automata.validate_s", "s", "lower", "automata", _OVERHEAD),
    Metric("automata.adjacency_s", "s", "lower", "automata", _OVERHEAD),
    Metric("automata.nfa_init_s", "s", "lower", "automata", _OVERHEAD),
    Metric("automata.nfa_built", "count", "lower", "automata", _OVERHEAD),
    Metric("enumeration.pad_self_s", "s", "lower", "enumeration", _OVERHEAD),
    Metric("enumeration.readout_s", "s", "lower", "enumeration", _OVERHEAD),
    Metric("enumeration.enumerate_fast_s", "s", "lower", "enumeration", "query_s.* on enum-window and enum-layered"),
    Metric("reductions.reduce_triangle_s", "s", "lower", "reductions", _REDUCTIONS),
    Metric("reductions.reduce_ov_s", "s", "lower", "reductions", _REDUCTIONS),
    Metric("cli.serialize_s", "s", "lower", "cli", _REDUCTIONS),
    Metric("accept.simulate_s", "s", "lower", "accept", _REDUCTIONS),
    Metric("accept.enumerate_naive_s", "s", "lower", "accept", "none: naive-engine yardstick for enumeration.enumerate_fast_s"),
    *(
        m
        for j in range(1, MAX_SQUARINGS + 1)
        for m in (
            Metric(f"enumeration.square.{j}.s", "s", "lower", "boolmat", _SPARSE),
            Metric(f"enumeration.square.{j}.nnz_per_row", "count/row", "lower", "boolmat", _SPARSE),
        )
    ),
    Metric("trace.coverage", "share", "higher", "trace", "none: layer self times over query wall time"),
    Metric("trace.overhead", "share", "lower", "trace", "none: traced p50 over untraced p50, minus 1"),
)

# per-layer time metrics that are the self time of one or more span names
_SELF_TIME = {
    "boolmat.mul_s": ("boolmat.mul",),
    "boolmat.power_self_s": ("boolmat.power",),
    "accept.accepts_length_self_s": ("accept.accepts_length",),
    "cli.parse_s": ("cli.parse_nfa", "cli.parse_graph", "cli.parse_ov"),
    "cli.main_self_s": ("cli.main",),
    "automata.validate_s": ("automata.require_unary_acyclic",),
    "automata.adjacency_s": ("automata.adjacency_matrix",),
    "automata.nfa_init_s": ("automata.Nfa",),
    "enumeration.pad_self_s": ("enumeration.pad_with_chain",),
    # what enumerate_fast does outside its callees: finals mask and readout
    "enumeration.readout_s": ("enumeration.enumerate_fast",),
    "reductions.reduce_triangle_s": ("reductions.reduce_triangle",),
    "reductions.reduce_ov_s": ("reductions.reduce_ov",),
    "cli.serialize_s": ("cli.serialize_nfa",),
    "accept.simulate_s": ("accept.simulate",),
}


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def end_to_end(samples, setups, attempted, failed, peak_rss_mb) -> dict:
    ordered = sorted(samples)
    tail_q = tail_percentile(len(ordered))
    return {
        "query_s.p50": statistics.median(ordered),
        "query_s.tail": percentile(ordered, tail_q),
        "queries_per_s": len(ordered) / sum(ordered),
        "ok_share": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(recorder, traced, naive, untraced_walls) -> dict:
    """Per-query means over the traced queries (record dicts with id and wall)."""
    spans = recorder.spans
    selfs = recorder.self_times()
    ids = {q["id"] for q in traced}
    count = len(traced)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    instrumentation = 0.0
    fast_total = 0.0
    mul_rows = mul_zero = row_ors = bytes_computed = 0
    squares = defaultdict(list)  # j -> [(seconds, nnz_per_row)]
    squares_seen = defaultdict(int)  # enumerate_fast span index -> products so far
    for span, self_s in zip(spans, selfs):
        if span.query not in ids:
            continue
        self_by_name[span.name] += self_s
        calls_by_name[span.name] += 1
        instrumentation += span.instrumentation()
        if span.name == "enumeration.enumerate_fast":
            fast_total += span.duration()
        if span.name != "boolmat.mul":
            continue
        counts = span.counts
        if counts:
            mul_rows += counts["dim"]
            mul_zero += counts["zero_rows"]
            row_ors += counts["row_ors"]
            bytes_computed += counts["row_ors"] * ((counts["dim"] + 7) // 8)
        parent = span.parent
        if parent is not None and spans[parent].name == "enumeration.enumerate_fast":
            squares_seen[parent] += 1
            j = squares_seen[parent]
            nnz = counts["nnz_out"] / counts["dim"] if counts else 0.0
            squares[j].append((span.duration(), nnz))
    out = {name: sum(self_by_name[s] for s in spans_of) / count for name, spans_of in _SELF_TIME.items()}
    out["automata.nfa_built"] = calls_by_name["automata.Nfa"] / count
    out["enumeration.enumerate_fast_s"] = fast_total / count
    out["boolmat.row_ors"] = row_ors / count
    out["boolmat.bytes_computed"] = bytes_computed / count
    out["boolmat.zero_row_share"] = mul_zero / mul_rows if mul_rows else 0.0
    out["boolmat.products"] = sum(q["products"] for q in traced) / count
    for j in range(1, MAX_SQUARINGS + 1):
        seen = squares.get(j, [])
        out[f"enumeration.square.{j}.s"] = statistics.fmean(s for s, _ in seen) if seen else 0.0
        out[f"enumeration.square.{j}.nnz_per_row"] = statistics.fmean(r for _, r in seen) if seen else 0.0
    naive_ids = {q["id"] for q in naive}
    naive_s = [s.duration() for s in spans if s.query in naive_ids and s.name == "accept.enumerate_naive"]
    out["accept.enumerate_naive_s"] = statistics.fmean(naive_s) if naive_s else 0.0
    wall = sum(q["wall"] for q in traced)
    out["trace.coverage"] = sum(self_by_name.values()) / (wall - instrumentation)
    out["trace.overhead"] = (
        statistics.median(q["wall"] for q in traced) / statistics.median(untraced_walls) - 1
    )
    return out
