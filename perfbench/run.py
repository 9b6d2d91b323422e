"""End-to-end and per-layer benchmark of the nfakit command line.

    python3 perfbench/run.py --workload enum-window --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nfakit is imported from ./src.
Each query is an in-process `nfakit.cli.main(argv)` call on input files
written by the benchmark, with stdout captured and checked against the
oracles in workloads.py. Queries run in a closed loop (one client, no
extra threads) and no input repeats within a process, so a cross-query
cache cannot score; interpreter start-up is excluded from every time.
A fixed reference task runs between queries and between set-ups, and the
end-to-end times are reported in the nominal seconds it defines, so the
host's speed drift cancels (see hostspeed.py); wall seconds go to the report.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run
that interleaves untraced queries with traced ones (see spans.py) and
reports the per-layer metrics. The last stdout line is one JSON object;
the lines before it are the report. Inputs and the span file go to
./.perfbench_work/, the only place the benchmark writes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

import hostspeed
import metrics
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(SRC, "nfakit", "cli.py")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUPS = 7  # set-ups per run; setup_s is their median
BATCH = 2  # instances generated per set-up; the rest are made between queries


class ProgramMissing(Exception):
    """The checkout holds no importable nfakit source."""


def import_nfakit():
    """Import nfakit.cli afresh from ./src, dropping any loaded copy first."""
    for name in [m for m in sys.modules if m == "nfakit" or m.startswith("nfakit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("nfakit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"nfakit was imported from {cli.__file__}, not {SRC}")
    return cli


def run_query(cli, query) -> tuple[float, str | None]:
    """Issue the query's calls in order; return (wall seconds, error or None)."""
    wall = 0.0
    for call in query.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            begin = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except (Exception, SystemExit) as exc:
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - begin
        if code != call.exit:
            return wall, f"{call.argv[0]}: exit {code!r}, expected {call.exit} ({err.getvalue().strip()[:200]})"
        if out.getvalue() != call.stdout:
            return wall, f"{call.argv[0]}: stdout differs from the oracle"
    return wall, None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu}


class Run:
    """One benchmark run: the instance stream, output checks and tallies."""

    def __init__(self, workload, seed, sizes, workdir):
        self.workload, self.seed, self.sizes, self.workdir = workload, seed, sizes, workdir
        self.index = 0
        self.warm_ups = 0
        self.queue = []  # instances made during set-up, used first
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.verdicts = Counter()

    def new_query(self, naive=False):
        prefix = os.path.join(self.workdir, f"q{self.index}")
        query = workloads.make_query(self.workload, self.seed, self.index, prefix, self.sizes, naive)
        self.index += 1
        return query

    def next_query(self):
        return self.queue.pop(0) if self.queue else self.new_query()

    def ask(self, cli, query) -> float:
        """Run one query after a collection, tally its check, return its wall time."""
        gc.collect()
        wall, error = run_query(cli, query)
        self.tally(query, error)
        return wall

    def tally(self, query, error) -> None:
        self.attempted += 1
        if error is None:
            self.verdicts[query.verdict] += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def set_up(self):
        """Import, generate a batch with oracle answers, one warm-up query.

        Warm-up j is the same instance in every run, whatever the seed,
        with the midpoint of every size range, so the set-up time does not
        swing with the seed; no timed query uses it.
        """
        begin = time.perf_counter()
        cli = import_nfakit()
        self.queue.extend(self.new_query() for _ in range(BATCH))
        prefix = os.path.join(self.workdir, f"w{self.warm_ups}")
        sizes = workloads.midpoint_sizes(self.sizes)
        self.ask(cli, workloads.make_query(self.workload, "warm-up", self.warm_ups, prefix, sizes))
        self.warm_ups += 1
        return time.perf_counter() - begin, cli


def timed(run, cli, seconds, clock) -> list[int]:
    """Closed loop of queries, each followed by a reference; returns clock indices."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(clock.add(run.ask(cli, run.next_query())))
    return samples


def ask_traced(run, cli, recorder, query, kind, qid) -> dict:
    boolmat = sys.modules["nfakit.boolmat"]
    gc.collect()
    before = boolmat.mul_calls()
    with recorder.installed(qid):
        wall, error = run_query(cli, query)
    products = boolmat.mul_calls() - before
    if kind == "fast" and query.squarings is not None and products != query.squarings:
        error = error or f"{products} products, expected ceil(log2 n) = {query.squarings}"
    run.tally(query, error)
    return {"id": qid, "kind": kind, "wall": wall, "products": products}


def traced(run, cli, seconds, recorder):
    """Run every third query untraced, the rest traced; enum workloads add a naive one.

    The period is odd, so a workload whose query kinds alternate
    (reductions: four kinds in turn) has every kind traced.
    """
    untraced, fast, naive = [], [], []
    deadline = time.perf_counter() + seconds
    while not fast or time.perf_counter() < deadline:
        query = run.next_query()
        if (len(untraced) + len(fast)) % 3 == 0:
            untraced.append(run.ask(cli, query))
            continue
        fast.append(ask_traced(run, cli, recorder, query, "fast", len(fast) + len(naive)))
        if run.workload in workloads.ENUM_WORKLOADS:
            query = run.new_query(naive=True)
            naive.append(ask_traced(run, cli, recorder, query, "naive", len(fast) + len(naive)))
    return untraced, fast, naive


@dataclass
class Outcome:
    report: list[str]  # human-readable lines printed before the result
    result: dict  # the JSON object printed last
    run: Run
    recorder: spans.Recorder | None  # set by a traced run


def benchmark(workload, seed, seconds, trace_on, sizes=None) -> Outcome:
    """Run one benchmark of `seconds` measured time on one workload."""
    if not os.path.isfile(PROGRAM):
        raise ProgramMissing(f"no nfakit source at {PROGRAM}")
    sizes = sizes or workloads.FULL_SIZES[workload]
    workdir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(workload, seed, sizes, workdir)
    env = environment()
    report = [
        f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace_on)}",
        f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}",
        "method: closed loop, one client, no extra threads; in-process nfakit.cli.main(argv) "
        "per query; no input repeats; interpreter start-up excluded",
    ]
    recorder = None
    try:
        clock = hostspeed.HostClock()
        setups = []
        for _ in range(SETUPS):
            seconds_taken, cli = run.set_up()
            setups.append(clock.add(seconds_taken))
        if trace_on:
            recorder = spans.Recorder()
            untraced, traced_q, naive_q = traced(run, cli, seconds, recorder)
            values = metrics.per_layer(recorder, traced_q, naive_q, untraced)
            spans_path = os.path.join(WORK, f"spans-{workload}.jsonl")
            recorder.write(spans_path)
            missing = spans.missing_targets()
            report.append(
                f"traced queries {len(traced_q)} (+{len(naive_q)} naive), untraced {len(untraced)}, "
                f"spans {len(recorder.spans)} -> {os.path.relpath(spans_path, ROOT)}"
            )
            report.append("unwrapped targets: " + (", ".join(missing) if missing else "none"))
            chosen = metrics.PER_LAYER
        else:
            samples = timed(run, cli, seconds, clock)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = metrics.end_to_end(
                [clock.nominal(i) for i in samples], [clock.nominal(i) for i in setups],
                run.attempted, run.failed, peak,
            )
            report.append(
                f"queries {len(samples)}; query_s.tail is p{metrics.tail_percentile(len(samples))}; "
                f"setup_s is the median of {SETUPS} set-ups {[round(clock.nominal(i), 4) for i in setups]}"
            )
            report.append(
                f"times in nominal seconds (hostspeed.py); host speed factor {clock.speed():.3f} over "
                f"{len(clock.refs)} reference runs; wall seconds: query p50 "
                f"{statistics.median(clock.walls[i][0] for i in samples):.4f}, "
                f"setup {statistics.median(clock.walls[i][0] for i in setups):.4f}"
            )
            chosen = metrics.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(
        f"fail_share {run.failed / run.attempted:.4f} ({run.failed}/{run.attempted}, warm-ups included); "
        "verdicts " + ", ".join(f"{k}={v}" for k, v in sorted(run.verdicts.items()))
    )
    report.extend(f"failure: {e}" for e in run.errors)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen},
    }
    return Outcome(report, result, run, recorder)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in outcome.report:
        print(line)
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
