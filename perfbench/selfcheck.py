"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced on tiny instances and checks that
nfakit agrees with the benchmark's oracles (both verdicts occurring where
a workload decides yes/no), that span self times are non-negative and
spans nest, that every wrapped name is restored, even when a traced call
raises, and that the report names the Python version, nproc, CPU model and
seed. It also checks that BENCHMARK.json lists exactly the metrics of
metrics.py, and that the benchmark exits non-zero without a result when
the checkout holds no program. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys

import metrics
import run
import spans
import workloads

SEED = 7
SECONDS = 0.4
DECISION_WORKLOADS = ("accept-cyclic", "reductions")


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def check_restored(where: str) -> None:
    """Every target names the object its home module defines, not a wrapper."""
    for module_name, attr, _ in spans.TARGETS:
        value = getattr(sys.modules.get(module_name), attr, None)
        if value is None:
            continue
        home = sys.modules.get(getattr(value, "__module__", ""))
        if getattr(home, getattr(value, "__qualname__", ""), None) is not value:
            fail(f"{module_name}.{attr} still wrapped {where}")


def check_spans(recorder) -> None:
    selfs = recorder.self_times()
    for span, self_s in zip(recorder.spans, selfs):
        if self_s < -1e-9:
            fail(f"negative self time {self_s} for {span.name}")
        if span.parent is not None:
            parent = recorder.spans[span.parent]
            if parent.query != span.query:
                fail(f"{span.name} crosses queries")
            if not parent.start <= span.outer_start <= span.outer_end <= parent.end:
                fail(f"{span.name} does not nest in {parent.name}")


def check_report(outcome) -> None:
    text = "\n".join(outcome.report)
    env = run.environment()
    for needle in (f"python {env['python']}", f"nproc {env['nproc']}", env["cpu"], f"seed={SEED}"):
        if needle not in text:
            fail(f"report lacks {needle!r}")


def check_workload(workload: str) -> None:
    sizes = workloads.TINY_SIZES[workload]
    for trace_on, chosen in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        outcome = run.benchmark(workload, SEED, SECONDS, trace_on, sizes)
        result = outcome.result
        if result["failed"] or not result["correct"]:
            fail(f"{workload}: nfakit and the oracles disagree: {outcome.run.errors}")
        if list(result["metrics"]) != [m.name for m in chosen]:
            fail(f"{workload}: metric names differ from metrics.py")
        if workload in DECISION_WORKLOADS and set(outcome.run.verdicts) != {"yes", "no"}:
            fail(f"{workload}: verdicts {dict(outcome.run.verdicts)}, want both")
        check_report(outcome)
        if trace_on:
            check_restored(f"after the traced {workload} run")
            check_spans(outcome.recorder)
            values = result["metrics"]
            if workload in workloads.ENUM_WORKLOADS and values["accept.enumerate_naive_s"]["value"] <= 0:
                fail(f"{workload}: no naive-engine yardstick")
            if workload == "reductions" and not all(
                values[name]["value"] > 0 for name in ("reductions.reduce_triangle_s", "reductions.reduce_ov_s")
            ):
                fail("reductions: a query kind went untraced")
            coverage = values["trace.coverage"]["value"]
            if not 0.9 <= coverage <= 1.0:
                fail(f"{workload}: trace.coverage {coverage}")
        print(f"ok {workload} trace={int(trace_on)}: {result['attempted']} queries")


def check_restored_on_error() -> None:
    cli = run.import_nfakit()
    recorder = spans.Recorder()
    try:
        with recorder.installed(0):
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["accept-length", os.path.join(run.WORK, "missing.nfa"), "1"])
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    check_restored("after an exception")
    if not recorder.spans or recorder.spans[0].name != "cli.main":
        fail("the traced call recorded no cli.main span")
    print("ok wrappers restored after an exception")


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    for key, defined in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        want = [{"name": m.name, "unit": m.unit, "better": m.better} for m in defined]
        if key == "end_to_end":
            for entry, m in zip(want, defined):
                entry["bound"] = m.bound
        if spec[key] != want:
            fail(f"BENCHMARK.json {key} differs from metrics.py")
    print("ok BENCHMARK.json matches metrics.py")


def check_no_program() -> None:
    """In a directory with only the benchmark, exit non-zero and print no result."""
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        argv = [sys.executable, "perfbench/run.py", "--workload", workloads.WORKLOADS[0],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"without a program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok no program: exit {proc.returncode}")


def main() -> int:
    print(f"selfcheck on python {platform.python_version()}, seed {SEED}")
    check_benchmark_json()
    for workload in workloads.WORKLOADS:
        check_workload(workload)
    check_restored_on_error()
    check_no_program()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
