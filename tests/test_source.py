"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nfakit"


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may live in one
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_source_has_no_global_statements():
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
        for name in node.names
    ]
    assert found == []


def test_package_source_has_no_functools_caches():
    # a functools cache is process-global state that needs no `global`
    # statement: it holds arguments and results alive between calls
    caches = {"cache", "lru_cache"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names if alias.name in caches]
            elif isinstance(node, ast.Attribute) and node.attr in caches:
                is_functools = isinstance(node.value, ast.Name) and node.value.id in modules
                names = [node.attr] if is_functools else []
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}:{name}" for name in names)
    assert found == []


def test_only_automata_and_cli_read_transitions():
    # automata encodes transitions into bit rows, adjacency_matrix as full
    # rows for the matrix engines and _successor_rows as simulate's
    # Shift-And table; the other engines take their rows from these two
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in ("automata.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "transitions"
    ]
    assert found == []


def test_only_boolmat_builds_four_russians_tables():
    # boolmat._row_times owns the tables' shape: it grows the list by one
    # slot per group of 8 rows and fills a slot with a 256-entry table,
    # [0] + [None] * 255; mul, simulate, row_times_power and enumerate_fast
    # hand it a bare [], so a second builder of tables, or a caller that
    # pre-sizes the list, fails here
    kernel = None
    padded, entries, per_group = [], [], []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name == "_row_times":
                kernel = (path.name, range(node.lineno, node.end_lineno + 1))
            if not isinstance(node, ast.BinOp):
                continue
            source = ast.unparse(node)
            if source == "[0] + [None] * 255":
                entries.append((path.name, node.lineno))
            if not source.startswith("[None] * "):
                continue
            if re.search(r">> 3|// 8", source):
                per_group.append(f"{path.name}:{node.lineno}")
            if "_row_times" in text:
                padded.append((path.name, node.lineno))
    assert per_group == []
    assert kernel and kernel[0] == "boolmat.py" and len(padded) == 2
    assert all(name == kernel[0] and line in kernel[1] for name, line in padded)
    assert len(entries) == 1 and entries[0][0] == "boolmat.py"
    for module, caller in (
        ("boolmat.py", "mul"),
        ("accept.py", "simulate"),
        ("boolmat.py", "row_times_power"),
        ("enumeration.py", "enumerate_fast"),
    ):
        (func,) = [
            node
            for node in ast.parse((SOURCE / module).read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name == caller
        ]
        assert any(isinstance(node, ast.List) and not node.elts for node in ast.walk(func))


def test_only_automata_builds_bit_masks_from_bytes():
    # automata._mask builds every state mask (finals and both Shift-And
    # masks) with the package's one int.from_bytes call
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("from_bytes")
    ]
    assert len(found) == 1 and found[0].startswith("automata.py:")


def test_line_breaks_and_integer_tokens_each_have_one_owner():
    # cli._lines alone decides where a line ends (str.splitlines() also
    # breaks at U+2028 and others), cli._int_token alone turns a token into
    # an integer with an error, and cli._is_decimal alone says which tokens
    # are numbers, for _int_token and for parse_nfa's bulk lane, so each
    # input rule and its errors live in one place
    splitters = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert splitters == []
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    (owner,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_int_token"
    ]
    conversions = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "int"
        and len(node.args) + len(node.keywords) == 2
    ]
    assert conversions and all(owner.lineno <= line <= owner.end_lineno for line in conversions)
    (rule,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_is_decimal"
    ]
    spellings = [
        (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("isdigit", "isdecimal", "isnumeric")
        or isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.search(r"0-9|\\d|0123456789", node.value)
    ]
    assert spellings
    assert all(name == "cli.py" and rule.lineno <= at <= rule.end_lineno for name, at in spellings)
    users = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_is_decimal"
    }
    assert users == {"_int_token", "_plain_transitions"}


def test_the_package_builds_every_nfa_through_trusted_nfa():
    # the package builds its automata from checked values, so all of them
    # go through automata._trusted_nfa and Nfa(...) is left to outside
    # callers. That function alone calls object.__new__, on automata's own
    # Nfa: the traced benchmark (perfbench/spans.py TARGETS) replaces the
    # name Nfa in cli, enumeration and reductions with a wrapper function,
    # so object.__new__(Nfa) there would get the wrapper, not the class
    calls, news, builder = [], [], None
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Nfa":
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "_trusted_nfa":
                builder = (path.name, range(node.lineno, node.end_lineno + 1))
        news.extend(
            (path.name, number)
            for number, line in enumerate(text.splitlines(), 1)
            if "object.__new__" in line
        )
    assert calls == []
    assert builder and builder[0] == "automata.py" and len(news) == 1
    assert all(name == builder[0] and line in builder[1] for name, line in news)


def test_traced_benchmark_targets_resolve():
    # the traced benchmark run wraps these module attributes and silently
    # skips the ones that are missing, losing those layers' metrics
    spans = SOURCE.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]
    ]
    assert targets
    unresolved = {
        (module, attribute)
        for module, attribute, _span in targets
        if not hasattr(importlib.import_module(module), attribute)
    }
    # accept no longer imports boolmat.power: accepts_length goes
    # through row_times_power
    assert unresolved <= {("nfakit.accept", "power")}


def test_benchmark_selfcheck_passes_on_a_copy(tmp_path):
    # the benchmark imports nfakit from its checkout's src/, so a change to
    # the package that breaks the harness fails here, on a copy of both
    root = SOURCE.parent.parent
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_no_parser_holds_a_whole_files_lines():
    # each parser reads its header, then streams its records from the one
    # _content_lines iterator, so none keeps every line of a file at once
    found = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "list(_content_lines(" in line
    ]
    assert found == []


def test_only_the_loader_decodes_bytes():
    # cli._load decodes every input file, after skipping a leading byte-order
    # mark, so the mark and the not-UTF-8 line count are handled in one place
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    (loader,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_load"
    ]
    decodes = [
        (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "decode"
    ]
    assert decodes
    assert all(
        name == "cli.py" and loader.lineno <= line <= loader.end_lineno for name, line in decodes
    )
