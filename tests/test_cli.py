import math

import pytest

from nfakit import Graph, Nfa, OvInstance, ov_brute, reduce_ov, reduce_triangle
from nfakit.cli import (
    MAX_STATES,
    ParseError,
    main,
    parse_graph,
    parse_nfa,
    parse_ov,
    random_layered_nfa,
    serialize_nfa,
)

C4_GRAPH = "4 4\n0 1\n1 2\n2 3\n3 0\n"
K3_GRAPH = "3 3\n0 1\n1 2\n0 2\n"

SELF_LOOP_NFA = "states 1\nalphabet a\nstart 0\nfinal 0\n0 a 0\n"
CHAIN_NFA = "states 4\nalphabet a\nstart 0\nfinal 1 3\n0 a 1\n1 a 2\n2 a 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# formats


def test_nfa_round_trip_on_constructed_nfas():
    cases = [
        reduce_triangle(Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))).nfa,
        reduce_ov(OvInstance(2, 3, ((1, 0, 1), (0, 1, 1)), ((1, 1, 0), (0, 0, 1)))).nfa,
        Nfa(3, ("x", "y", "#"), 1, frozenset(), {(0, "#", 2), (2, "y", 0)}),
    ]
    cases.extend(random_layered_nfa(n, n) for n in (1, 2, 9, 40))
    for nfa in cases:
        assert parse_nfa(serialize_nfa(nfa)) == nfa


def test_nfa_parser_ignores_comments_and_blanks():
    text = "# header comment\n\nstates 2\nalphabet a\n start 0\nfinal 1\n\n0 a 1\n# trailing\n"
    nfa = parse_nfa(text)
    assert nfa.state_count == 2
    assert nfa.transitions == frozenset({(0, "a", 1)})


def test_nfa_parser_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_nfa("states 2\nalphabet a\nstart 0\nfinal 1\n0 a 9\n")
    assert err.value.line == 5
    with pytest.raises(ParseError):
        parse_nfa("states 2\nalphabet a\nstart 0\n0 a 1\n")  # missing final header
    with pytest.raises(ParseError):
        parse_nfa("states 2\nstates 2\nalphabet a\nstart 0\nfinal 1\n")
    with pytest.raises(ParseError):
        parse_nfa("states 2\nalphabet a\nstart 5\nfinal 1\n")
    with pytest.raises(ParseError):
        parse_nfa("states 2\nalphabet a b\nstart 0\nfinal 1\n0 c 1\n")


def test_graph_parser():
    g = parse_graph(C4_GRAPH)
    assert g.vertex_count == 4 and len(g.edges) == 4
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 0\n")  # self-loop
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n1 0\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n")  # edge count mismatch
    with pytest.raises(ParseError):
        parse_graph("3 1\n0 9\n")  # out of range


def test_ov_parser():
    inst = parse_ov("2 3\nv 101\nv 010\nw 111\nw 000\n")
    assert inst.v == ((1, 0, 1), (0, 1, 0))
    assert inst.w == ((1, 1, 1), (0, 0, 0))
    with pytest.raises(ParseError):
        parse_ov("1 3\nv 10\nw 111\n")  # short bitstring
    with pytest.raises(ParseError):
        parse_ov("1 1\nw 1\nv 1\n")  # sides out of order
    with pytest.raises(ParseError):
        parse_ov("1 1\nv 2\nw 1\n")  # non-binary digit


# ---------------------------------------------------------------------------
# subcommands


def test_validate_clean_nfa(tmp_path, capsys):
    path = write(tmp_path, "chain.nfa", "states 2\nalphabet a\nstart 0\nfinal 1\n0 a 1\n")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "initially_connected: true",
        "coaccessible: true",
        "acyclic: true",
        "unary: true",
    ]


def test_validate_cyclic_nfa_exits_1(tmp_path, capsys):
    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    assert main(["validate", path]) == 1
    assert "acyclic: false" in capsys.readouterr().out


def test_validate_malformed_nfa_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.nfa", "states 2\nalphabet a\nstart 0\nfinal 9\n")
    assert main(["validate", path]) == 2
    assert "line" in capsys.readouterr().err


def test_accept_length_self_loop(tmp_path, capsys):
    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    assert main(["accept-length", path, "1000000"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"


def test_accept_length_square_reduction(tmp_path, capsys):
    graph = write(tmp_path, "c4.graph", C4_GRAPH)
    out_nfa = str(tmp_path / "c4.nfa")
    assert main(["reduce-triangle", graph, out_nfa]) == 0
    assert capsys.readouterr().out.strip() == "target_length 6"
    assert main(["accept-length", out_nfa, "6"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_accept_length_triangle_reduction(tmp_path, capsys):
    graph = write(tmp_path, "k3.graph", K3_GRAPH)
    out_nfa = str(tmp_path / "k3.nfa")
    main(["reduce-triangle", graph, out_nfa])
    written = (tmp_path / "k3.nfa").read_text()
    assert written.startswith("states 12\n")
    capsys.readouterr()
    assert main(["accept-length", out_nfa, "5"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"


def test_accept_length_rejects_bad_lengths(tmp_path, capsys):
    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    assert main(["accept-length", path, "12x"]) == 2
    assert main(["accept-length", path, str((1 << 63) + 1)]) == 2
    assert main(["accept-length", path, "-3"]) == 2
    capsys.readouterr()


def test_accept_length_rejects_non_ascii_digits(tmp_path, capsys):
    # str.isdigit accepts these, int() rejects the superscript
    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    for length in ("²", "٢", "1²"):
        assert main(["accept-length", path, length]) == 2
        assert capsys.readouterr().err.startswith("error: length must be a decimal integer")


def test_nfa_parser_rejects_non_ascii_digits(tmp_path, capsys):
    # int() would read these as 2
    for text in ("states ٢\nalphabet a\nstart 0\nfinal 1\n", CHAIN_NFA.replace("0 a 1", "0 a １")):
        with pytest.raises(ParseError) as err:
            parse_nfa(text)
        assert err.value.line is not None
        path = write(tmp_path, "digits.nfa", text)
        assert main(["validate", path]) == 2
        assert "line" in capsys.readouterr().err


def test_nfa_parser_rejects_underscores_and_signs(tmp_path, capsys):
    # int() would read these as 10, 0 and 9
    cases = (
        ("states 1_0\nalphabet a\nstart +0\nfinal 0_9\n", 1),
        ("states 10\nalphabet a\nstart +0\nfinal 9\n", 3),
        ("states 10\nalphabet a\nstart 0\nfinal 0_9\n", 4),
    )
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_nfa(text)
        assert err.value.line == line
        path = write(tmp_path, "signs.nfa", text)
        assert main(["validate", path]) == 2
        assert f"line {line}: " in capsys.readouterr().err


def test_state_cap_is_checked_at_the_header(tmp_path, capsys):
    header = "alphabet a\nstart 0\nfinal 0\n"
    assert parse_nfa(f"states {MAX_STATES}\n{header}").state_count == MAX_STATES
    assert parse_graph(f"{MAX_STATES // 4} 0\n").vertex_count == MAX_STATES // 4
    huge = (
        (parse_nfa, "validate", f"# cap\nstates 100000000\n{header}", 2),
        (parse_nfa, "validate", f"states {MAX_STATES + 1}\n{header}", 1),
        (parse_graph, "triangle-check", "100000000 0\n", 1),
        (parse_graph, "triangle-check", f"{MAX_STATES // 4 + 1} 0\n", 1),
    )
    for parse, command, text, line in huge:
        # the parser must refuse these before anything per state is allocated
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        path = write(tmp_path, "huge.txt", text)
        assert main([command, path]) == 2
        assert f"line {line}: " in capsys.readouterr().err


def test_reduce_triangle_writes_parseable_file(tmp_path, capsys):
    graph = write(tmp_path, "c4.graph", C4_GRAPH)
    out_nfa = str(tmp_path / "c4.nfa")
    main(["reduce-triangle", graph, out_nfa])
    capsys.readouterr()
    nfa = parse_nfa((tmp_path / "c4.nfa").read_text())
    assert nfa.state_count == 16
    assert len(nfa.transitions) == 30


def test_reduce_triangle_edgeless(tmp_path, capsys):
    graph = write(tmp_path, "e2.graph", "2 0\n")
    out_nfa = str(tmp_path / "e2.nfa")
    assert main(["reduce-triangle", graph, out_nfa]) == 0
    capsys.readouterr()
    nfa = parse_nfa((tmp_path / "e2.nfa").read_text())
    assert nfa.state_count == 8
    assert len(nfa.transitions) == 2


def test_enumerate_outputs(tmp_path, capsys):
    single = write(tmp_path, "one.nfa", "states 1\nalphabet a\nstart 0\nfinal 0\n")
    assert main(["enumerate", single]) == 0
    assert capsys.readouterr().out == "0\n"
    chain = write(tmp_path, "chain.nfa", CHAIN_NFA)
    assert main(["enumerate", chain]) == 0
    assert capsys.readouterr().out == "1\n3\n"


def test_enumerate_engines_agree_and_are_deterministic(tmp_path, capsys):
    nfa = random_layered_nfa(23, 99)
    path = write(tmp_path, "rand.nfa", serialize_nfa(nfa))
    assert main(["enumerate", path, "--engine", "naive"]) == 0
    naive_out = capsys.readouterr().out
    assert main(["enumerate", path, "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert main(["enumerate", path, "--engine", "fast"]) == 0
    fast_again = capsys.readouterr().out
    assert naive_out == fast_out == fast_again


def test_enumerate_empty_language(tmp_path, capsys):
    path = write(tmp_path, "empty.nfa", "states 2\nalphabet a\nstart 0\nfinal\n0 a 1\n")
    assert main(["enumerate", path]) == 0
    assert capsys.readouterr().out == ""


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    proc = subprocess.run(
        [sys.executable, "-m", "nfakit.cli", "accept-length", path, "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ACCEPT"


def test_enumerate_rejects_non_unary(tmp_path, capsys):
    path = write(tmp_path, "bin.nfa", "states 1\nalphabet a b\nstart 0\nfinal 0\n")
    assert main(["enumerate", path]) == 1
    assert "one symbol" in capsys.readouterr().err


def test_enumerate_rejects_cyclic(tmp_path, capsys):
    path = write(tmp_path, "loop.nfa", SELF_LOOP_NFA)
    assert main(["enumerate", path]) == 1
    assert "acyclic" in capsys.readouterr().err


def test_simulate_command(tmp_path, capsys):
    chain = write(tmp_path, "chain.nfa", CHAIN_NFA)
    assert main(["simulate", chain, "a"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"
    assert main(["simulate", chain, "aa"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"
    assert main(["simulate", chain, "ab"]) == 2
    assert "not in alphabet" in capsys.readouterr().err


def test_reduce_ov_command(tmp_path, capsys):
    vectors = write(tmp_path, "hit.ov", "1 1\nv 1\nw 0\n")
    out_nfa = str(tmp_path / "hit.nfa")
    assert main(["reduce-ov", vectors, out_nfa]) == 0
    assert capsys.readouterr().out.strip() == "000"
    assert main(["simulate", out_nfa, "000"]) == 0
    capsys.readouterr()
    vectors = write(tmp_path, "miss.ov", "1 1\nv 1\nw 1\n")
    out_nfa = str(tmp_path / "miss.nfa")
    assert main(["reduce-ov", vectors, out_nfa]) == 0
    assert capsys.readouterr().out.strip() == "001"
    assert main(["simulate", out_nfa, "001"]) == 1
    capsys.readouterr()


def test_reduce_ov_matches_brute_force(tmp_path, capsys):
    inst = OvInstance(2, 4, ((1, 0, 0, 1), (1, 1, 1, 1)), ((1, 0, 0, 0), (1, 1, 0, 1)))
    lines = ["2 4"]
    lines += ["v " + "".join(map(str, vec)) for vec in inst.v]
    lines += ["w " + "".join(map(str, vec)) for vec in inst.w]
    vectors = write(tmp_path, "inst.ov", "\n".join(lines) + "\n")
    out_nfa = str(tmp_path / "inst.nfa")
    main(["reduce-ov", vectors, out_nfa])
    word = capsys.readouterr().out.strip()
    rc = main(["simulate", out_nfa, word])
    capsys.readouterr()
    assert (rc == 0) == ov_brute(inst)


def test_triangle_check_engines(tmp_path, capsys):
    k3 = write(tmp_path, "k3.graph", K3_GRAPH)
    c4 = write(tmp_path, "c4.graph", C4_GRAPH)
    for engine in ("brute", "matmul", "reduction"):
        assert main(["triangle-check", k3, "--engine", engine]) == 0
        assert capsys.readouterr().out.strip() == "TRIANGLE"
        assert main(["triangle-check", c4, "--engine", engine]) == 1
        assert capsys.readouterr().out.strip() == "TRIANGLE-FREE"


def test_triangle_check_engines_agree_on_seeded_graph(tmp_path, capsys):
    import random

    rng = random.Random(7)
    n = 12
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path = write(tmp_path, "g12.graph", text)
    results = set()
    for engine in ("brute", "matmul", "reduction"):
        results.add(main(["triangle-check", path, "--engine", engine]))
        capsys.readouterr()
    assert len(results) == 1


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/path.nfa"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# bench


def parse_bench(out):
    rows = []
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            continue
        n, seed, naive_t, fast_t, mults, agreement = line.split(",")
        rows.append((int(n), int(seed), float(naive_t), float(fast_t), int(mults), agreement))
    return rows


def test_bench_single_row(capsys):
    assert main(["bench", "--sizes", "8", "--trials", "1"]) == 0
    rows = parse_bench(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0][0] == 8
    assert rows[0][5] == "true"


def test_bench_row_count_and_multiplications(capsys):
    assert main(["bench", "--sizes", "64,128", "--trials", "3", "--seed", "5"]) == 0
    rows = parse_bench(capsys.readouterr().out)
    assert len(rows) == 6
    for n, _seed, _naive, _fast, mults, agreement in rows:
        assert agreement == "true"
        assert mults == math.ceil(math.log2(n))


def test_bench_structural_columns_are_deterministic(capsys):
    main(["bench", "--sizes", "16,32", "--trials", "2", "--seed", "9"])
    first = [(r[0], r[1], r[4], r[5]) for r in parse_bench(capsys.readouterr().out)]
    main(["bench", "--sizes", "16,32", "--trials", "2", "--seed", "9"])
    second = [(r[0], r[1], r[4], r[5]) for r in parse_bench(capsys.readouterr().out)]
    assert first == second


def test_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "0"]) == 2
    assert main(["bench", "--sizes", "abc"]) == 2
    capsys.readouterr()


def test_bench_rejects_non_decimal_sizes_and_zero_trials(capsys):
    for argv in (["--sizes", "1_6"], ["--sizes", "١٦"], ["--sizes", "8", "--trials", "0"]):
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
