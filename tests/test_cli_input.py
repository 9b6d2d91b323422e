"""File input through `main`: error messages name the file, the parsers are
called through their module attributes, and hostile files end in an exit
code, never a traceback."""

import io
import itertools
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest

from nfakit import Nfa, OvInstance, cli, reduce_ov
from nfakit.cli import main


def run(argv):
    """(exit code, stdout, stderr) of one `main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


BAD_NFA = "states 2\nalphabet a\nstart 0\nfinal 1\n0 a 2\n"
BAD_GRAPH = "3 1\n\n1 1\n"
BAD_VECTORS = "1 2\nv 01\nw 0x\n"


@pytest.mark.parametrize(
    "command, text, extra, line, message",
    [
        ("validate", BAD_NFA, [], 5, "transition state out of range"),
        ("accept-length", BAD_NFA, ["3"], 5, "transition state out of range"),
        ("enumerate", BAD_NFA, [], 5, "transition state out of range"),
        ("simulate", BAD_NFA, ["a"], 5, "transition state out of range"),
        ("triangle-check", BAD_GRAPH, [], 3, "self-loop on vertex 1"),
        ("reduce-triangle", BAD_GRAPH, ["OUT"], 3, "self-loop on vertex 1"),
        ("reduce-ov", BAD_VECTORS, ["OUT"], 3, "bitstring must be 2 characters of 0/1, got '0x'"),
        ("validate", "states 1\nalphabet a\nstart 0\n", [], None, "missing 'final' line"),
    ],
)
def test_every_file_error_names_its_file(tmp_path, command, text, extra, line, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.nfa"
    argv = [command, str(path)] + [str(out) if arg == "OUT" else arg for arg in extra]
    where = f"line {line}: " if line is not None else ""
    assert run(argv) == (2, "", f"error: {path}: {where}{message}\n")
    assert not out.exists()


def test_each_command_parses_and_serializes_through_the_module_attributes(
    tmp_path, monkeypatch
):
    # the traced benchmark wraps these attributes of nfakit.cli; a command
    # that reached the functions another way would lose their spans
    calls = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("parse_nfa", "parse_graph", "parse_ov", "serialize_nfa"):
        spy(name)
    nfa = tmp_path / "in.nfa"
    nfa.write_text("states 2\nalphabet a\nstart 0\nfinal 1\n0 a 1\n")
    graph = tmp_path / "in.graph"
    graph.write_text("3 3\n0 1\n1 2\n0 2\n")
    vectors = tmp_path / "in.ov"
    vectors.write_text("1 1\nv 1\nw 0\n")
    out = str(tmp_path / "out.nfa")
    expected = {
        ("simulate", str(nfa), "a"): ["parse_nfa"],
        ("triangle-check", str(graph)): ["parse_graph"],
        ("reduce-ov", str(vectors), out): ["parse_ov", "serialize_nfa"],
    }
    for argv, names in expected.items():
        calls.clear()
        code, _, err = run(list(argv))
        assert (code, err) == (0, "")
        assert calls == names


# ---------------------------------------------------------------------------
# hostile files

NUMBERS = ("0", "1", "2", "3", "-1", "+1", "1_0", "65537", "٢", "²", "9" * 30, "0x1", "1.0", "")
SYMBOLS = ("a", "b", "#", "é", "\u200b", "ab")
WORDS = ("states", "alphabet", "start", "final", "v", "w", "#", "\ufeffstates")


def _nfa_lines(rng):
    n = rng.randint(1, 4)
    alphabet = rng.sample(SYMBOLS[:2], rng.randint(1, 2)) if rng.random() < 0.8 else [
        rng.choice(SYMBOLS) for _ in range(rng.randint(0, 3))
    ]
    lines = [
        f"states {n}",
        " ".join(["alphabet", *alphabet]),
        f"start {rng.randrange(n)}",
        " ".join(["final", *(str(q) for q in range(n) if rng.random() < 0.4)]),
    ]
    rng.shuffle(lines)
    for _ in range(rng.randint(0, 6)):
        sym = rng.choice(alphabet) if alphabet and rng.random() < 0.9 else rng.choice(SYMBOLS)
        lines.append(f"{rng.randrange(n)} {sym} {rng.randrange(n)}")
    return lines


def _graph_lines(rng):
    n = rng.randint(1, 5)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return [f"{n} {len(pairs)}", *(f"{u} {v}" for u, v in pairs)]


def _vector_lines(rng):
    n, d = rng.randint(1, 3), rng.randint(1, 4)
    return [f"{n} {d}"] + [
        f"{side} {''.join(rng.choice('01') for _ in range(d))}" for side in "vw" for _ in range(n)
    ]


def _mutate(rng, lines):
    """Apply a few line- and token-level edits, then pick line ends."""
    lines = list(lines)
    for _ in range(rng.randint(0, 3)):
        edit = rng.randrange(6)
        index = rng.randrange(len(lines) + 1)
        if edit == 0 and lines:
            del lines[min(index, len(lines) - 1)]
        elif edit == 1 and lines:
            lines.insert(index, rng.choice(lines))
        elif edit == 2:
            lines.insert(index, rng.choice(("", "# comment", "   ", rng.choice(WORDS))))
        elif lines:
            at = min(index, len(lines) - 1)
            tokens = lines[at].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice((NUMBERS, SYMBOLS, WORDS)[edit - 3])
            if rng.random() < 0.3:
                tokens.append(rng.choice(NUMBERS))
            lines[at] = " ".join(tokens)
    text = ("\r\n" if rng.random() < 0.2 else "\n").join(lines)
    if rng.random() < 0.8:
        text += "\n"
    return ("\ufeff" if rng.random() < 0.1 else "") + text


def hostile_cases(seed, count, directory):
    """Yield argv lists, each after writing its seeded input file to
    directory/input.txt; outputs go to directory/out.nfa."""
    rng = random.Random(seed)
    path, out = str(directory / "input.txt"), str(directory / "out.nfa")
    for _ in range(count):
        kind = rng.randrange(3)
        maker = (_nfa_lines, _graph_lines, _vector_lines)[kind]
        text = _mutate(rng, maker(rng)) if rng.random() < 0.9 else "\n".join(maker(rng))
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        if kind == 0:
            command = rng.choice(("validate", "accept-length", "enumerate", "simulate"))
            argv = [command, path]
            if command == "accept-length":
                argv.append(rng.choice(("0", "5", "9223372036854775808", *NUMBERS)))
            elif command == "simulate":
                argv.append("".join(rng.choice(SYMBOLS[:5]) for _ in range(rng.randint(0, 4))))
            elif command == "enumerate":
                argv += ["--engine", rng.choice(("naive", "fast"))]
        elif kind == 1:
            command = rng.choice(("triangle-check", "reduce-triangle"))
            argv = [command, path]
            if command == "triangle-check":
                argv += ["--engine", rng.choice(("brute", "matmul", "reduction"))]
            else:
                argv.append(out)
        else:
            argv = ["reduce-ov", path, out]
        if rng.random() < 0.02:
            argv = argv[:1] if rng.random() < 0.5 else argv + ["--bogus"]
        yield argv


def test_hostile_files_end_in_an_exit_code(tmp_path):
    codes = {0: 0, 1: 0, 2: 0, "argparse": 0}
    for argv in hostile_cases(8101, 3000, tmp_path):
        try:
            code, _, err = run(argv)
        except SystemExit as exc:  # argparse refused the argv itself
            assert exc.code == 2, argv
            codes["argparse"] += 1
            continue
        assert code in codes, argv
        codes[code] += 1
        if code == 2:
            assert err.startswith("error: "), (argv, err)
    # the inputs reach every verdict, not only the refusals
    assert all(codes.values()), codes


# ---------------------------------------------------------------------------
# one parser for the process


COMMANDS = (
    "validate",
    "accept-length",
    "enumerate",
    "simulate",
    "reduce-triangle",
    "reduce-ov",
    "triangle-check",
    "bench",
)
USAGE_CASES = (
    [],
    ["-h"],
    ["--help"],
    ["--bogus"],
    ["nope"],
    ["validate"],
    ["validate", "a", "b"],
    ["accept-length", "x"],
    ["enumerate", "x", "--engine"],
    ["enumerate", "x", "--engine", "slow"],
    ["triangle-check", "g", "--engine", "fast"],
    ["bench", "--sizes"],
    ["bench", "extra"],
    ["bench", "--trials", "0"],
    ["bench", "--sizes", "0"],
    *([command, "--help"] for command in COMMANDS),
    *([command, "-h"] for command in COMMANDS),
)


def answer(argv):
    """(exit code, stdout, stderr) of one `main(argv)` call, where an
    argparse refusal or help exit counts as ("exit", its code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_the_shared_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    # main parses every argv with one parser built at import; each call must
    # give the exit code, stdout, stderr and output file that a parser built
    # for that call alone gives, whatever calls came before it
    def fresh(argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_PARSER", cli.build_parser())
            return answer(argv)

    out = tmp_path / "out.nfa"

    def written():
        if not out.exists():
            return None
        text = out.read_text(encoding="utf-8")
        out.unlink()
        return text

    kinds = set()
    # hostile_cases rewrites the input file before it yields each argv
    for argv in itertools.chain(USAGE_CASES, hostile_cases(8117, 300, tmp_path)):
        shared = answer(argv), written()
        assert fresh(argv) == shared[0] and written() == shared[1], argv
        code = shared[0][0]
        kinds.add("help" if code == ("exit", 0) else "usage" if code == ("exit", 2) else code)
    # help, usage errors and every verdict of the commands were compared
    assert kinds == {"help", "usage", 0, 1, 2}, kinds


# ---------------------------------------------------------------------------
# numbers too long for int() and line breaks


@pytest.mark.parametrize("digit", ["9", "0"])
def test_overlong_numbers_exit_2_in_every_integer_slot(tmp_path, digit):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); such a token is malformed input, reported by its length
    big = digit * 5000
    path, out = tmp_path / "input.txt", str(tmp_path / "out.nfa")
    # each file with the (line number, token index) of its integer slots
    files = (
        (
            ["states 2", "alphabet a", "start 0", "final 1", "0 a 1"],
            ["validate"],
            [(1, 1), (3, 1), (4, 1), (5, 0), (5, 2)],
        ),
        (["3 1", "0 1"], ["triangle-check"], [(1, 0), (1, 1), (2, 0), (2, 1)]),
        (["1 1", "v 1", "w 0"], ["reduce-ov"], [(1, 0), (1, 1)]),
    )
    for lines, command, slots in files:
        for number, index in slots:
            edited = list(lines)
            tokens = edited[number - 1].split()
            tokens[index] = big
            edited[number - 1] = " ".join(tokens)
            path.write_text("\n".join(edited) + "\n", encoding="utf-8")
            argv = command + [str(path)] + ([out] if command == ["reduce-ov"] else [])
            code, stdout, err = run(argv)
            assert (code, stdout) == (2, ""), (argv, edited)
            assert err.startswith(f"error: {path}: line {number}: "), err[:200]
            assert "5000 digits" in err and big not in err
    path.write_text("states 1\nalphabet a\nstart 0\nfinal 0\n", encoding="utf-8")
    for argv in (
        ["accept-length", str(path), big],
        ["bench", "--sizes", big],
        ["bench", "--sizes", f"64,{big}"],
        ["bench", "--seed", big],
        ["bench", "--trials", big],
    ):
        code, stdout, err = run(argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("error: ") and "5000 digits" in err and big not in err


def test_refused_numbers_are_shown_by_their_digit_count(tmp_path, monkeypatch):
    # 4300 digits is the most int() converts, so each of these numbers is
    # read, then refused by a range rule whose message stays one short line
    big = "9" * 4300
    monkeypatch.chdir(tmp_path)
    nfa = "states 2\nalphabet a\nstart 0\nfinal 1\n0 a 1\n"
    cases = (
        (f"states {big}\nalphabet a\nstart 0\nfinal 0\n", ["validate", "in.txt"]),
        (nfa.replace("start 0", f"start {big}"), ["validate", "in.txt"]),
        (nfa.replace("final 1", f"final 0 {big}"), ["validate", "in.txt"]),
        (f"{big} 1\n0 1\n", ["triangle-check", "in.txt"]),
        (f"3 1\n0 {big}\n", ["triangle-check", "in.txt"]),
        (f"3 {big}\n0 1\n", ["triangle-check", "in.txt"]),
        (f"{big} 1\nv 1\nw 0\n", ["reduce-ov", "in.txt", "out.nfa"]),
        (f"1 {big}\nv 1\nw 0\n", ["reduce-ov", "in.txt", "out.nfa"]),
        (f"{big} {big}\nv 1\nw 0\n", ["reduce-ov", "in.txt", "out.nfa"]),
        (nfa, ["accept-length", "in.txt", big]),
        (nfa, ["bench", "--sizes", big]),
    )
    for text, argv in cases:
        (tmp_path / "in.txt").write_text(text, encoding="utf-8")
        code, stdout, err = run(argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
        assert len(err.encode()) < 200 and "4300 digits" in err, err[:300]
    assert not (tmp_path / "out.nfa").exists()


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path, out = tmp_path / "input.txt", tmp_path / "out.nfa"

    def answer_for(data, command):
        path.write_bytes(data)
        argv = command + [str(path)] + ([str(out)] if command == ["reduce-ov"] else [])
        code, stdout, err = run(argv)
        written = out.read_text(encoding="utf-8") if out.exists() else None
        if written is not None:
            out.unlink()
        return code, stdout, err, written

    files = (
        ("states 3\nalphabet a\nstart 0\nfinal 2\n0 a 1\n1 a 2\n", ["validate"]),
        ("states 2\nalphabet a\nstart 0\nfinal 1\n0 a 1\n", ["enumerate"]),
        ("3 3\n0 1\n1 2\n0 2\n", ["triangle-check"]),
        ("1 2\nv 01\nw 10\n", ["reduce-ov"]),
        (BAD_NFA, ["validate"]),
        (BAD_GRAPH, ["triangle-check"]),
        (BAD_VECTORS, ["reduce-ov"]),
    )
    for text, command in files:
        plain = answer_for(text.encode("utf-8"), command)
        assert answer_for(b"\xef\xbb\xbf" + text.encode("utf-8"), command) == plain, text
    # a bad byte after the mark is reported at its line, counted from the mark
    for data, line in (
        (b"\xef\xbb\xbf\xff", 1),
        (b"\xef\xbb\xbfa\xc3\xa9\nbb\xff\n", 2),
        (b"\xef\xbb\xbfstates 2\r\nalphabet a\r\nstart \xff\r\n", 3),
    ):
        code, stdout, err, _ = answer_for(data, ["validate"])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {path}: line {line}: not UTF-8 text"), (data, err)


# str.splitlines() also breaks at these; a file breaks only at \n, \r\n and \r
OTHER_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_only_newline_and_carriage_return_break_lines(tmp_path):
    path, out = tmp_path / "input.txt", tmp_path / "out.nfa"

    def answer_for(text, command):
        path.write_bytes(text.encode("utf-8"))
        argv = command + [str(path)] + ([str(out)] if command == ["reduce-ov"] else [])
        code, stdout, err = run(argv)
        written = out.read_text(encoding="utf-8") if out.exists() else None
        if written is not None:
            out.unlink()
        return code, stdout, err, written

    files = (
        (["states 3", "alphabet a", "start 0", "final 2", "0 a 1", "1 a 2"], ["validate"]),
        (["states 2", "alphabet a", "start 0", "final 1", "0 a 1"], ["enumerate"]),
        (["3 3", "0 1", "1 2", "0 2"], ["triangle-check"]),
        (["1 2", "v 01", "w 10"], ["reduce-ov"]),
        (BAD_NFA.splitlines(), ["validate"]),
    )
    for lines, command in files:
        plain = answer_for("\n".join(lines) + "\n", command)
        assert plain[0] in (0, 1) or plain[2].startswith(f"error: {path}: line 5: ")
        for mark in OTHER_BREAKS:
            commented = lines[:1] + [f"# note{mark}more"] + lines[1:]
            for end in ("\n", "\r\n", "\r"):
                code, stdout, err, written = answer_for(end.join(commented) + end, command)
                assert (code, stdout, written) == plain[:2] + plain[3:], (lines, mark, end)
                # an error after the comment names the line counted by line ends
                assert err == plain[2].replace("line 5", "line 6"), (lines, mark, end)
            spaced = [line.replace(" ", mark) for line in lines]
            assert answer_for("\n".join(spaced) + "\n", command) == plain, (lines, mark)
    # a bad byte after such a comment is reported at the line so counted
    for mark in OTHER_BREAKS:
        for end in ("\n", "\r\n", "\r"):
            head = end.join(["states 2", f"# note{mark}more", "alphabet a", ""])
            path.write_bytes(head.encode("utf-8") + b"start \xff" + end.encode())
            code, stdout, err = run(["validate", str(path)])
            assert (code, stdout) == (2, "")
            assert err.startswith(f"error: {path}: line 4: not UTF-8 text"), (mark, end, err)


# ---------------------------------------------------------------------------
# parse_nfa's two lanes: a batch of plain transition lines is read in bulk,
# every other batch by the per-line rules


def parse_outcome(text):
    """parse_nfa's Nfa, or its error's message and line."""
    try:
        nfa = cli.parse_nfa(text)
    except cli.ParseError as exc:
        return exc.message, exc.line
    # the parser skips Nfa's own checks, so it may build only what Nfa accepts
    assert nfa == Nfa(*(getattr(nfa, field.name) for field in fields(Nfa)))
    return nfa


def assert_lanes_agree(text):
    # a space at the end of a line leaves its meaning and its number as they
    # were, and takes its batch off the bulk lane; with that lane shut, the
    # per-line rules read every batch, whatever the lane's pattern takes
    outcome = parse_outcome(text)
    spaced = "\n".join(line + " " for line in cli._lines(text))
    assert parse_outcome(spaced) == outcome, text
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_plain_transitions", lambda *args: None)
        assert parse_outcome(text) == outcome, text


def bulk_batches(monkeypatch):
    """Record, per batch read, whether the bulk lane took it."""
    taken, bulk = [], cli._plain_transitions

    def spy(*args):
        triples = bulk(*args)
        taken.append(triples is not None)
        return triples

    monkeypatch.setattr(cli, "_plain_transitions", spy)
    return taken


HEAD = "states 5\nalphabet a b\nstart 0\nfinal 4\n"
PLAIN = [f"{q} {'ab'[q % 2]} {(q + 1) % 5}" for q in range(5)]
NOT_DECIMAL = "{} state must be a decimal integer, got {!r}"
TOO_LONG = "{} state has 4301 digits, too many to convert"


@pytest.mark.parametrize(
    "text, expected, bulk",
    [
        (HEAD + "\n".join(PLAIN) + "\n", None, True),
        (HEAD + "\n".join(PLAIN[:2]) + "\n\n" + "\n".join(PLAIN[2:]), None, True),
        (HEAD + "# note\n" + "\n".join(PLAIN) + "\n", None, False),
        # read as two triples, "1 0 2" and "0 1 4", the tokens would shift lines
        (
            "states 5\nalphabet 0 1\nstart 0\nfinal 4\n1 0\n2 0 1 4\n",
            ("expected '<from> <sym> <to>'", 5),
            False,
        ),
        ("states 3\nalphabet 0 1 2\nstart 0\nfinal 2\n0 1 2\n2 0 1\n1 2 0\n", None, True),
        (HEAD + "0\ta\t1\n1  b 2\n", None, False),
        (HEAD + "0 a 1\n0\u2028a 1\n1 b\u20282\n", None, False),
        (HEAD + "0 a \u0662\n", (NOT_DECIMAL.format("target", "\u0662"), 5), False),
        (HEAD + "0 a 1\n\u00b2 b 1\n", (NOT_DECIMAL.format("source", "\u00b2"), 6), False),
        (HEAD + "0 a +1\n", (NOT_DECIMAL.format("target", "+1"), 5), False),
        (HEAD + "0 a 004\n", None, True),
        (HEAD + "0 a " + "9" * 4301 + "\n", (TOO_LONG.format("target"), 5), False),
        (HEAD + "0" * 4301 + " a 1\n", (TOO_LONG.format("source"), 5), False),
        (HEAD + "0 a 1\n1 c 2\n", ("transition symbol 'c' not in alphabet", 6), False),
        (HEAD + "0 a 1\n1 ab 2\n", ("transition symbol 'ab' not in alphabet", 6), False),
        (HEAD + "0 a 1\n1 b 5\n", ("transition state out of range", 6), False),
        (HEAD + "0 a 1\nstates 5\n", ("duplicate 'states' line", 6), False),
    ],
    ids=lambda value: ascii(value[len(HEAD) :])[:40] if isinstance(value, str) else None,
)
def test_bulk_and_per_line_lanes_agree(text, expected, bulk, monkeypatch):
    taken = bulk_batches(monkeypatch)
    assert_lanes_agree(text)
    # the bulk lane took the plain text's one batch, and not the spaced one's
    assert taken == [bulk, False]
    outcome = parse_outcome(text)
    assert isinstance(outcome, Nfa) if expected is None else outcome == expected


def test_an_error_in_a_later_batch_names_its_file_line(monkeypatch):
    batch = cli._BATCH_LINES
    taken = bulk_batches(monkeypatch)
    for bad, message in (
        ("0 c 1", "transition symbol 'c' not in alphabet"),
        ("final 0", "duplicate 'final' line"),
    ):
        lines = [f"{q % 5} a {(q + 1) % 5}" for q in range(2 * batch)]
        lines[batch + 3] = bad
        text = HEAD + "\n".join(lines) + "\n"
        taken.clear()
        # the header's 4 lines come first; lines[batch + 3] is file line batch + 8
        assert parse_outcome(text) == (message, batch + 8)
        assert taken[0] and not taken[1]
        assert_lanes_agree(text)


def test_hostile_nfa_files_read_alike_in_both_lanes(tmp_path, monkeypatch):
    commands = ("validate", "accept-length", "enumerate", "simulate")
    for batch in (1, 2, cli._BATCH_LINES):
        monkeypatch.setattr(cli, "_BATCH_LINES", batch)
        for argv in hostile_cases(8123, 600, tmp_path):
            if argv[0] in commands and len(argv) > 1:
                data = (tmp_path / "input.txt").read_bytes()
                assert_lanes_agree(data.decode("utf-8").removeprefix("\ufeff"))


def test_parse_nfa_heap_is_the_nfa_it_keeps_and_one_batch():
    # beside the Nfa it returns, parse_nfa holds the file's lines (freed
    # before the triples become a frozenset), the list of triples (8 bytes
    # each) and one batch of _BATCH_LINES lines: its text, its tokens and
    # their numbers, about 0.4 MiB at 2048 lines. Read as one batch, the
    # 21,000 transition lines below would hold about 6 MiB more
    d = 24
    vectors = tuple(tuple((i >> k) & 1 for k in range(d)) for i in range(150))
    text = cli.serialize_nfa(reduce_ov(OvInstance(150, d, vectors, vectors[::-1])).nfa)
    assert text.count("\n") > 20_000
    tracemalloc.start()
    try:
        nfa = cli.parse_nfa(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nfa.transitions) > 20_000
    assert peak - kept < 1 << 20
