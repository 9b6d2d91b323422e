"""Command-line toolkit: file formats, one subcommand per operation, benchmark.

NFA files are line oriented. Lines starting with '#' and blank lines are
ignored; the header lines

    states <n>
    alphabet <sym> [<sym> ...]
    start <id>
    final [<id> ...]

come first (in any order, each exactly once), followed by one
"<from> <sym> <to>" line per transition. A batch of transition lines all
in that plain form (single spaces, no comment) is converted in bulk, any
other batch line by line, by the same rules with the same errors. Graph
files start with "<n> <m>" followed by m undirected edge lines "<u> <v>".
Orthogonal-vectors files start with "<n> <d>" followed by n lines
"v <bits>" and then n lines "w <bits>", each bitstring of length d. Files
are UTF-8 text whose lines end at '\n', '\r\n' or a lone '\r'; a leading
byte-order mark is skipped.
Numbers are ASCII decimal digits; a number with more digits than int()
converts is malformed.
An NFA file may declare at most MAX_STATES states, a graph file at most
MAX_STATES // 4 vertices, and a vectors file only an n and d whose OV
reduction has at most MAX_STATES states. Bench sizes have the same cap,
and bench takes at most 1000 trials. The accept-length argument may be at
most MAX_LENGTH = 2^63.

Exit codes: 0 positive answer, 1 negative answer or failed validation,
2 malformed input.
"""

from __future__ import annotations

import argparse
import codecs
import random
import re
import statistics
import sys
import time
from dataclasses import fields
from itertools import islice

from .accept import SymbolNotInAlphabetError, accepts_length, enumerate_naive, simulate
from .automata import Graph, Nfa, NotAcyclicError, NotUnaryError, _is_symbol, _trusted_nfa, validate
from .boolmat import mul_calls
from .enumeration import enumerate_fast
from .reductions import (
    OvInstance,
    has_triangle_brute,
    has_triangle_matmul,
    ov_state_count,
    reduce_ov,
    reduce_triangle,
)

MAX_LENGTH = 1 << 63
# Most states an input file may ask for: an NFA file's 'states' count, 4n for
# an n-vertex graph, as its triangle reduction has 4n states, or the states of
# an OV file's reduction. It is checked at the header line, before any
# per-state list or matrix row is allocated.
MAX_STATES = 1 << 16


class ParseError(Exception):
    """Malformed input file; carries the offending line when known, and the
    file's name once `_load` has attached it."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        self.source = None
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.source:
            parts.append(self.source)
        if self.line is not None:
            parts.append(f"line {self.line}")
        parts.append(self.message)
        return ": ".join(parts)


def _lines(text: str) -> list[str]:
    """Split at '\n', '\r\n' and a lone '\r' only, not at str.splitlines()'s '\f' or U+2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(lines, first: int = 1):
    """Yield (line_number, tokens) for non-blank, non-comment lines, from line `first` on."""
    for number, raw in enumerate(lines, first):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped.split()


def _is_decimal(text: str) -> bool:
    # int() also takes '_', a sign and non-ASCII digits such as '٢';
    # str.isdigit() alone also takes superscripts such as '²'
    return text.isascii() and text.isdigit()


def _int_token(token: str, what: str, line: int | None = None) -> int:
    if not _is_decimal(token):
        raise ParseError(f"{what} must be a decimal integer, got {token!r}", line)
    try:
        return int(token, 10)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"{what} has {len(token)} digits, too many to convert", line) from None


def _shown(number: int) -> str:
    """A refused number as an error message shows it: in full up to 20
    digits, else by its digit count, as _int_token's too-long message does."""
    digits = str(number)
    return digits if len(digits) <= 20 else f"<{len(digits)} digits>"


_NFA_HEADERS = ("states", "alphabet", "start", "final")
# Plain transition lines, read in bulk: blank or "<from> <sym> <to>" with single
# spaces, \S being what str.split() keeps. In a sweep, batches of 512 to 8192
# lines read as fast, and the heap over the kept Nfa grew with the batch
_PLAIN_LINES = re.compile(r"(?:\S+ \S \S+)?(?:\n(?:\S+ \S \S+)?)*")
_BATCH_LINES = 2048


def _plain_transitions(batch: list[str], symbols: set[str], state_count: int):
    """A batch's triples if each of its lines is plain and passes the per-line rules."""
    block = "\n".join(batch)
    if _PLAIN_LINES.fullmatch(block):
        tokens = block.split()
        numbers, labels = tokens[0::3] + tokens[2::3], tokens[1::3]
        if _is_decimal("".join(numbers)) and symbols.issuperset(labels):
            try:
                numbers = list(map(int, numbers))
            except ValueError:  # more digits than int() converts
                return None
            if max(numbers) < state_count:
                return zip(numbers, labels, numbers[len(labels) :])
    return None


def parse_nfa(text: str) -> Nfa:
    lines = iter(_lines(text))  # the header reads from it, then the batches
    header_lines: dict[str, int] = {}  # header key -> its line number
    for line, tokens in _content_lines(lines):
        key = tokens[0]
        if key in header_lines:
            raise ParseError(f"duplicate '{key}' line", line)
        if key == "states":
            if len(tokens) != 2:
                raise ParseError("expected 'states <n>'", line)
            state_count = _int_token(tokens[1], "state count", line)
            if not 1 <= state_count <= MAX_STATES:
                raise ParseError(
                    f"state count must be in 1..{MAX_STATES}, got {_shown(state_count)}", line
                )
        elif key == "alphabet":
            for sym in tokens[1:]:
                if not _is_symbol(sym):
                    raise ParseError(f"invalid symbol {sym!r}", line)
            alphabet, symbols = tuple(tokens[1:]), set(tokens[1:])
            if len(symbols) != len(alphabet):
                raise ParseError("duplicate alphabet symbol", line)
        elif key == "start":
            if len(tokens) != 2:
                raise ParseError("expected 'start <id>'", line)
            start = _int_token(tokens[1], "start state", line)
        elif key == "final":
            finals = [_int_token(t, "final state", line) for t in tokens[1:]]
        else:
            raise ParseError("transition before the states/alphabet/start/final header", line)
        header_lines[key] = line
        if len(header_lines) == len(_NFA_HEADERS):
            break
    else:
        missing = next(key for key in _NFA_HEADERS if key not in header_lines)
        raise ParseError(f"missing '{missing}' line")
    if not 0 <= start < state_count:
        raise ParseError(f"start state {_shown(start)} out of range", header_lines["start"])
    for q in finals:
        if not 0 <= q < state_count:
            raise ParseError(f"final state {_shown(q)} out of range", header_lines["final"])
    transitions = []
    first = line + 1  # the number of the next batch's first line
    while batch := list(islice(lines, _BATCH_LINES)):
        if (plain := _plain_transitions(batch, symbols, state_count)) is not None:
            transitions.extend(plain)
        else:
            for line, tokens in _content_lines(batch, first):
                if tokens[0] in header_lines:
                    raise ParseError(f"duplicate '{tokens[0]}' line", line)
                if len(tokens) != 3:
                    raise ParseError("expected '<from> <sym> <to>'", line)
                src = _int_token(tokens[0], "source state", line)
                sym = tokens[1]
                dst = _int_token(tokens[2], "target state", line)
                if sym not in symbols:
                    raise ParseError(f"transition symbol {sym!r} not in alphabet", line)
                if not (0 <= src < state_count and 0 <= dst < state_count):
                    raise ParseError("transition state out of range", line)
                transitions.append((src, sym, dst))
        first += len(batch)
    return _trusted_nfa(state_count, alphabet, start, frozenset(finals), frozenset(transitions))


def serialize_nfa(nfa: Nfa) -> str:
    """Canonical text form: headers, then transitions sorted by (from, sym, to)."""
    lines = [
        f"states {nfa.state_count}",
        " ".join(["alphabet", *nfa.alphabet]),
        f"start {nfa.start}",
        " ".join(["final", *map(str, sorted(nfa.finals))]),
    ]
    lines.extend(f"{src} {sym} {dst}" for src, sym, dst in sorted(nfa.transitions))
    return "\n".join(lines) + "\n"


def _first_line(text: str, kind: str, form: str, first: str, second: str):
    """Read the two-number first line of a graph or vectors file; returns its
    line number, both numbers and the iterator of the content lines after it."""
    lines = _content_lines(_lines(text))
    line, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError(f"empty {kind} file")
    if len(tokens) != 2:
        raise ParseError(f"expected '{form}' on the first line", line)
    return line, _int_token(tokens[0], first, line), _int_token(tokens[1], second, line), lines


def parse_graph(text: str) -> Graph:
    line, n, m, lines = _first_line(text, "graph", "<n> <m>", "vertex count", "edge count")
    if not 1 <= 4 * n <= MAX_STATES:
        raise ParseError(f"vertex count must be in 1..{MAX_STATES // 4}, got {_shown(n)}", line)
    edges = set()
    for line, tokens in lines:
        if len(tokens) != 2:
            raise ParseError("expected '<u> <v>'", line)
        u = _int_token(tokens[0], "vertex", line)
        v = _int_token(tokens[1], "vertex", line)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge {_shown(u)} {_shown(v)}", line)
        if u == v:
            raise ParseError(f"self-loop on vertex {u}", line)
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ParseError(f"duplicate edge {u} {v}", line)
        edges.add(edge)
    if len(edges) != m:  # each edge line added one edge
        raise ParseError(f"expected {_shown(m)} edge lines, found {len(edges)}")
    return Graph(n, frozenset(edges))


def parse_ov(text: str) -> OvInstance:
    line, n, d, lines = _first_line(text, "vectors", "<n> <d>", "vector count", "dimension")
    # ov_state_count(1, d) = d + 4 and ov_state_count(n, 1) = 7n - 2, so an n or
    # d above MAX_STATES is over the cap anyway; refusing it first keeps the count short
    if not (1 <= n <= MAX_STATES and 1 <= d <= MAX_STATES):
        raise ParseError(f"need n and d in 1..{MAX_STATES}, got n={_shown(n)}, d={_shown(d)}", line)
    states = ov_state_count(n, d)
    if states > MAX_STATES:
        raise ParseError(f"n={n}, d={d} reduces to {states} states, more than {MAX_STATES}", line)
    vectors: list[tuple[int, ...]] = []  # the n v-vectors, then the n w-vectors
    for line, tokens in lines:
        expected = "v" if len(vectors) < n else "w"
        if len(tokens) != 2 or tokens[0] != expected:
            raise ParseError(f"expected '{expected} <bitstring>'", line)
        bits = tokens[1]
        if len(bits) != d or bits.strip("01"):
            raise ParseError(f"bitstring must be {d} characters of 0/1, got {bits!r}", line)
        vectors.append(tuple(map({"0": 0, "1": 1}.__getitem__, bits)))
    if len(vectors) != 2 * n:
        raise ParseError(f"expected {2 * n} vector lines, found {len(vectors)}")
    return OvInstance(n, d, tuple(vectors[:n]), tuple(vectors[n:]))


def random_layered_nfa(n: int, seed: int) -> Nfa:
    """Seeded unary acyclic NFA: forward-only transitions, two expected
    out-transitions per state, each state final with probability 1/4."""
    rng = random.Random(seed)
    transitions = set()
    for i in range(n - 1):
        for j in rng.sample(range(i + 1, n), min(2, n - 1 - i)):
            transitions.add((i, "a", j))
    finals = {q for q in range(n) if rng.random() < 0.25}
    if not finals:
        finals = {rng.randrange(n)}
    return _trusted_nfa(n, ("a",), 0, frozenset(finals), frozenset(transitions))


def _load(parse, path: str):
    """parse(text of the UTF-8 file at path, less a leading byte-order mark);
    a ParseError names the file."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; their last line is the bad byte's
        line = len(_lines(data[: exc.start].decode("utf-8")))
        error = ParseError(f"not UTF-8 text: {exc.reason}", line)
    except ParseError as exc:
        error = exc
    error.source = path
    raise error


def _write_nfa(path: str, nfa: Nfa) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_nfa(nfa))


def _verdict(positive: bool, yes: str, no: str) -> int:
    """Print the answer word; exit 0 for a positive answer, 1 for a negative."""
    print(yes if positive else no)
    return 0 if positive else 1


def cmd_validate(args) -> int:
    report = validate(_load(parse_nfa, args.nfa))
    flags = [(field.name, getattr(report, field.name)) for field in fields(report)]
    for name, value in flags:
        print(f"{name}: {str(value).lower()}")
    return 0 if all(value for _, value in flags) else 1


def cmd_accept_length(args) -> int:
    length = _int_token(args.length, "length")
    if length > MAX_LENGTH:
        raise ParseError(f"length {_shown(length)} exceeds 2^63")
    nfa = _load(parse_nfa, args.nfa)
    return _verdict(accepts_length(nfa, length), "ACCEPT", "REJECT")


def cmd_enumerate(args) -> int:
    nfa = _load(parse_nfa, args.nfa)
    engine = enumerate_naive if args.engine == "naive" else enumerate_fast
    for length in engine(nfa):
        print(length)
    return 0


def cmd_simulate(args) -> int:
    nfa = _load(parse_nfa, args.nfa)
    return _verdict(simulate(nfa, args.word), "ACCEPT", "REJECT")


def cmd_reduce_triangle(args) -> int:
    reduction = reduce_triangle(_load(parse_graph, args.graph))
    _write_nfa(args.out, reduction.nfa)
    print(f"target_length {reduction.target_length}")
    return 0


def cmd_reduce_ov(args) -> int:
    reduction = reduce_ov(_load(parse_ov, args.vectors))
    _write_nfa(args.out, reduction.nfa)
    print(reduction.input)
    return 0


def cmd_triangle_check(args) -> int:
    graph = _load(parse_graph, args.graph)
    if args.engine == "brute":
        found = has_triangle_brute(graph)
    elif args.engine == "matmul":
        found = has_triangle_matmul(graph)
    else:
        reduction = reduce_triangle(graph)
        found = accepts_length(reduction.nfa, reduction.target_length)
    return _verdict(found, "TRIANGLE", "TRIANGLE-FREE")


# timings per engine and instance in bench; each reported time is their median
BENCH_REPETITIONS = 5
_MAX_TRIALS = 1000  # instances per size, so that every bench run ends


def _median_times(fns, repetitions: int):
    # the repetitions of fns alternate, so a drift in host speed during the
    # run shifts every median alike; returns (median time, last result) pairs
    times = [[] for _ in fns]
    results = [None] * len(fns)
    for _ in range(repetitions):
        for index, fn in enumerate(fns):
            begin = time.perf_counter()
            results[index] = fn()
            times[index].append(time.perf_counter() - begin)
    return [(statistics.median(t), result) for t, result in zip(times, results)]


def cmd_bench(args) -> int:
    sizes = [_int_token(token, "size") for token in args.sizes.split(",")]
    for n in sizes:
        if not 1 <= n <= MAX_STATES:
            raise ParseError(f"size must be in 1..{MAX_STATES}, got {_shown(n)}")
    seed = _int_token(args.seed, "seed")
    trials = _int_token(args.trials, "trials")
    if not 1 <= trials <= _MAX_TRIALS:
        raise ParseError(f"trials must be in 1..{_MAX_TRIALS}, got {_shown(trials)}")
    print(
        "# layered-forward unary acyclic NFAs, expected out-degree 2, "
        f"base seed {seed}, trials {trials}"
    )
    print("n,seed,naive_time,fast_time,multiplications_used,agreement")
    for n in sizes:
        for trial in range(trials):
            instance_seed = (seed * 1000003 + n * 1009 + trial) & 0x7FFFFFFF
            nfa = random_layered_nfa(n, instance_seed)
            before = mul_calls()
            (naive_time, naive_result), (fast_time, fast_result) = _median_times(
                (lambda: enumerate_naive(nfa), lambda: enumerate_fast(nfa)), BENCH_REPETITIONS
            )
            multiplications = (mul_calls() - before) // BENCH_REPETITIONS
            agreement = naive_result == fast_result
            print(
                f"{n},{instance_seed},{naive_time:.6f},{fast_time:.6f},"
                f"{multiplications},{str(agreement).lower()}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfakit",
        description="NFA length acceptance, length-set enumeration and reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report structural flags of an NFA file")
    p.add_argument("nfa")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("accept-length", help="does the NFA accept a word of this length")
    p.add_argument("nfa")
    p.add_argument("length")
    p.set_defaults(func=cmd_accept_length)

    p = sub.add_parser("enumerate", help="list accepted lengths of a unary acyclic NFA")
    p.add_argument("nfa")
    p.add_argument("--engine", choices=("naive", "fast"), default="fast")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="run a word through the NFA")
    p.add_argument("nfa")
    p.add_argument("word")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce-triangle", help="graph file to four-layer NFA file")
    p.add_argument("graph")
    p.add_argument("out")
    p.set_defaults(func=cmd_reduce_triangle)

    p = sub.add_parser("reduce-ov", help="vectors file to acceptance NFA file")
    p.add_argument("vectors")
    p.add_argument("out")
    p.set_defaults(func=cmd_reduce_ov)

    p = sub.add_parser("triangle-check", help="decide triangle existence")
    p.add_argument("graph")
    p.add_argument("--engine", choices=("brute", "matmul", "reduction"), default="matmul")
    p.set_defaults(func=cmd_triangle_check)

    p = sub.add_parser("bench", help="time naive vs fast enumeration on seeded inputs")
    p.add_argument("--sizes", default="64,128,256")
    p.add_argument("--seed", default="42")
    p.add_argument("--trials", default="1")
    p.set_defaults(func=cmd_bench)

    return parser


# Built once, at import: parse_args only reads the parser and fills a new
# Namespace per call, so no call sees another's arguments, and help and
# usage text are formatted when printed, not when built
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, SymbolNotInAlphabetError, NotUnaryError, NotAcyclicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NotUnaryError, NotAcyclicError)) else 2


if __name__ == "__main__":
    sys.exit(main())
