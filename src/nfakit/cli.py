"""Command-line toolkit: file formats, one subcommand per operation, benchmark.

NFA files are line oriented. Lines starting with '#' and blank lines are
ignored; the header lines

    states <n>
    alphabet <sym> [<sym> ...]
    start <id>
    final [<id> ...]

come first (in any order, each exactly once), followed by one
"<from> <sym> <to>" line per transition. Graph files start with "<n> <m>"
followed by m undirected edge lines "<u> <v>". Orthogonal-vectors files
start with "<n> <d>" followed by n lines "v <bits>" and then n lines
"w <bits>", each bitstring of length d. Numbers are ASCII decimal digits.
An NFA file may declare at most MAX_STATES states and a graph file at most
MAX_STATES // 4 vertices.

Exit codes: 0 positive answer, 1 negative answer or failed validation,
2 malformed input.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from .accept import SymbolNotInAlphabetError, accepts_length, enumerate_naive, simulate
from .automata import Graph, Nfa, NotAcyclicError, NotUnaryError, validate
from .boolmat import mul_calls
from .enumeration import enumerate_fast
from .reductions import (
    OvInstance,
    has_triangle_brute,
    has_triangle_matmul,
    reduce_ov,
    reduce_triangle,
)

MAX_LENGTH = 1 << 63
# Most states an input file may ask for: an NFA file's 'states' count, or 4n
# for an n-vertex graph, as its triangle reduction has 4n states. It is checked
# at the header line, before any per-state list or matrix row is allocated.
MAX_STATES = 1 << 16


class ParseError(Exception):
    """Malformed input file; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.message = message
        self.line = line
        self.source = source
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.source:
            parts.append(self.source)
        if self.line is not None:
            parts.append(f"line {self.line}")
        parts.append(self.message)
        return ": ".join(parts)


def _content_lines(text: str):
    """Yield (line_number, tokens) for non-blank, non-comment lines."""
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped.split()


def _int_token(token: str, what: str, line: int | None = None, source: str | None = None) -> int:
    # int() also takes '_', a sign and non-ASCII digits such as '٢';
    # str.isdigit() alone also takes superscripts such as '²'
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{what} must be a decimal integer, got {token!r}", line, source)
    return int(token, 10)


def parse_nfa(text: str, source: str | None = None) -> Nfa:
    state_count = None
    alphabet: tuple[str, ...] | None = None
    start = None
    finals: list[int] | None = None
    start_line = final_line = None
    transitions = []
    seen_transition = False
    for line, tokens in _content_lines(text):
        key = tokens[0]
        if key in ("states", "alphabet", "start", "final"):
            if seen_transition:
                raise ParseError(f"header line {key!r} after transitions", line, source)
            if key == "states":
                if state_count is not None:
                    raise ParseError("duplicate 'states' line", line, source)
                if len(tokens) != 2:
                    raise ParseError("expected 'states <n>'", line, source)
                state_count = _int_token(tokens[1], "state count", line, source)
                if not 1 <= state_count <= MAX_STATES:
                    raise ParseError(
                        f"state count must be in 1..{MAX_STATES}, got {state_count}", line, source
                    )
            elif key == "alphabet":
                if alphabet is not None:
                    raise ParseError("duplicate 'alphabet' line", line, source)
                for sym in tokens[1:]:
                    if len(sym) != 1 or not sym.isprintable():
                        raise ParseError(f"invalid symbol {sym!r}", line, source)
                if len(set(tokens[1:])) != len(tokens) - 1:
                    raise ParseError("duplicate alphabet symbol", line, source)
                alphabet = tuple(tokens[1:])
            elif key == "start":
                if start is not None:
                    raise ParseError("duplicate 'start' line", line, source)
                if len(tokens) != 2:
                    raise ParseError("expected 'start <id>'", line, source)
                start = _int_token(tokens[1], "start state", line, source)
                start_line = line
            else:
                if finals is not None:
                    raise ParseError("duplicate 'final' line", line, source)
                finals = [_int_token(t, "final state", line, source) for t in tokens[1:]]
                final_line = line
        else:
            if state_count is None or alphabet is None or start is None or finals is None:
                raise ParseError(
                    "transition before the states/alphabet/start/final header", line, source
                )
            if len(tokens) != 3:
                raise ParseError("expected '<from> <sym> <to>'", line, source)
            src = _int_token(tokens[0], "source state", line, source)
            sym = tokens[1]
            dst = _int_token(tokens[2], "target state", line, source)
            if sym not in alphabet:
                raise ParseError(f"transition symbol {sym!r} not in alphabet", line, source)
            if not (0 <= src < state_count and 0 <= dst < state_count):
                raise ParseError("transition state out of range", line, source)
            transitions.append((src, sym, dst))
            seen_transition = True
    for name, value in (
        ("states", state_count),
        ("alphabet", alphabet),
        ("start", start),
        ("final", finals),
    ):
        if value is None:
            raise ParseError(f"missing '{name}' line", None, source)
    if not 0 <= start < state_count:
        raise ParseError(f"start state {start} out of range", start_line, source)
    for q in finals:
        if not 0 <= q < state_count:
            raise ParseError(f"final state {q} out of range", final_line, source)
    try:
        return Nfa(state_count, alphabet, start, frozenset(finals), frozenset(transitions))
    except ValueError as exc:
        raise ParseError(str(exc), None, source)


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


def parse_graph(text: str, source: str | None = None) -> Graph:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph file", None, source)
    line, tokens = lines[0]
    if len(tokens) != 2:
        raise ParseError("expected '<n> <m>' on the first line", line, source)
    n = _int_token(tokens[0], "vertex count", line, source)
    m = _int_token(tokens[1], "edge count", line, source)
    if not 1 <= 4 * n <= MAX_STATES:
        raise ParseError(f"vertex count must be in 1..{MAX_STATES // 4}, got {n}", line, source)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", None, source)
    edges = set()
    for line, tokens in lines[1:]:
        if len(tokens) != 2:
            raise ParseError("expected '<u> <v>'", line, source)
        u = _int_token(tokens[0], "vertex", line, source)
        v = _int_token(tokens[1], "vertex", line, source)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge {u} {v}", line, source)
        if u == v:
            raise ParseError(f"self-loop on vertex {u}", line, source)
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ParseError(f"duplicate edge {u} {v}", line, source)
        edges.add(edge)
    return Graph(n, frozenset(edges))


def parse_ov(text: str, source: str | None = None) -> OvInstance:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty vectors file", None, source)
    line, tokens = lines[0]
    if len(tokens) != 2:
        raise ParseError("expected '<n> <d>' on the first line", line, source)
    n = _int_token(tokens[0], "vector count", line, source)
    d = _int_token(tokens[1], "dimension", line, source)
    if n < 1 or d < 1:
        raise ParseError(f"need n >= 1 and d >= 1, got n={n}, d={d}", line, source)
    if len(lines) - 1 != 2 * n:
        raise ParseError(f"expected {2 * n} vector lines, found {len(lines) - 1}", None, source)
    sides: dict[str, list[tuple[int, ...]]] = {"v": [], "w": []}
    for index, (line, tokens) in enumerate(lines[1:]):
        expected = "v" if index < n else "w"
        if len(tokens) != 2 or tokens[0] != expected:
            raise ParseError(f"expected '{expected} <bitstring>'", line, source)
        bits = tokens[1]
        if len(bits) != d or any(ch not in "01" for ch in bits):
            raise ParseError(
                f"bitstring must be {d} characters of 0/1, got {bits!r}", line, source
            )
        sides[expected].append(tuple(int(ch) for ch in bits))
    return OvInstance(n, d, tuple(sides["v"]), tuple(sides["w"]))


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
    return Nfa(n, ("a",), 0, frozenset(finals), frozenset(transitions))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_nfa(path: str) -> Nfa:
    return parse_nfa(_read(path), source=path)


def cmd_validate(args) -> int:
    report = validate(_load_nfa(args.nfa))
    flags = [
        ("initially_connected", report.initially_connected),
        ("coaccessible", report.coaccessible),
        ("acyclic", report.acyclic),
        ("unary", report.unary),
    ]
    for name, value in flags:
        print(f"{name}: {str(value).lower()}")
    return 0 if all(value for _, value in flags) else 1


def cmd_accept_length(args) -> int:
    length = _int_token(args.length, "length")
    if length > MAX_LENGTH:
        raise ParseError(f"length {length} exceeds 2^63")
    nfa = _load_nfa(args.nfa)
    accepted = accepts_length(nfa, length)
    print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def cmd_enumerate(args) -> int:
    nfa = _load_nfa(args.nfa)
    engine = enumerate_naive if args.engine == "naive" else enumerate_fast
    for length in engine(nfa):
        print(length)
    return 0


def cmd_simulate(args) -> int:
    nfa = _load_nfa(args.nfa)
    accepted = simulate(nfa, args.word)
    print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def cmd_reduce_triangle(args) -> int:
    reduction = reduce_triangle(parse_graph(_read(args.graph), source=args.graph))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(serialize_nfa(reduction.nfa))
    print(f"target_length {reduction.target_length}")
    return 0


def cmd_reduce_ov(args) -> int:
    reduction = reduce_ov(parse_ov(_read(args.vectors), source=args.vectors))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(serialize_nfa(reduction.nfa))
    print(reduction.input)
    return 0


def cmd_triangle_check(args) -> int:
    graph = parse_graph(_read(args.graph), source=args.graph)
    if args.engine == "brute":
        found = has_triangle_brute(graph)
    elif args.engine == "matmul":
        found = has_triangle_matmul(graph)
    else:
        reduction = reduce_triangle(graph)
        found = accepts_length(reduction.nfa, reduction.target_length)
    print("TRIANGLE" if found else "TRIANGLE-FREE")
    return 0 if found else 1


def _median_time(fn, repetitions: int):
    times = []
    result = None
    for _ in range(repetitions):
        begin = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - begin)
    return statistics.median(times), result


def cmd_bench(args) -> int:
    sizes = [_int_token(token, "size") for token in args.sizes.split(",")]
    if any(n < 1 for n in sizes):
        raise ParseError("sizes must be positive")
    if args.trials < 1:
        raise ParseError(f"trials must be >= 1, got {args.trials}")
    print(
        "# layered-forward unary acyclic NFAs, expected out-degree 2, "
        f"base seed {args.seed}, trials {args.trials}"
    )
    print("n,seed,naive_time,fast_time,multiplications_used,agreement")
    for n in sizes:
        for trial in range(args.trials):
            instance_seed = (args.seed * 1000003 + n * 1009 + trial) & 0x7FFFFFFF
            nfa = random_layered_nfa(n, instance_seed)
            repetitions = 5 if n <= 512 else 3
            naive_time, naive_result = _median_time(lambda: enumerate_naive(nfa), repetitions)
            before = mul_calls()
            fast_time, fast_result = _median_time(lambda: enumerate_fast(nfa), repetitions)
            multiplications = (mul_calls() - before) // repetitions
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
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, SymbolNotInAlphabetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotUnaryError, NotAcyclicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
