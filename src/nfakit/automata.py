"""NFA and graph value types, structural checks, trimming, adjacency extraction.

States are integers 0..state_count-1, symbols are single printable
non-whitespace characters, and transitions are (from, symbol, to) triples.
All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .boolmat import BoolMatrix, _check_size

StateId = int
Symbol = str


class EmptyLanguageError(ValueError):
    """The automaton accepts no word at all."""


class NotUnaryError(ValueError):
    """An operation restricted to one-letter alphabets got a larger one."""


class NotAcyclicError(ValueError):
    """An operation restricted to acyclic automata got a cyclic one."""


def _is_symbol(ch) -> bool:
    return (
        isinstance(ch, str) and len(ch) == 1 and ch.isprintable() and not ch.isspace()
    )


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton without epsilon transitions.

    The alphabet is an ordered sequence of distinct symbols; ordering only
    matters for serialization. Duplicate transition triples collapse.
    """

    state_count: int
    alphabet: tuple[Symbol, ...]
    start: StateId
    finals: frozenset[StateId]
    transitions: frozenset[tuple[StateId, Symbol, StateId]]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        n = self.state_count
        _check_size("state_count", n)
        for ch in self.alphabet:
            if not _is_symbol(ch):
                raise ValueError(f"invalid alphabet symbol {ch!r}")
        symbols = set(self.alphabet)
        if len(symbols) != len(self.alphabet):
            raise ValueError("alphabet contains duplicate symbols")
        if not (isinstance(self.start, int) and 0 <= self.start < n):
            raise ValueError(f"start state {self.start} out of range")
        for q in self.finals:
            if not (isinstance(q, int) and 0 <= q < n):
                raise ValueError(f"final state {q} out of range")
        for triple in self.transitions:
            if not (isinstance(triple, tuple) and len(triple) == 3):
                raise ValueError(f"malformed transition {triple!r}")
            p, sym, q = triple
            if not (isinstance(p, int) and isinstance(q, int) and 0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition {triple!r} uses an out-of-range state")
            if sym not in symbols:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")


def _trusted_nfa(*fields) -> Nfa:
    """An Nfa built without __post_init__: the package's one way to build one.

    Its callers are the checked parser (cli.parse_nfa) and constructions
    from checked values (reduce_triangle, reduce_ov, trim and
    cli.random_layered_nfa). It relies on every field being valid and
    already of its stored type: a tuple alphabet and frozenset finals and
    transitions, so that the Nfa equals Nfa(*fields) and hashes.
    """
    nfa = object.__new__(Nfa)
    nfa.__dict__.update(zip(Nfa.__dataclass_fields__, fields))
    return nfa


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are stored as (min, max) vertex pairs."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.vertex_count
        _check_size("vertex_count", n)
        normalized = set()
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise ValueError(f"malformed edge {edge!r}")
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not all(isinstance(x, int) and 0 <= x < n for x in edge):
                raise ValueError(f"edge {edge!r} needs integer vertices in 0..{n - 1}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class ValidationReport:
    """Structural flags, each decidable from the automaton alone."""

    initially_connected: bool
    coaccessible: bool
    acyclic: bool
    unary: bool


def _successor_lists(nfa: Nfa) -> tuple[list[list[int]], bool]:
    """The successor lists, in one pass over the transitions, and whether
    every edge p -> q ascends (q > p)."""
    fwd: list[list[int]] = [[] for _ in range(nfa.state_count)]
    ascending = True
    for src, _sym, dst in nfa.transitions:
        fwd[src].append(dst)
        if dst <= src:
            ascending = False
    return fwd, ascending


def _closure(adj: list[list[int]], roots: Iterable[int]) -> set[int]:
    seen = set(roots)
    stack = list(seen)
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _live_states(nfa: Nfa, fwd: list[list[int]]) -> tuple[set[int], set[int]]:
    """States reachable from the start, and states that reach a final state;
    the reverse lists come from fwd, not from a second pass over the triples."""
    rev: list[list[int]] = [[] for _ in fwd]
    for src, succ in enumerate(fwd):
        for dst in succ:
            rev[dst].append(src)
    return _closure(fwd, [nfa.start]), _closure(rev, nfa.finals)


def _is_acyclic(fwd: list[list[int]], ascending: bool) -> bool:
    # every cycle has an edge p -> q with q <= p, the one leaving its
    # largest state; with none, ascending order is topological
    if ascending:
        return True
    # Kahn: peel states of in-degree zero; a cycle keeps its states unpeeled
    indegree = [0] * len(fwd)
    for succ in fwd:
        for q in succ:
            indegree[q] += 1
    ready = [q for q, count in enumerate(indegree) if not count]
    peeled = 0
    while ready:
        peeled += 1
        for q in fwd[ready.pop()]:
            indegree[q] -= 1
            if not indegree[q]:
                ready.append(q)
    return peeled == len(fwd)


def validate(nfa: Nfa) -> ValidationReport:
    """Report start-reachability, coaccessibility, acyclicity and unarity."""
    fwd, ascending = _successor_lists(nfa)
    reachable, coreachable = _live_states(nfa, fwd)
    return ValidationReport(
        initially_connected=len(reachable) == nfa.state_count,
        coaccessible=len(coreachable) == nfa.state_count,
        acyclic=_is_acyclic(fwd, ascending),
        unary=len(nfa.alphabet) == 1,
    )


def require_unary_acyclic(nfa: Nfa) -> list[list[int]]:
    """Raise NotUnaryError or NotAcyclicError unless both properties hold.

    Returns the successor lists, built in one pass over the transitions.
    The same pass proves acyclicity when every edge p -> q ascends (q > p):
    a cycle has an edge that does not, the one leaving its largest state.
    Only when some edge does not ascend does Kahn's peel run over all the
    states. Either way a cycle anywhere is refused, reachable or not.
    """
    if len(nfa.alphabet) != 1:
        raise NotUnaryError("alphabet must contain exactly one symbol")
    fwd, ascending = _successor_lists(nfa)
    if not _is_acyclic(fwd, ascending):
        raise NotAcyclicError("transition diagram must be acyclic")
    return fwd


def trim(nfa: Nfa) -> Nfa:
    """Keep exactly the states on some start-to-final path, renumbered.

    Renumbering preserves the relative order of surviving state indices.
    Raises EmptyLanguageError when no final state is reachable from start.
    """
    reachable, coreachable = _live_states(nfa, _successor_lists(nfa)[0])
    keep = sorted(reachable & coreachable)
    if not keep:
        raise EmptyLanguageError("no final state is reachable from the start state")
    remap = {old: new for new, old in enumerate(keep)}
    transitions = frozenset(
        (remap[src], sym, remap[dst])
        for src, sym, dst in nfa.transitions
        if src in remap and dst in remap
    )
    finals = frozenset(remap[q] for q in nfa.finals if q in remap)
    return _trusted_nfa(len(keep), nfa.alphabet, remap[nfa.start], finals, transitions)


def _successor_rows(
    nfa: Nfa, letters: Container[Symbol]
) -> dict[Symbol, tuple[int, int, dict[int, int]]]:
    """Encode transitions as the Shift-And table that `simulate` steps by.

    Per symbol of the alphabet in letters it gives (shift, exceptions,
    rows): bit p of shift is set iff p -sym-> p+1, bit q of rows[p] is set
    iff p -sym-> q and q != p+1, and exceptions holds the keys of rows.
    Built per call for the letters of one word, never stored. A chain
    needs no rows; its full rows would take n(n-1)/2 bits.
    """
    table = {sym: ([], {}) for sym in nfa.alphabet if sym in letters}
    for src, sym, dst in nfa.transitions:
        try:
            chain, rows = table[sym]
        except KeyError:  # a symbol the word does not read
            continue
        if dst == src + 1:
            chain.append(src)
        else:
            rows[src] = rows.get(src, 0) | 1 << dst
    n = nfa.state_count
    return {sym: (_mask(chain, n), _mask(rows, n), rows) for sym, (chain, rows) in table.items()}


def _mask(states: Iterable[StateId], n: int) -> int:
    # bit q set for each state q < n of states: the one bytearray-to-int builder
    bits = bytearray((n + 7) >> 3)
    for q in states:
        bits[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(bits, "little")


def adjacency_matrix(
    nfa: Nfa, index: Mapping[StateId, int] | None = None, fwd: Sequence[list[int]] = ()
) -> BoolMatrix:
    """Bit (i, j) set iff some transition i -> j exists on any symbol.

    Given index, which numbers 0..len(index)-1 a set of states closed under
    transitions, and fwd, the successor lists of require_unary_acyclic,
    row and column index[q] stand for state q and every other state is left
    out. Only the lists of the states in index are read, not the transitions.
    """
    if index is None:  # no index lookups: accepts_length builds one per query
        rows = [0] * nfa.state_count
        for src, _sym, dst in nfa.transitions:
            rows[src] |= 1 << dst
        return BoolMatrix(nfa.state_count, tuple(rows))
    rows = [0] * len(index)
    for q, i in index.items():
        row = 0
        for dst in fwd[q]:
            row |= 1 << index[dst]
        rows[i] = row
    return BoolMatrix(len(index), tuple(rows))


def finals_mask(nfa: Nfa) -> int:
    """Bit q set iff state q is final."""
    return _mask(nfa.finals, nfa.state_count)
