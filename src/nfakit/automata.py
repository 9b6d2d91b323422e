"""NFA and graph value types, structural checks, trimming, adjacency extraction.

States are integers 0..state_count-1, symbols are single printable
non-whitespace characters, and transitions are (from, symbol, to) triples.
All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boolmat import BoolMatrix

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
        if self.state_count < 1:
            raise ValueError(f"state_count must be >= 1, got {self.state_count}")
        for ch in self.alphabet:
            if not _is_symbol(ch):
                raise ValueError(f"invalid alphabet symbol {ch!r}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet contains duplicate symbols")
        if not self._in_range(self.start):
            raise ValueError(f"start state {self.start} out of range")
        for q in self.finals:
            if not self._in_range(q):
                raise ValueError(f"final state {q} out of range")
        symbols = set(self.alphabet)
        for triple in self.transitions:
            if not (isinstance(triple, tuple) and len(triple) == 3):
                raise ValueError(f"malformed transition {triple!r}")
            src, sym, dst = triple
            if not (self._in_range(src) and self._in_range(dst)):
                raise ValueError(f"transition {triple!r} uses an out-of-range state")
            if sym not in symbols:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    def _in_range(self, q) -> bool:
        return isinstance(q, int) and 0 <= q < self.state_count


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are stored as (min, max) vertex pairs."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {self.vertex_count}")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {edge!r} uses an out-of-range vertex")
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


def _successor_lists(nfa: Nfa) -> list[list[int]]:
    fwd: list[list[int]] = [[] for _ in range(nfa.state_count)]
    for src, _sym, dst in nfa.transitions:
        fwd[src].append(dst)
    return fwd


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
    """States reachable from the start, and states that reach a final state."""
    rev: list[list[int]] = [[] for _ in fwd]
    for src, _sym, dst in nfa.transitions:
        rev[dst].append(src)
    return _closure(fwd, [nfa.start]), _closure(rev, nfa.finals)


def _is_acyclic(fwd: list[list[int]]) -> bool:
    # iterative three-color depth-first search, roots in ascending order
    white, grey, black = 0, 1, 2
    color = [white] * len(fwd)
    for root in range(len(fwd)):
        if color[root] != white:
            continue
        color[root] = grey
        stack = [(root, iter(fwd[root]))]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == grey:
                    return False
                if color[child] == white:
                    color[child] = grey
                    stack.append((child, iter(fwd[child])))
                    advanced = True
                    break
            if not advanced:
                color[node] = black
                stack.pop()
    return True


def validate(nfa: Nfa) -> ValidationReport:
    """Report start-reachability, coaccessibility, acyclicity and unarity."""
    fwd = _successor_lists(nfa)
    reachable, coreachable = _live_states(nfa, fwd)
    return ValidationReport(
        initially_connected=len(reachable) == nfa.state_count,
        coaccessible=len(coreachable) == nfa.state_count,
        acyclic=_is_acyclic(fwd),
        unary=len(nfa.alphabet) == 1,
    )


def require_unary_acyclic(nfa: Nfa) -> None:
    """Raise NotUnaryError or NotAcyclicError unless both properties hold."""
    if len(nfa.alphabet) != 1:
        raise NotUnaryError("alphabet must contain exactly one symbol")
    if not _is_acyclic(_successor_lists(nfa)):
        raise NotAcyclicError("transition diagram must be acyclic")


def trim(nfa: Nfa) -> Nfa:
    """Keep exactly the states on some start-to-final path, renumbered.

    Renumbering preserves the relative order of surviving state indices.
    Raises EmptyLanguageError when no final state is reachable from start.
    """
    reachable, coreachable = _live_states(nfa, _successor_lists(nfa))
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
    return Nfa(len(keep), nfa.alphabet, remap[nfa.start], finals, transitions)


def adjacency_matrix(nfa: Nfa) -> BoolMatrix:
    """Bit (i, j) set iff some transition i -> j exists on any symbol."""
    rows = [0] * nfa.state_count
    for src, _sym, dst in nfa.transitions:
        rows[src] |= 1 << dst
    return BoolMatrix(nfa.state_count, tuple(rows))


def finals_mask(nfa: Nfa) -> int:
    """Bit q set iff state q is final."""
    return sum(1 << q for q in nfa.finals)
