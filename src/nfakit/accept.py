"""Acceptance algorithms: matrix-power length test, frontier simulation,
and the quadratic-per-step baseline enumeration for unary acyclic NFAs."""

from __future__ import annotations

from .automata import Nfa, adjacency_matrix, finals_mask, require_unary_acyclic
from .boolmat import row_times_power

Word = str


class SymbolNotInAlphabetError(ValueError):
    """A word contains a symbol outside the automaton's alphabet."""


def accepts_length(nfa: Nfa, length: int) -> bool:
    """True iff the automaton accepts some word of exactly this length.

    Multiplies the start state's row vector by the given power of the
    adjacency matrix and checks it against the final-state columns; length
    0 asks whether the start state is final.
    """
    reached = row_times_power(adjacency_matrix(nfa), 1 << nfa.start, length)
    return bool(reached & finals_mask(nfa))


def simulate(nfa: Nfa, word: Word) -> bool:
    """Frontier simulation: track the set of states after each symbol."""
    known = set(nfa.alphabet)
    for ch in word:
        if ch not in known:
            raise SymbolNotInAlphabetError(f"symbol {ch!r} not in alphabet")
    successors = {ch: [0] * nfa.state_count for ch in nfa.alphabet}
    for src, sym, dst in nfa.transitions:
        successors[sym][src] |= 1 << dst
    frontier = 1 << nfa.start
    for ch in word:
        rows = successors[ch]
        nxt = 0
        bits = frontier
        while bits:
            low = bits & -bits
            nxt |= rows[low.bit_length() - 1]
            bits ^= low
        frontier = nxt
        if not frontier:
            return False
    return bool(frontier & finals_mask(nfa))


def enumerate_naive(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length of a unary acyclic NFA, ascending.

    Runs the frontier update state_count - 1 times; each update scans all
    states and unions the successor sets of the members, so the whole run
    stays at the baseline's cubic bit-operation cost even when frontiers
    are sparse.
    """
    require_unary_acyclic(nfa)
    n = nfa.state_count
    successors = adjacency_matrix(nfa).rows
    finals = finals_mask(nfa)
    masks = [1 << q for q in range(n)]
    frontier = 1 << nfa.start
    lengths = []
    for step in range(n):
        if frontier & finals:
            lengths.append(step)
        if step < n - 1:
            nxt = 0
            for q in range(n):
                if frontier & masks[q]:
                    nxt |= successors[q]
            frontier = nxt
    return tuple(lengths)
