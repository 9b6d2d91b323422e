"""Acceptance algorithms: matrix-power length test, frontier simulation,
and the quadratic-per-step baseline enumeration for unary acyclic NFAs."""

from __future__ import annotations

from .automata import Nfa, _successor_rows, adjacency_matrix, finals_mask, require_unary_acyclic
from .boolmat import _row_times, row_times_power

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
    """Frontier simulation: track the set of states after each symbol.

    A step is Shift-And: the frontier's states with an edge p -> p+1 on
    the symbol move by one shift, and only those with other edges on it
    go through the row kernel. Only the letters the word reads are encoded,
    each with Four Russians tables for the run, which the kernel grows as
    far as dense frontiers reach: an entry is reused on the same letter.
    """
    steps = {ch: (*record, []) for ch, record in _successor_rows(nfa, set(word)).items()}
    for ch in word:  # all of it, before a step can end the run early
        if ch not in steps:
            raise SymbolNotInAlphabetError(f"symbol {ch!r} not in alphabet")
    frontier = 1 << nfa.start
    for ch in word:
        shift, exceptions, rows, tables = steps[ch]
        frontier = (frontier & shift) << 1 | _row_times(frontier & exceptions, rows, tables)
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
    frontier = 1 << nfa.start
    lengths = []
    for step in range(n):
        if frontier & finals:
            lengths.append(step)
        if step < n - 1:
            nxt = 0
            for q in range(n):
                if frontier >> q & 1:
                    nxt |= successors[q]
            frontier = nxt
    return tuple(lengths)
