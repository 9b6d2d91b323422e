"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of 2**k states (2**k the smallest power of two at least the
state count) is prepended to the states the start can reach; raising the
padded adjacency matrix to the 2**k power with exactly k squarings makes
row i of the chain answer "is some word of length i accepted" for every i
at once. By blocks the padded matrix is M = [[A, 0], [B, S]], S the chain's
shift and B its rows over the reachable states. Squaring keeps that form,
so only A and B are stored.
"""

from __future__ import annotations

from .automata import Nfa, _closure, _mask, adjacency_matrix, require_unary_acyclic
from .boolmat import BoolMatrix, _row_times, mul


def pad_with_chain(nfa: Nfa) -> tuple[BoolMatrix, list[int], int]:
    """The stored blocks of the padded matrix: (A, B, finals).

    A is the adjacency matrix of the r states the start can reach, in
    ascending order, and finals the finals mask in the same numbering. B
    has a row per chain state, 2**k of them, k from the state count: all
    zero but the last chain state's, which feeds the start.
    """
    states = sorted(_closure(require_unary_acyclic(nfa), [nfa.start]))
    b = [0] * (1 << (nfa.state_count - 1).bit_length())
    b[-1] = 1 << states.index(nfa.start)
    finals = _mask([i for i, q in enumerate(states) if q in nfa.finals], len(states))
    return adjacency_matrix(nfa, states), b, finals


def enumerate_fast(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length using exactly k matrix squarings."""
    a, b, finals = pad_with_chain(nfa)
    h = 1
    while h < len(b):
        tables = []
        # B of M**2h is B·A**h | S**h·B: row i of B times A, ORed with row
        # i + h of B. Rows below len(b) - 2h stay zero, so they are skipped;
        # ascending, so row i + h is still the last power's when it is read
        for i in range(len(b) - 2 * h, len(b)):
            b[i] = _row_times(b[i], a.rows, tables) | (b[i + h] if i + h < len(b) else 0)
        a = mul(a, a)
        h <<= 1
    # an accepting path visits distinct reachable states, so every accepted
    # length is below r, the dimension of A
    return tuple(i for i, row in enumerate(b[: a.dim]) if row & finals)
