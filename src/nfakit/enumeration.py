"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of 2**k states (2**k the smallest power of two at least the
state count) is prepended to the automaton; raising the padded adjacency
matrix to the 2**k power with exactly k squarings makes row i of the chain
answer "is some word of length i accepted" for every i at once.
"""

from __future__ import annotations

from .automata import Nfa, adjacency_matrix, finals_mask, require_unary_acyclic
from .boolmat import BoolMatrix, mul


def pad_with_chain(nfa: Nfa) -> BoolMatrix:
    """The adjacency matrix with the feeder chain's rows appended.

    Rows 0..n-1 are the automaton's own, n its state count. The chain has
    2**k states, the smallest power of two at least n: chain state i is
    row n+i and steps to chain state i+1, and the last chain row feeds the
    automaton's start state instead.
    """
    require_unary_acyclic(nfa)
    n = nfa.state_count
    length = 1 << (n - 1).bit_length()
    chain = tuple(1 << q for q in range(n + 1, n + length)) + (1 << nfa.start,)
    return BoolMatrix(n + length, adjacency_matrix(nfa).rows + chain)


def enumerate_fast(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length using exactly k matrix squarings."""
    m = pad_with_chain(nfa)
    n = nfa.state_count
    # the chain's 2**k rows follow the automaton's n
    for _ in range((m.dim - n).bit_length() - 1):
        m = mul(m, m)
    finals = finals_mask(nfa)
    return tuple(i for i, row in enumerate(m.rows[n : 2 * n]) if row & finals)
