"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of N = 2**k states (N the smallest power of two at least the
state count) is prepended to the states the start can reach; raising the
padded adjacency matrix to the N-th power with exactly k squarings makes
row i of the chain answer "is some word of length i accepted" for every i
at once. By blocks the padded matrix is M = [[A, 0], [B, S]], S the chain's
shift. In M**h, B's row N - h + t is start·A**t for t < h and its rows below
N - h are zero, so only A and the r rows of B the readout reads are stored.
"""

from __future__ import annotations

from .automata import Nfa, _closure, _mask, adjacency_matrix, require_unary_acyclic
from .boolmat import BoolMatrix, _row_times, mul


def pad_with_chain(nfa: Nfa) -> tuple[BoolMatrix, list[int], int, int]:
    """The stored blocks of the padded matrix: (A, w, finals, k).

    A is the adjacency matrix of the r states the start can reach, in
    ascending order, and finals the finals mask in the same numbering. The
    chain has 2**k states, k from the state count. w holds r rows of B: w[0]
    is the last chain state's row, which feeds the start; the rest are zero.
    """
    fwd = require_unary_acyclic(nfa)
    index = {q: i for i, q in enumerate(sorted(_closure(fwd, [nfa.start])))}
    w = [0] * len(index)
    w[0] = 1 << index[nfa.start]
    finals = _mask([i for q, i in index.items() if q in nfa.finals], len(index))
    return adjacency_matrix(nfa, index, fwd), w, finals, (nfa.state_count - 1).bit_length()


def enumerate_fast(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length using exactly k matrix squarings."""
    a, w, finals, k = pad_with_chain(nfa)
    for j in range(k):
        # B of M**2h is B·A**h | S**h·B, so w[t] becomes w[t - h] times A**h
        # for h <= t < 2h and stays for t < h. Bits whose row of A**h is
        # zero are masked off; an all-zero A**h leaves nothing to compute
        h = 1 << j
        live = _mask([i for i, row in enumerate(a.rows) if row], a.dim) if h < a.dim else 0
        tables = []
        for t in range(h, min(2 * h, a.dim) if live else 0):
            w[t] = _row_times(w[t - h] & live, a.rows, tables)
        a = mul(a, a)
    # w is now B's rows 0..r-1; an accepting path visits distinct reachable
    # states, so every accepted length is below r
    return tuple(t for t, row in enumerate(w) if row & finals)
