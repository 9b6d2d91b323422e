"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of 2**k states (2**k the smallest power of two at least the
state count) is prepended to the states the start can reach; raising the
padded adjacency matrix to the 2**k power with exactly k squarings makes
row i of the chain answer "is some word of length i accepted" for every i
at once.
"""

from __future__ import annotations

from .automata import Nfa, _closure, _mask, adjacency_matrix, require_unary_acyclic
from .boolmat import BoolMatrix, mul


class PaddedMatrix(BoolMatrix):
    """A padded matrix and its finals mask, in the same row numbering."""

    def __init__(self, dim: int, rows: tuple[int, ...], finals: int):
        super().__init__(dim, rows)
        object.__setattr__(self, "finals", finals)  # the dataclass is frozen


def pad_with_chain(nfa: Nfa) -> PaddedMatrix:
    """The adjacency matrix of the reachable states with the feeder chain's
    rows appended.

    Rows 0..r-1 are the r states the start can reach, in ascending order;
    the others carry no word. The chain has 2**k states, the smallest power
    of two at least the state count n: chain state i is row r+i and steps
    to chain state i+1, and the last chain row feeds the start instead.
    """
    states = sorted(_closure(require_unary_acyclic(nfa), [nfa.start]))
    r = len(states)
    length = 1 << (nfa.state_count - 1).bit_length()
    chain = tuple(1 << q for q in range(r + 1, r + length)) + (1 << states.index(nfa.start),)
    finals = _mask([i for i, q in enumerate(states) if q in nfa.finals], r)
    return PaddedMatrix(r + length, adjacency_matrix(nfa, states).rows + chain, finals)


def enumerate_fast(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length using exactly k matrix squarings."""
    m = pad_with_chain(nfa)
    finals = m.finals
    k = (nfa.state_count - 1).bit_length()
    # an accepting path visits distinct reachable states, so every accepted
    # length is below r, the rows ahead of the chain's 2**k
    r = m.dim - (1 << k)
    for _ in range(k):
        m = mul(m, m)
    return tuple(i for i, row in enumerate(m.rows[r : 2 * r]) if row & finals)
