"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of 2**k states (2**k the smallest power of two at least the
state count) is prepended to the automaton; raising the padded adjacency
matrix to the 2**k power with exactly k squarings makes row i of the chain
answer "is some word of length i accepted" for every i at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Nfa, adjacency_matrix, require_unary_acyclic
from .boolmat import mul

LengthSet = tuple[int, ...]


@dataclass(frozen=True)
class PaddedNfa:
    """An automaton extended with the feeder chain.

    Original states keep indices 0..original_count-1; chain state i sits at
    chain_offset + i. The chain walks forward on the unary letter and its
    last state feeds the original start state.
    """

    nfa: Nfa
    k: int
    chain_offset: int
    original_count: int


def pad_with_chain(nfa: Nfa) -> PaddedNfa:
    """Append the feeder chain and move the start to its head."""
    require_unary_acyclic(nfa)
    n = nfa.state_count
    k = (n - 1).bit_length()
    chain = 1 << k
    letter = nfa.alphabet[0]
    transitions = set(nfa.transitions)
    for i in range(chain - 1):
        transitions.add((n + i, letter, n + i + 1))
    transitions.add((n + chain - 1, letter, nfa.start))
    padded = Nfa(n + chain, nfa.alphabet, n, nfa.finals, transitions)
    return PaddedNfa(nfa=padded, k=k, chain_offset=n, original_count=n)


def enumerate_fast(nfa: Nfa) -> LengthSet:
    """List every accepted word length using exactly k matrix squarings."""
    padded = pad_with_chain(nfa)
    m = adjacency_matrix(padded.nfa)
    for _ in range(padded.k):
        m = mul(m, m)
    finals = 0
    for q in padded.nfa.finals:
        finals |= 1 << q
    offset = padded.chain_offset
    return tuple(
        i for i in range(padded.original_count) if m.rows[offset + i] & finals
    )
