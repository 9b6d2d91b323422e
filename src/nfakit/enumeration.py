"""Fast accepted-length enumeration for unary acyclic NFAs.

A feeder chain of 2**k states (2**k the smallest power of two at least the
state count) is prepended to the automaton; raising the padded adjacency
matrix to the 2**k power with exactly k squarings makes row i of the chain
answer "is some word of length i accepted" for every i at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Nfa, adjacency_matrix, finals_mask, require_unary_acyclic
from .boolmat import BoolMatrix, mul


@dataclass(frozen=True)
class PaddedNfa:
    """An automaton's adjacency matrix extended with the feeder chain.

    Rows 0..original_count-1 are those of source; chain state i sits at
    chain_offset + i. The chain walks forward on the unary letter and its
    last state feeds the original start state.
    """

    matrix: BoolMatrix
    k: int
    chain_offset: int
    original_count: int
    source: Nfa

    @property
    def nfa(self) -> Nfa:
        """The padded automaton; with one letter, the matrix rows fix its transitions."""
        source = self.source
        transitions = {
            (i, source.alphabet[0], j)
            for i, row in enumerate(self.matrix.rows)
            for j in range(row.bit_length())
            if row >> j & 1
        }
        return Nfa(self.matrix.dim, source.alphabet, self.chain_offset, source.finals, transitions)


def pad_with_chain(nfa: Nfa) -> PaddedNfa:
    """Append the feeder chain's rows to the adjacency matrix."""
    require_unary_acyclic(nfa)
    n = nfa.state_count
    k = (n - 1).bit_length()
    chain = tuple(1 << q for q in range(n + 1, n + (1 << k))) + (1 << nfa.start,)
    matrix = BoolMatrix(n + (1 << k), adjacency_matrix(nfa).rows + chain)
    return PaddedNfa(matrix=matrix, k=k, chain_offset=n, original_count=n, source=nfa)


def enumerate_fast(nfa: Nfa) -> tuple[int, ...]:
    """List every accepted word length using exactly k matrix squarings."""
    padded = pad_with_chain(nfa)
    k, offset, n = padded.k, padded.chain_offset, padded.original_count
    m = padded.matrix
    del padded  # so that the first squaring frees the unsquared matrix
    for _ in range(k):
        m = mul(m, m)
    finals = finals_mask(nfa)
    return tuple(i for i, row in enumerate(m.rows[offset : offset + n]) if row & finals)
