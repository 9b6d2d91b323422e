"""Problem reductions and their brute-force oracles.

Two constructions live here. The first turns triangle detection in an
undirected graph into a length-acceptance question on a four-layer unary
acyclic NFA. The second turns the orthogonal-vectors problem into plain
NFA acceptance of one fixed input word over the alphabet {'0', '1'}.
Each construction ships with an independent brute-force decision
procedure used to certify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .automata import Graph, Nfa, _trusted_nfa
from .boolmat import BoolMatrix, _check_size, mul

UNARY_LETTER = "a"
BITS = ("0", "1")


@dataclass(frozen=True)
class TriangleReduction:
    """Four-layer unary NFA built from a graph (layout: `reduce_triangle`).

    A word of length target_length = n + 2 is accepted iff the graph
    has a triangle.
    """

    nfa: Nfa
    target_length: int


@dataclass(frozen=True)
class OvInstance:
    """Two lists of n boolean vectors of dimension d."""

    n: int
    d: int
    v: tuple[tuple[int, ...], ...]
    w: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_size("n", self.n)
        _check_size("d", self.d)
        object.__setattr__(self, "v", tuple(tuple(vec) for vec in self.v))
        object.__setattr__(self, "w", tuple(tuple(vec) for vec in self.w))
        for name, side in (("v", self.v), ("w", self.w)):
            if len(side) != self.n:
                raise ValueError(f"expected {self.n} {name}-vectors, got {len(side)}")
            for vec in side:
                if len(vec) != self.d or any(bit not in (0, 1) for bit in vec):
                    raise ValueError(f"{name}-vector {vec!r} is not a 0/1 vector of length {self.d}")


@dataclass(frozen=True)
class OvReduction:
    """Acyclic NFA plus the one input word it is meant to read (layout:
    `reduce_ov`).

    The word is 00w_1 00w_2 ... 00w_n and is accepted iff some pair
    (v_i, w_j) has boolean dot product zero.
    """

    nfa: Nfa
    input: str


def ov_state_count(n: int, d: int) -> int:
    """States of reduce_ov's NFA for n vectors of dimension d: a top and a
    bottom path of (n-1)(d+2)+1 states each, n gadgets of d, x and y."""
    return 2 * ((n - 1) * (d + 2) + 1) + n * d + 2


def reduce_triangle(graph: Graph) -> TriangleReduction:
    """Build the four-layer unary NFA deciding triangle existence.

    State (j-1)*n + i is copy i of the graph's vertex set in layer j
    (layers 1..4), so divmod(state, n) gives (j - 1, i). Layer 1 and
    layer 4 carry forward chains over the vertex copies; every undirected
    edge {u, v} contributes both directed crossings u -> v and v -> u
    between consecutive layers 1->2, 2->3 and 3->4. The start is
    vertex 0's copy in layer 1 and the sole final state is vertex n-1's
    copy in layer 4, so the automaton has exactly 4n states and
    2(n-1) + 6m transitions.
    """
    n = graph.vertex_count
    transitions = set()
    for i in range(n - 1):
        transitions.add((i, UNARY_LETTER, i + 1))
        transitions.add((3 * n + i, UNARY_LETTER, 3 * n + i + 1))
    for u, v in graph.edges:
        for layer in range(3):
            transitions.add((layer * n + u, UNARY_LETTER, (layer + 1) * n + v))
            transitions.add((layer * n + v, UNARY_LETTER, (layer + 1) * n + u))
    nfa = _trusted_nfa(4 * n, (UNARY_LETTER,), 0, frozenset({4 * n - 1}), frozenset(transitions))
    return TriangleReduction(nfa=nfa, target_length=n + 2)


def _graph_matrix(graph: Graph) -> BoolMatrix:
    rows = [0] * graph.vertex_count
    for u, v in graph.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return BoolMatrix(graph.vertex_count, tuple(rows))


def has_triangle_matmul(graph: Graph) -> bool:
    """Square the adjacency matrix and AND each row with its row in the square.

    An edge {u, v} closes a triangle iff u and v share a neighbour, that is
    iff entry (u, v) of the square is set, so one product decides it.
    """
    m = _graph_matrix(graph)
    square = mul(m, m)
    return any(row & square_row for row, square_row in zip(m.rows, square.rows))


def has_triangle_brute(graph: Graph) -> bool:
    """Direct triple loop over vertex triples."""
    for i, j, k in combinations(range(graph.vertex_count), 3):
        if graph.has_edge(i, j) and graph.has_edge(j, k) and graph.has_edge(i, k):
            return True
    return False


def ov_brute(inst: OvInstance) -> bool:
    """Scan all pairs for a boolean-orthogonal (v_i, w_j)."""
    for vi in inst.v:
        for wj in inst.w:
            if not any(a and b for a, b in zip(vi, wj)):
                return True
    return False


def reduce_ov(inst: OvInstance) -> OvReduction:
    """Build the acyclic NFA that accepts 00w_1...00w_n iff a pair is orthogonal.

    Layout, with T = (n-1)(d+2) + 1, ov_state_count(n, d) states in all:
      0 .. T-1          top path, every step on either symbol; a_j at
                        offset (j-1)(d+2) steps to x on either symbol
      T                 x, fans out to the gadget starts T+1+(i-1)d
      T+1 .. T+n*d      gadget chains, d states each; step k of gadget i
                        requires input '0' where v_i[k] = 1 and accepts
                        either symbol where v_i[k] = 0; the last step
                        lands on y
      T+n*d+1           y, final (covers j = n), fans out to every b_j
                        with j < n
      y+1 .. y+T        bottom path; b_j at offset (j-1)(d+2) + 1; its
                        last state is the other final

    Dropping off the top path at a_j, passing through x, running gadget i
    and re-entering at b_j consumes block j exactly, and the bottom walk
    consumes the rest, so every aligned orthogonal pair yields an
    accepting path and misaligned paths die or end off-final. The size is
    linear: at most 10nd + 3 states and 20nd transitions.
    """
    n, d = inst.n, inst.d
    block = d + 2
    top = (n - 1) * block + 1
    x = top
    y = top + 1 + n * d
    bottom = y + 1
    state_count = ov_state_count(n, d)
    transitions = set()
    for s in range(top - 1):
        for ch in BITS:
            transitions.add((s, ch, s + 1))
    for a in range(0, top, block):  # a_1 .. a_n
        for ch in BITS:
            transitions.add((a, ch, x))
    for g, vec in zip(range(top + 1, y, d), inst.v):  # gadget starts
        for ch in BITS:
            transitions.add((x, ch, g))
        for pos, bit in enumerate(vec):
            dst = y if pos == d - 1 else g + pos + 1
            if bit:
                transitions.add((g + pos, "0", dst))
            else:
                for ch in BITS:
                    transitions.add((g + pos, ch, dst))
    for b in range(bottom + 1, state_count - 1, block):  # b_1 .. b_(n-1)
        for ch in BITS:
            transitions.add((y, ch, b))
    for s in range(bottom, state_count - 1):
        for ch in BITS:
            transitions.add((s, ch, s + 1))
    finals = frozenset({y, state_count - 1})
    nfa = _trusted_nfa(state_count, BITS, 0, finals, frozenset(transitions))
    word = "".join("00" + "".join(str(bit) for bit in wj) for wj in inst.w)
    return OvReduction(nfa=nfa, input=word)
