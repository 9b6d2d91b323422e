"""Property tests on generated automata (hypothesis, derandomized profile)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from nfakit import Nfa, simulate
from nfakit.automata import _successor_rows
from nfakit.cli import parse_nfa, serialize_nfa

# '#' starts a comment line in NFA files, so it is worth a round trip
SYMBOLS = ("a", "b", "#")


@st.composite
def nfas(draw):
    n = draw(st.integers(1, 12))
    alphabet = tuple(draw(st.permutations(SYMBOLS))[: draw(st.integers(0, 3))])
    states = st.integers(0, n - 1)
    transitions = (
        draw(st.frozensets(st.tuples(states, st.sampled_from(alphabet), states), max_size=40))
        if alphabet
        else frozenset()
    )
    return Nfa(n, alphabet, draw(states), draw(st.frozensets(states)), transitions)


def set_frontier(nfa, word):
    """Oracle: the set of states after each symbol, from the triples."""
    frontier = {nfa.start}
    for ch in word:
        frontier = {dst for src, sym, dst in nfa.transitions if src in frontier and sym == ch}
    return bool(frontier & nfa.finals)


@given(nfas())
def test_serialize_then_parse_is_identity(nfa):
    assert parse_nfa(serialize_nfa(nfa)) == nfa


@given(nfas())
def test_successor_rows_encode_exactly_the_triples(nfa):
    rows = _successor_rows(nfa)
    assert list(rows) == list(nfa.alphabet)
    assert all(len(sym_rows) == nfa.state_count for sym_rows in rows.values())
    encoded = {
        (p, sym, q)
        for sym, sym_rows in rows.items()
        for p, row in enumerate(sym_rows)
        for q in range(row.bit_length())
        if row >> q & 1
    }
    assert encoded == nfa.transitions


@given(st.data())
def test_simulate_matches_set_frontier(data):
    nfa = data.draw(nfas())
    word = data.draw(st.text(alphabet=nfa.alphabet, max_size=12))
    assert simulate(nfa, word) == set_frontier(nfa, word)

