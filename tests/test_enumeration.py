import random
import weakref

import pytest

import nfakit.enumeration
from nfakit import (
    Nfa,
    NotAcyclicError,
    NotUnaryError,
    accepts_length,
    adjacency_matrix,
    enumerate_fast,
    enumerate_naive,
    finals_mask,
    mul_calls,
    pad_with_chain,
)
from nfakit.cli import random_layered_nfa


def chain_nfa(n, finals):
    transitions = frozenset((i, "a", i + 1) for i in range(n - 1))
    return Nfa(n, ("a",), 0, frozenset(finals), transitions)


# ---------------------------------------------------------------------------
# pad_with_chain


def successors(row):
    return [j for j in range(row.bit_length()) if row >> j & 1]


def test_pad_smallest_case():
    m = pad_with_chain(Nfa(1, ("a",), 0, frozenset({0}), frozenset()))
    assert m.dim == 2
    assert m.rows == (0, 1 << 0)


def test_pad_rounds_up_to_power_of_two():
    m = pad_with_chain(chain_nfa(5, {4}))
    assert m.dim == 5 + 8


def test_pad_exact_power_of_two_boundary():
    m = pad_with_chain(chain_nfa(8, {7}))
    assert m.dim == 8 + 8


def test_pad_touches_chain_states_only_as_a_path():
    nfa = random_layered_nfa(11, 77)
    m = pad_with_chain(nfa)
    n, chain = nfa.state_count, 16
    assert m.dim == n + chain
    incident = [
        (i, j) for i, row in enumerate(m.rows) for j in successors(row) if i >= n or j >= n
    ]
    expected = [(n + i, n + i + 1) for i in range(chain - 1)]
    expected.append((n + chain - 1, nfa.start))
    assert sorted(incident) == sorted(expected)


def test_chain_distance_to_original_start():
    nfa = chain_nfa(6, {5})
    m = pad_with_chain(nfa)
    n = nfa.state_count
    chain = m.dim - n
    assert chain == 8
    for i in range(chain):
        # breadth-first walk from chain state i down to the original start
        frontier = {n + i}
        steps = 0
        while nfa.start not in frontier:
            frontier = {d for s in frontier for d in successors(m.rows[s])}
            steps += 1
            assert steps <= chain
        assert steps == chain - i


def random_dag_nfa(n, seed):
    """Unary acyclic NFA on a shuffled state order, with a random start."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    transitions = {
        (order[i], "a", order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 3 / n
    }
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, ("a",), rng.randrange(n), finals, frozenset(transitions))


def test_pad_keeps_the_automaton_rows():
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 40):
        for seed in range(5):
            nfa = random_dag_nfa(n, 1000 * n + seed)
            m = pad_with_chain(nfa)
            assert m.rows[:n] == adjacency_matrix(nfa).rows
            assert m.dim == n + (1 << (n - 1).bit_length())
            mask = finals_mask(nfa)
            assert {q for q in range(n) if mask >> q & 1} == nfa.finals
            assert mask >> n == 0


# ---------------------------------------------------------------------------
# enumerate_fast


def test_fast_single_final_start():
    assert enumerate_fast(Nfa(1, ("a",), 0, frozenset({0}), frozenset())) == (0,)


def test_fast_chain_finals():
    assert enumerate_fast(chain_nfa(4, {1, 3})) == (1, 3)


def test_fast_requires_unary_and_acyclic():
    with pytest.raises(NotUnaryError):
        enumerate_fast(Nfa(1, ("a", "b"), 0, frozenset({0}), frozenset()))
    with pytest.raises(NotAcyclicError):
        enumerate_fast(Nfa(1, ("a",), 0, frozenset({0}), {(0, "a", 0)}))


def test_fast_matches_naive_on_seeded_instances():
    for trial in range(300):
        nfa = random_layered_nfa(1 + trial % 40, 5000 + trial)
        assert enumerate_fast(nfa) == enumerate_naive(nfa)


def test_fast_uses_exactly_k_squarings():
    for n, expected_k in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (33, 6)):
        nfa = random_layered_nfa(n, n * 31)
        before = mul_calls()
        enumerate_fast(nfa)
        assert mul_calls() - before == expected_k


def test_fast_frees_each_operand_before_the_next_squaring(monkeypatch):
    # a live reference to an earlier power would keep its rows in memory
    # through every later squaring
    real_mul = nfakit.enumeration.mul
    operands = []

    def spy(a, b):
        assert [ref for ref in operands if ref() is not None] == []
        operands.append(weakref.ref(a))
        return real_mul(a, b)

    monkeypatch.setattr(nfakit.enumeration, "mul", spy)
    nfa = random_layered_nfa(33, 33 * 31)
    assert enumerate_fast(nfa) == enumerate_naive(nfa)
    assert len(operands) == 6


def test_fast_membership_matches_accepts_length():
    for trial in range(20):
        nfa = random_layered_nfa(2 + trial, 60 + trial)
        members = set(enumerate_fast(nfa))
        for ell in range(nfa.state_count):
            assert accepts_length(nfa, ell) == (ell in members)
