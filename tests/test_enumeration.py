import random

import pytest

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


def test_pad_smallest_case():
    padded = pad_with_chain(Nfa(1, ("a",), 0, frozenset({0}), frozenset()))
    assert padded.k == 0
    assert padded.chain_offset == 1
    assert padded.nfa.state_count == 2
    assert padded.nfa.start == 1
    assert padded.nfa.transitions == frozenset({(1, "a", 0)})


def test_pad_rounds_up_to_power_of_two():
    padded = pad_with_chain(chain_nfa(5, {4}))
    assert padded.k == 3
    assert padded.nfa.state_count == 13
    assert padded.original_count == 5


def test_pad_exact_power_of_two_boundary():
    padded = pad_with_chain(chain_nfa(8, {7}))
    assert padded.k == 3
    assert padded.nfa.state_count == 16


def test_pad_touches_chain_states_only_as_a_path():
    nfa = random_layered_nfa(11, 77)
    padded = pad_with_chain(nfa)
    n, chain = padded.chain_offset, 1 << padded.k
    incident = [t for t in padded.nfa.transitions if t[0] >= n or t[2] >= n]
    expected = [(n + i, "a", n + i + 1) for i in range(chain - 1)]
    expected.append((n + chain - 1, "a", nfa.start))
    assert sorted(incident) == sorted(expected)
    assert padded.nfa.finals == nfa.finals
    assert padded.nfa.start == n


def test_chain_distance_to_original_start():
    nfa = chain_nfa(6, {5})
    padded = pad_with_chain(nfa)
    succ = {}
    for src, _sym, dst in padded.nfa.transitions:
        succ.setdefault(src, set()).add(dst)
    chain = 1 << padded.k
    for i in range(chain):
        # breadth-first walk from chain state i down to the original start
        frontier = {padded.chain_offset + i}
        steps = 0
        while nfa.start not in frontier:
            frontier = {d for s in frontier for d in succ.get(s, ())}
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


def test_pad_matrix_matches_its_nfa_view():
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 40):
        for seed in range(5):
            nfa = random_dag_nfa(n, 1000 * n + seed)
            padded = pad_with_chain(nfa)
            assert padded.matrix == adjacency_matrix(padded.nfa)
            assert padded.matrix.dim == n + (1 << padded.k)
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


def test_fast_membership_matches_accepts_length():
    for trial in range(20):
        nfa = random_layered_nfa(2 + trial, 60 + trial)
        members = set(enumerate_fast(nfa))
        for ell in range(nfa.state_count):
            assert accepts_length(nfa, ell) == (ell in members)
