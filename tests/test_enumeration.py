import random
import tracemalloc
import weakref

import pytest

import nfakit.enumeration
from nfakit import (
    BoolMatrix,
    Nfa,
    NotAcyclicError,
    NotUnaryError,
    accepts_length,
    adjacency_matrix,
    enumerate_fast,
    enumerate_naive,
    finals_mask,
    mul,
    mul_calls,
    pad_with_chain,
    validate,
)
from nfakit.automata import _successor_lists, require_unary_acyclic
from nfakit.cli import main, random_layered_nfa, serialize_nfa


def chain_nfa(n, finals):
    transitions = frozenset((i, "a", i + 1) for i in range(n - 1))
    return Nfa(n, ("a",), 0, frozenset(finals), transitions)


# ---------------------------------------------------------------------------
# pad_with_chain


def successors(row):
    return [j for j in range(row.bit_length()) if row >> j & 1]


def test_pad_smallest_case():
    a, w, finals, k = pad_with_chain(Nfa(1, ("a",), 0, frozenset({0}), frozenset()))
    assert (a.dim, a.rows) == (1, (0,))
    # one chain state, 2**0, whose row of B is the window's only row
    assert (k, w) == (0, [1 << 0])
    assert finals == 1


def test_pad_rounds_up_to_power_of_two():
    a, w, finals, k = pad_with_chain(chain_nfa(5, {4}))
    assert (a.dim, a.rows) == (5, (1 << 1, 1 << 2, 1 << 3, 1 << 4, 0))
    assert k == 3
    assert w == [1 << 0] + [0] * 4
    # chain rows 0..6 step down the chain; row 7, the last, feeds the start
    chain_rows = dense_padded(a, w[0], k).rows[5:]
    assert chain_rows == (1 << 6, 1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 0)
    assert finals == 1 << 4


def test_pad_exact_power_of_two_boundary():
    a, w, _finals, k = pad_with_chain(chain_nfa(8, {7}))
    assert (a.dim, len(w), k) == (8, 8, 3)
    a, w, _finals, k = pad_with_chain(chain_nfa(9, {8}))
    assert (a.dim, len(w), k) == (9, 9, 4)
    assert len(dense_padded(a, w[0], k).rows) == 9 + 16


def reachable_states(nfa):
    """The states the start reaches, ascending: a walk over the triples."""
    seen, frontier = {nfa.start}, {nfa.start}
    while frontier:
        frontier = {dst for src, _sym, dst in nfa.transitions if src in frontier} - seen
        seen |= frontier
    return sorted(seen)


def dense_padded(a, start, k):
    """The padded matrix [[A, 0], [B, S]] with every row stored: A's rows,
    then chain state i as row r + i, stepping to chain state i + 1 (S) and,
    through B, to the states of row i of B. B has 2**k rows, all zero but
    the last chain state's, which is start."""
    r, chain = a.dim, 1 << k
    b = [0] * (chain - 1) + [start]
    shift = [1 << (r + i + 1) if i + 1 < chain else 0 for i in range(chain)]
    return BoolMatrix(r + chain, a.rows + tuple(s | row for s, row in zip(shift, b)))


def test_pad_touches_chain_states_only_as_a_path():
    nfa = random_layered_nfa(11, 77)
    a, w, _finals, k = pad_with_chain(nfa)
    states, chain = reachable_states(nfa), 16
    r = len(states)
    assert r < nfa.state_count
    assert (a.dim, 1 << k) == (r, chain)
    assert w == [1 << states.index(nfa.start)] + [0] * (r - 1)
    m = dense_padded(a, w[0], k)
    incident = [
        (i, j) for i, row in enumerate(m.rows) for j in successors(row) if i >= r or j >= r
    ]
    expected = [(r + i, r + i + 1) for i in range(chain - 1)]
    expected.append((r + chain - 1, states.index(nfa.start)))
    assert sorted(incident) == sorted(expected)


def test_chain_distance_to_original_start():
    nfa = chain_nfa(6, {5})
    a, w, _finals, k = pad_with_chain(nfa)
    m = dense_padded(a, w[0], k)
    n = nfa.state_count
    chain = 1 << k
    assert (a.dim, chain) == (n, 8)
    assert w == [1 << 0] + [0] * (n - 1)
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
    trimmed = 0
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 40):
        for seed in range(5):
            nfa = random_dag_nfa(n, 1000 * n + seed)
            a, w, finals, k = pad_with_chain(nfa)
            states = reachable_states(nfa)
            r = len(states)
            trimmed += r < n
            full = adjacency_matrix(nfa).rows
            # row i is states[i]'s full row with column states[j] moved to j
            assert a.dim == r
            assert a.rows == tuple(
                sum(1 << j for j, q in enumerate(states) if full[p] >> q & 1) for p in states
            )
            assert all(full[p] >> q & 1 == 0 for p in states for q in range(n) if q not in states)
            # 2**k is the smallest power of two at least n
            assert 1 << k >= n and (k == 0 or 1 << k - 1 < n)
            assert w == [1 << states.index(nfa.start)] + [0] * (r - 1)
            assert {states[i] for i in range(r) if finals >> i & 1} == nfa.finals & set(states)
            assert finals >> r == 0
            mask = finals_mask(nfa)
            assert {q for q in range(n) if mask >> q & 1} == nfa.finals
            assert mask >> n == 0
    assert trimmed > 10


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


def with_unreachable_states(nfa, extra, seed):
    """nfa with extra states appended that its start cannot reach, joined by
    forward edges among themselves and into nfa's states, then relabelled
    by a seeded permutation."""
    rng = random.Random(seed)
    n, total = nfa.state_count, nfa.state_count + extra
    transitions = set(nfa.transitions)
    for p in range(n, total):
        for q in rng.sample(range(total), min(3, total)):
            if q < n or q > p:
                transitions.add((p, "a", q))
    finals = set(nfa.finals) | {p for p in range(n, total) if rng.random() < 0.5}
    label = list(range(total))
    rng.shuffle(label)
    return Nfa(
        total,
        ("a",),
        label[nfa.start],
        frozenset(label[q] for q in finals),
        frozenset((label[p], "a", label[q]) for p, _sym, q in transitions),
    )


def test_fast_ignores_states_the_start_cannot_reach():
    rng = random.Random(2525)
    for n, total in ((1, 2), (3, 5), (7, 9), (8, 9), (16, 17), (12, 33), (30, 64), (40, 65)):
        for trial in range(4):
            nfa = random_layered_nfa(n, rng.randrange(10**6))
            big = with_unreachable_states(nfa, total - n, rng.randrange(10**6))
            assert len(reachable_states(big)) <= n
            before = mul_calls()
            got = enumerate_fast(big)
            assert mul_calls() - before == (total - 1).bit_length()
            assert got == enumerate_naive(big) == enumerate_fast(nfa)


def test_fast_squares_the_reachable_states_and_the_chain_only(monkeypatch):
    real_mul = nfakit.enumeration.mul
    dims = []

    def spy(a, b):
        dims.append(a.dim)
        return real_mul(a, b)

    monkeypatch.setattr(nfakit.enumeration, "mul", spy)
    for total in (5, 9, 17, 40):
        nfa = with_unreachable_states(random_layered_nfa(4, total), total - 4, total)
        dims.clear()
        assert enumerate_fast(nfa) == enumerate_naive(nfa)
        k = (total - 1).bit_length()
        # the chain's blocks are rows ORed beside the products, never squared
        assert dims == [len(reachable_states(nfa))] * k


def window_dag_nfa(n, reach, seed):
    """Unary DAG from state 0: each state steps to 3 of the next reach states."""
    rng = random.Random(seed)
    transitions = {
        (i, "a", j)
        for i in range(n - 1)
        for j in rng.sample(range(i + 1, min(i + reach, n - 1) + 1), min(3, n - 1 - i))
    }
    finals = frozenset(q for q in range(n) if rng.random() < 0.25)
    return Nfa(n, ("a",), 0, finals, frozenset(transitions))


def test_fast_row_products_fill_the_window_from_live_rows_only(monkeypatch):
    # B's row products: at most one per window row past the first, none
    # once A**h is zero, and none whose operand has a bit on a zero row of
    # the A**h it multiplies
    real_row_times = nfakit.enumeration._row_times
    calls = []

    def spy(row, brows, *rest):
        calls.append(any(brows) and all(brows[j] for j in successors(row)))
        return real_row_times(row, brows, *rest)

    monkeypatch.setattr(nfakit.enumeration, "_row_times", spy)
    rng = random.Random(2727)
    instances = [random_dag_nfa(n, rng.randrange(10**6)) for n in (2, 5, 9, 17, 40, 90)]
    instances += [random_layered_nfa(n, rng.randrange(10**6)) for n in (3, 8, 33, 100, 300)]
    instances += [window_dag_nfa(n, 16, rng.randrange(10**6)) for n in (20, 64, 150, 300)]
    for nfa in instances:
        calls.clear()
        assert enumerate_fast(nfa) == enumerate_naive(nfa)
        assert len(calls) <= len(reachable_states(nfa)) - 1
        assert all(calls)
    assert sum(len(reachable_states(nfa)) >= 16 for nfa in instances) >= 6
    # one reachable state: the window has no row to fill
    calls.clear()
    assert enumerate_fast(Nfa(16384, ("a",), 0, frozenset({0}), frozenset())) == (0,)
    assert calls == []


def test_fast_matches_the_dense_padded_square():
    # the padded matrix with every row stored, squared k times, read on
    # chain rows 0..r-1 against the finals: the layout the blocks replace
    rng = random.Random(2626)
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 33):
        for _ in range(6):
            nfa = random_dag_nfa(n, rng.randrange(10**6))
            a, w, finals, k = pad_with_chain(nfa)
            assert k == (n - 1).bit_length()
            m = dense_padded(a, w[0], k)
            for _ in range(k):
                m = mul(m, m)
            r = a.dim
            readout = tuple(i for i, row in enumerate(m.rows[r : 2 * r]) if row & finals)
            assert enumerate_fast(nfa) == readout == enumerate_naive(nfa)


def test_fast_start_reaching_no_final_squares_k_times():
    for n in (2, 3, 5, 9, 33):
        # the start steps to state 1 only; the finals lie beyond it, unreached
        transitions = {(0, "a", 1)} | {(q, "a", q + 1) for q in range(2, n - 1)}
        for finals in (set(), {n - 1} if n > 2 else set(), set(range(2, n))):
            nfa = Nfa(n, ("a",), 0, frozenset(finals), frozenset(transitions))
            before = mul_calls()
            assert enumerate_fast(nfa) == () == enumerate_naive(nfa)
            assert mul_calls() - before == (n - 1).bit_length()


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


def test_fast_heap_on_a_transition_free_automaton_is_the_successor_lists():
    # one reachable state: A is one row, B's window one row that makes no
    # row product, and k still comes from the state count, so 14 products
    # of a 1-row A. What the bound holds is the acyclicity check's successor
    # lists, one empty list for each of the 16,384 states
    nfa = Nfa(16384, ("a",), 0, frozenset({0}), frozenset())
    tracemalloc.start()
    try:
        before = mul_calls()
        got = enumerate_fast(nfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0,)
    assert mul_calls() - before == 14
    assert peak < 4 << 20


# ---------------------------------------------------------------------------
# the acyclicity check: one pass, a proof of order, Kahn's peel otherwise


def unary_nfa(n, finals, edges):
    return Nfa(n, ("a",), 0, frozenset(finals), frozenset((p, "a", q) for p, q in edges))


CYCLIC = {
    # 0 -> 1 -> 2 is all the start reaches; every edge ascends but 5 -> 3
    "unreachable 3-cycle": unary_nfa(6, {2, 4}, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    "unreachable self-loop": unary_nfa(5, {2}, [(0, 1), (1, 2), (3, 3), (3, 4)]),
    "2-cycle": unary_nfa(5, {4}, [(0, 1), (1, 2), (2, 3), (3, 2), (3, 4)]),
    "self-loop off state 0": unary_nfa(4, {3}, [(0, 1), (1, 2), (2, 2), (2, 3)]),
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_every_cycle_is_refused_reachable_or_not(name, tmp_path, capsys):
    nfa = CYCLIC[name]
    with pytest.raises(NotAcyclicError):
        enumerate_fast(nfa)
    with pytest.raises(NotAcyclicError):
        enumerate_naive(nfa)
    assert not validate(nfa).acyclic
    path = tmp_path / "cyclic.nfa"
    path.write_text(serialize_nfa(nfa))
    for engine in ("fast", "naive"):
        assert main(["enumerate", str(path), "--engine", engine]) == 1
        assert "acyclic" in capsys.readouterr().err


def relabelled(nfa, label):
    return Nfa(
        nfa.state_count,
        nfa.alphabet,
        label[nfa.start],
        frozenset(label[q] for q in nfa.finals),
        frozenset((label[p], sym, label[q]) for p, sym, q in nfa.transitions),
    )


def test_descending_acyclic_automata_take_the_kahn_fallback(tmp_path, capsys):
    rng = random.Random(2802)
    for trial in range(60):
        n = 2 + trial % 40
        nfa = random_layered_nfa(n, rng.randrange(10**6))
        if trial % 2:  # every edge descends
            label = list(range(n - 1, -1, -1))
        else:
            label = rng.sample(range(n), n)
        big = relabelled(nfa, label)
        assert not _successor_lists(big)[1]
        assert validate(big).acyclic
        assert enumerate_fast(big) == enumerate_naive(big) == enumerate_fast(nfa)
        if trial < 6:
            path = tmp_path / "dag.nfa"
            path.write_text(serialize_nfa(big))
            assert main(["enumerate", str(path)]) == 0
            assert capsys.readouterr().out == "".join(f"{t}\n" for t in enumerate_naive(nfa))


class CountingTransitions(frozenset):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_fast_reads_the_transitions_once():
    nfa = random_layered_nfa(40, 2803)
    for big in (nfa, relabelled(nfa, list(range(39, -1, -1)))):
        expected = enumerate_naive(big)
        counted = CountingTransitions(big.transitions)
        object.__setattr__(big, "transitions", counted)
        assert enumerate_fast(big) == expected
        assert counted.iterations == 1


def test_restricted_adjacency_is_the_full_one_on_the_states():
    rng = random.Random(2804)
    instances = [random_dag_nfa(n, rng.randrange(10**6)) for n in (1, 2, 5, 9, 17, 40) * 3]
    instances += [
        with_unreachable_states(random_layered_nfa(n, rng.randrange(10**6)), extra, seed)
        for n, extra, seed in ((1, 1, 1), (3, 2, 2), (7, 9, 3), (12, 21, 4), (30, 34, 5))
    ]
    for nfa in instances:
        fwd = require_unary_acyclic(nfa)
        states = reachable_states(nfa)
        full = adjacency_matrix(nfa).rows
        # in ascending order, as pad_with_chain numbers them, then shuffled
        for order in (states, rng.sample(states, len(states))):
            index = {q: i for i, q in enumerate(order)}
            got = adjacency_matrix(nfa, index, fwd)
            assert got.dim == len(order)
            assert got.rows == tuple(
                sum(1 << j for j, q in enumerate(order) if full[p] >> q & 1) for p in order
            )
    assert sum(len(reachable_states(nfa)) < nfa.state_count for nfa in instances) >= 10
