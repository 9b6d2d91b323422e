import tracemalloc

import pytest

from nfakit import (
    EmptyLanguageError,
    Graph,
    Nfa,
    OvInstance,
    adjacency_matrix,
    enumerate_naive,
    finals_mask,
    power,
    reduce_ov,
    reduce_triangle,
    simulate,
    trim,
    validate,
)
from nfakit.automata import _successor_lists
from nfakit.cli import MAX_STATES, serialize_nfa

from conftest import assert_built_as_checked, random_nfa, seeded

C4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def chain_nfa(n, finals, letter="a"):
    transitions = frozenset((i, letter, i + 1) for i in range(n - 1))
    return Nfa(n, (letter,), 0, frozenset(finals), transitions)


def all_words(alphabet, max_len):
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in alphabet]
        words.extend(frontier)
    return words


# ---------------------------------------------------------------------------
# construction invariants


def test_rejects_bad_state_count():
    with pytest.raises(ValueError):
        Nfa(0, ("a",), 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        Nfa(2.0, ("a",), 0, frozenset(), frozenset())


def test_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        Nfa(1, ("ab",), 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        Nfa(1, (" ",), 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        Nfa(1, ("a", "a"), 0, frozenset(), frozenset())


def test_rejects_out_of_range_states():
    with pytest.raises(ValueError):
        Nfa(2, ("a",), 2, frozenset(), frozenset())
    with pytest.raises(ValueError):
        Nfa(2, ("a",), 0, frozenset({5}), frozenset())
    with pytest.raises(ValueError):
        Nfa(2, ("a",), 0, frozenset(), frozenset({(0, "a", 7)}))
    with pytest.raises(ValueError, match="malformed transition"):
        Nfa(2, ("a",), 0, frozenset(), frozenset({(0, "a")}))


def test_rejects_unknown_transition_symbol():
    with pytest.raises(ValueError):
        Nfa(2, ("a",), 0, frozenset(), frozenset({(0, "b", 1)}))


def test_duplicate_triples_collapse():
    nfa = Nfa(2, ("a",), 0, frozenset({1}), [(0, "a", 1), (0, "a", 1)])
    assert len(nfa.transitions) == 1


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2.0, frozenset())
    with pytest.raises(ValueError, match="vertex_count must be >= 1"):
        Graph(0, frozenset())
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 1.5)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({5}))
    g = Graph(3, frozenset({(2, 0)}))
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_graph_normalizes_edges_as_given_in_any_collection():
    # the old rule: every edge becomes its (min, max) pair, in a new frozenset
    rng = seeded(3003)
    for _ in range(200):
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        if pairs:
            u, v = rng.choice(pairs)
            given += [(u, v), (v, u)]  # both orientations of one edge
        rng.shuffle(given)
        expected = frozenset((min(u, v), max(u, v)) for u, v in given)
        for edges in (set(given), list(given), frozenset(given), iter(given)):
            graph = Graph(n, edges)
            assert graph.edges == expected and type(graph.edges) is frozenset
            assert graph == Graph(n, expected) and hash(graph) == hash(Graph(n, expected))
        # a frozenset of (min, max) pairs is kept as given, not rebuilt
        assert Graph(n, expected).edges is expected


# ---------------------------------------------------------------------------
# validate


def test_validate_single_final_state():
    nfa = Nfa(1, ("a",), 0, frozenset({0}), frozenset())
    report = validate(nfa)
    assert (
        report.initially_connected,
        report.coaccessible,
        report.acyclic,
        report.unary,
    ) == (True, True, True, True)


def test_validate_disconnected_two_states():
    nfa = Nfa(2, ("a",), 0, frozenset({1}), frozenset())
    report = validate(nfa)
    assert not report.initially_connected
    assert not report.coaccessible
    assert report.acyclic
    assert report.unary


def test_validate_square_reduction_is_fully_clean():
    report = validate(reduce_triangle(C4).nfa)
    assert report == validate(reduce_triangle(C4).nfa)
    assert report.initially_connected
    assert report.coaccessible
    assert report.acyclic
    assert report.unary


def test_validate_detects_cycles_and_binary_alphabets():
    cyclic = Nfa(2, ("a",), 0, frozenset({1}), {(0, "a", 1), (1, "a", 0)})
    assert not validate(cyclic).acyclic
    self_loop = Nfa(1, ("a",), 0, frozenset({0}), {(0, "a", 0)})
    assert not validate(self_loop).acyclic
    binary = Nfa(1, ("a", "b"), 0, frozenset({0}), frozenset())
    assert not validate(binary).unary


def test_successor_lists_note_exactly_whether_every_edge_ascends():
    # the order proof: no edge p -> q with q <= p; a self-loop is such an edge
    rng = seeded(28)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 10)
        transitions = {
            (p, rng.choice("ab"), q) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.3
        }
        if rng.random() < 0.5:
            p = rng.randrange(n)
            transitions.add((p, "a", rng.choice([p, rng.randrange(p + 1)])))
        nfa = Nfa(n, ("a", "b"), 0, frozenset(), frozenset(transitions))
        fwd, ascending = _successor_lists(nfa)
        assert sorted((p, q) for p, succ in enumerate(fwd) for q in succ) == sorted(
            (p, q) for p, _sym, q in transitions
        )
        assert ascending == all(q > p for p, _sym, q in transitions)
        verdicts.append(ascending)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


# ---------------------------------------------------------------------------
# trim


def test_trim_is_identity_on_trim_input():
    nfa = chain_nfa(3, {2})
    assert trim(nfa) == nfa


def test_trim_drops_states_past_the_last_final():
    nfa = chain_nfa(3, {1})
    trimmed = trim(nfa)
    assert trimmed == chain_nfa(2, {1})


def test_trim_raises_on_empty_language():
    with pytest.raises(EmptyLanguageError):
        trim(Nfa(2, ("a",), 0, frozenset(), {(0, "a", 1)}))
    with pytest.raises(EmptyLanguageError):
        trim(Nfa(2, ("a",), 0, frozenset({1}), frozenset()))


def test_trim_removes_exactly_the_dead_states():
    # 12-state unary DAG: 0..7 live, 8/9 reachable dead ends, 10/11 unreachable
    transitions = {(i, "a", i + 1) for i in range(7)}
    transitions |= {(3, "a", 8), (8, "a", 9), (10, "a", 11), (11, "a", 5)}
    nfa = Nfa(12, ("a",), 0, frozenset({4, 7}), frozenset(transitions))
    trimmed = trim(nfa)
    assert trimmed.state_count == 8
    assert enumerate_naive(trimmed) == enumerate_naive(nfa)


def test_trim_preserves_language_on_random_nfas():
    rng = seeded(21)
    words = all_words(("a", "b"), 5)
    for _ in range(60):
        nfa = random_nfa(rng, max_states=5)
        try:
            trimmed = trim(nfa)
        except EmptyLanguageError:
            assert not any(simulate(nfa, w) for w in words)
            continue
        for word in words:
            assert simulate(nfa, word) == simulate(trimmed, word)


def test_trim_builds_what_the_checked_constructor_builds():
    rng = seeded(22)
    trimmed = 0
    for _ in range(200):
        nfa = random_nfa(rng, max_states=12, alphabet=("a", "b", "c"))
        try:
            result = trim(nfa)
        except EmptyLanguageError:
            continue
        assert_built_as_checked(result)
        trimmed += 1
    assert trimmed >= 50


# ---------------------------------------------------------------------------
# adjacency_matrix


def test_adjacency_of_transitionless_nfa_is_zero():
    nfa = Nfa(3, ("a",), 0, frozenset({0}), frozenset())
    assert adjacency_matrix(nfa).rows == (0, 0, 0)


def test_adjacency_of_chain_is_superdiagonal():
    m = adjacency_matrix(chain_nfa(3, {2}))
    assert m.rows == (0b010, 0b100, 0)


def test_adjacency_collapses_parallel_letters():
    nfa = Nfa(2, ("a", "b"), 0, frozenset({1}), {(0, "a", 1), (0, "b", 1)})
    assert adjacency_matrix(nfa).rows == (0b10, 0)


def test_adjacency_matches_transition_lookup():
    rng = seeded(22)
    for _ in range(30):
        nfa = random_nfa(rng, max_states=8)
        m = adjacency_matrix(nfa)
        pairs = {(src, dst) for src, _sym, dst in nfa.transitions}
        for i in range(nfa.state_count):
            for j in range(nfa.state_count):
                assert m.get(i, j) == ((i, j) in pairs)


def test_finals_mask_sets_one_bit_per_final_state():
    for n, finals, mask in (
        (1, (), 0),
        (1, (0,), 1),
        (9, (0, 8), 0b100000001),
        (MAX_STATES, range(MAX_STATES), (1 << MAX_STATES) - 1),
    ):
        assert finals_mask(Nfa(n, ("a",), 0, frozenset(finals), frozenset())) == mask


def test_acyclic_bounds_accepted_lengths():
    rng = seeded(23)
    from nfakit.cli import random_layered_nfa

    for trial in range(25):
        nfa = random_layered_nfa(rng.randint(1, 15), 500 + trial)
        assert validate(nfa).acyclic
        lengths = enumerate_naive(nfa)
        assert all(0 <= ell <= nfa.state_count - 1 for ell in lengths)


def test_acyclic_iff_adjacency_power_vanishes():
    # an n-state NFA has a walk of length n iff it has a cycle
    from nfakit.cli import random_layered_nfa

    rng = seeded(24)
    cases = [random_nfa(rng, max_states=10, max_out=rng.choice((1, 2))) for _ in range(300)]
    for _ in range(100):
        n = rng.randint(1, 12)
        order = rng.sample(range(n), n)
        transitions = {
            (order[i], rng.choice("ab"), order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        cases.append(Nfa(n, ("a", "b"), order[0], frozenset(), frozenset(transitions)))
    cases.extend(random_layered_nfa(rng.randint(1, 40), 600 + t) for t in range(100))
    verdicts = []
    for nfa in cases:
        vanishes = not any(power(adjacency_matrix(nfa), nfa.state_count).rows)
        assert validate(nfa).acyclic == vanishes
        verdicts.append(vanishes)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 200


def test_no_path_keeps_the_bit_rows_of_a_large_automaton():
    # a chain's bit rows take n(n-1)/2 bits, 256 MiB at MAX_STATES, so rows
    # kept on Nfa, or built by validate, serialize_nfa or reduce_ov, would
    # take these peaks far past the limit
    limit = 64 << 20
    n = MAX_STATES
    tracemalloc.start()
    try:
        chain = chain_nfa(n, {n - 1})
        validate(chain)
        serialize_nfa(chain)
        del chain
        chain_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        d = 16382  # n = 2 reduces to exactly MAX_STATES states
        reduction = reduce_ov(OvInstance(2, d, ((0,) * d, (1,) * d), ((1,) * d, (0,) * d)))
        ov_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduction.nfa.state_count == MAX_STATES
    assert chain_peak < limit
    assert ov_peak < limit
