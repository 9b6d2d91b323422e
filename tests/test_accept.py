import sys
import tracemalloc

import pytest

from nfakit import (
    Graph,
    Nfa,
    NotAcyclicError,
    NotUnaryError,
    OvInstance,
    SymbolNotInAlphabetError,
    accepts_length,
    adjacency_matrix,
    enumerate_naive,
    mul_calls,
    power,
    reduce_ov,
    reduce_triangle,
    row_times_power,
    simulate,
)
from nfakit.cli import random_layered_nfa

from conftest import random_nfa, seeded

C4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
K3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))


def chain_nfa(n, finals):
    transitions = frozenset((i, "a", i + 1) for i in range(n - 1))
    return Nfa(n, ("a",), 0, frozenset(finals), transitions)


# ---------------------------------------------------------------------------
# accepts_length


def test_self_loop_accepts_every_length():
    star = Nfa(1, ("a",), 0, frozenset({0}), {(0, "a", 0)})
    for ell in (0, 1, 2, 17, 1000, 1_000_000):
        assert accepts_length(star, ell)


def test_square_reduction_rejects_target_length():
    assert not accepts_length(reduce_triangle(C4).nfa, 6)


def test_triangle_reduction_accepts_target_length():
    nfa = reduce_triangle(K3).nfa
    assert accepts_length(nfa, 5)
    assert simulate(nfa, "a" * 5)


def test_length_zero_means_start_is_final():
    assert accepts_length(Nfa(2, ("a",), 0, frozenset({0}), {(0, "a", 1)}), 0)
    assert not accepts_length(chain_nfa(2, {1}), 0)


def test_acyclic_rejects_lengths_at_or_beyond_state_count():
    rng = seeded(31)
    for trial in range(15):
        nfa = random_layered_nfa(rng.randint(1, 12), 900 + trial)
        for ell in range(nfa.state_count, nfa.state_count + 4):
            assert not accepts_length(nfa, ell)


def test_accepts_length_products_stay_within_squarings():
    rng = seeded(34)
    for _ in range(40):
        nfa = random_nfa(rng, max_states=12, alphabet=("a",))
        for ell in (1, 2, 3, 1000, (1 << 64) - 1, rng.getrandbits(64) | 1):
            before = mul_calls()
            accepts_length(nfa, ell)
            assert mul_calls() - before <= ell.bit_length() - 1


def periodic_nfa(rng, n, p, final_class):
    """States in p residue classes, every edge from class c to class c+1 mod p."""
    transitions = set()
    for q in range(n):
        for dst in rng.sample(range((q % p + 1) % p, n, p), 3):
            transitions.add((q, "a", dst))
    finals = frozenset(rng.sample(range(final_class, n, p), 4))
    return Nfa(n, ("a",), 0, finals, frozenset(transitions))


def test_accepts_length_makes_no_products_once_the_frontier_repeats():
    # power() makes about 90 products at these lengths; the start state's
    # frontier in these periodic matrices repeats within 14 steps, with
    # period p, so the walk reads the answer with no product at all
    rng = seeded(35)
    verdicts = set()
    for p in (2, 3, 5, 7):
        ell = rng.randrange(1 << 61, 1 << 63)
        final_class = (ell + p % 2) % p
        nfa = periodic_nfa(rng, rng.randint(290, 310), p, final_class)
        before = mul_calls()
        got = accepts_length(nfa, ell)
        assert mul_calls() - before == 0
        finals = sum(1 << q for q in nfa.finals)
        assert got == bool(power(adjacency_matrix(nfa), ell).rows[nfa.start] & finals)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_accepts_length_on_a_ring_stays_within_the_squarings_of_its_size():
    # a one-bit frontier on a 40-state ring comes back to the start after
    # exactly 40 steps, so only a walk that checks dim + 1 vectors sees the
    # repeat; the products left must not exceed those of a 40-step length
    nfa = Nfa(40, ("a",), 0, frozenset({7, 20}), {(q, "a", (q + 1) % 40) for q in range(40)})
    a = adjacency_matrix(nfa)
    verdicts = set()
    for ell in ((1 << 63) - 1, (1 << 62) + 7, 1 << 63):
        before = mul_calls()
        got = accepts_length(nfa, ell)
        assert mul_calls() - before <= 5  # floor(log2 40)
        assert got == bool(power(a, ell).rows[0] & (1 << 7 | 1 << 20))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_accepts_length_after_a_walk_that_reaches_its_cap_without_a_repeat():
    # from state 0 the frontier goes round a 3-cycle and a 5-cycle at once,
    # so it first repeats at step 16, past the walk's cap of dim + 1 = 10
    # vectors; squarings then give the answer
    transitions = {(0, "a", 1), (0, "a", 4), (1, "a", 2), (2, "a", 3), (3, "a", 1)}
    transitions |= {(q, "a", q + 1) for q in range(4, 8)} | {(8, "a", 4)}
    nfa = Nfa(9, ("a",), 0, frozenset({3, 8}), frozenset(transitions))
    a = adjacency_matrix(nfa)
    verdicts = set()
    for ell in (10, 11, 12, 16, 30, 10**6, (1 << 63) - 1):
        before = mul_calls()
        got = accepts_length(nfa, ell)
        assert mul_calls() - before <= ell.bit_length() - 1
        assert got == bool(power(a, ell).rows[0] & (1 << 3 | 1 << 8))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_accepts_length_heap_stays_small_on_a_cycle_with_chords():
    # one dense matrix of 2048 states is about 0.5 MiB: the bound has room
    # for the vectors of a walk and a few squares, not for every square of
    # the exponent (17.4 MiB)
    n = 2048
    rng = seeded(5)
    transitions = {(q, "a", (q + 1) % n) for q in range(n)}
    for _ in range(n // 8):
        transitions.add((rng.randrange(n), "a", rng.randrange(n)))
    nfa = Nfa(n, ("a",), 0, frozenset({n - 1}), frozenset(transitions))
    tracemalloc.start()
    try:
        accepted = accepts_length(nfa, (1 << 63) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert accepted
    assert peak < 2 << 20


def test_row_times_power_keeps_its_walk_tables_under_their_cap():
    # state 0 fans out to half the states, which a permutation moves round,
    # so the frontier stays dense and does not repeat within the walk's
    # dim + 1 vectors. Its bytes from step 33 on would fill table entries
    # worth more than the bound; the walk's heap stays within it: dim + 1
    # vectors, dim entries of at most a row each, one 256-slot list per 8
    # states, the dict of vectors met and 64 KiB for the interpreter
    n = 512
    rng = seeded(36)
    targets = rng.sample(range(1, n), n - 1)
    transitions = {(q, "a", targets[q - 1]) for q in range(1, n)}
    transitions |= {(0, "a", q) for q in rng.sample(range(1, n), n // 2)}
    a = adjacency_matrix(Nfa(n, ("a",), 0, frozenset({n - 1}), frozenset(transitions)))

    def times_a(row):  # the OR of a's rows at the set bits of row
        out = 0
        for q, bit in enumerate(reversed(bin(row))):
            if bit == "1":
                out |= a.rows[q]
        return out

    frontiers = [1]
    for _ in range(n + 1):
        frontiers.append(times_a(frontiers[-1]))
    assert len(set(frontiers)) == n + 2
    entries = {
        (group, byte): times_a(byte << 8 * group)
        for frontier in frontiers[32 : n + 1]
        for group, byte in enumerate(frontier.to_bytes(n // 8, "little"))
        if byte
    }
    row_bytes = sys.getsizeof((1 << n) - 1)
    bound = (2 * n + 1) * row_bytes + n // 8 * sys.getsizeof([None] * 256)
    bound += sys.getsizeof(dict.fromkeys(range(n + 1))) + (64 << 10)
    assert sum(map(sys.getsizeof, entries.values())) > bound
    tracemalloc.start()
    try:
        before = mul_calls()
        reached = row_times_power(a, 1, n + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mul_calls() == before
    assert reached == frontiers[n + 1]
    assert peak < bound


# ---------------------------------------------------------------------------
# simulate


def test_empty_word():
    assert simulate(Nfa(1, ("a",), 0, frozenset({0}), frozenset()), "")
    assert not simulate(chain_nfa(2, {1}), "")


def test_chain_accepts_exactly_its_length():
    nfa = chain_nfa(2, {1})
    assert simulate(nfa, "a")
    assert not simulate(nfa, "aa")


def test_simulate_rejects_foreign_symbols():
    with pytest.raises(SymbolNotInAlphabetError):
        simulate(chain_nfa(2, {1}), "ab")
    with pytest.raises(SymbolNotInAlphabetError):
        # the frontier dies before the foreign symbol is reached
        simulate(chain_nfa(2, {1}), "aab")


def path_search(nfa, word):
    """Oracle: memoized search for an accepting transition path."""
    by_source = {}
    for src, sym, dst in nfa.transitions:
        by_source.setdefault((src, sym), []).append(dst)
    seen = {}

    def go(state, index):
        key = (state, index)
        if key in seen:
            return seen[key]
        if index == len(word):
            result = state in nfa.finals
        else:
            result = any(
                go(nxt, index + 1)
                for nxt in by_source.get((state, word[index]), ())
            )
        seen[key] = result
        return result

    return go(nfa.start, 0)


def test_simulate_matches_path_search_on_random_nfas():
    rng = seeded(32)
    words = [""]
    frontier = [""]
    for _ in range(6):
        frontier = [w + ch for w in frontier for ch in "ab"]
        words.extend(frontier)
    for _ in range(500):
        nfa = random_nfa(rng, max_states=10)
        for word in words:
            assert simulate(nfa, word) == path_search(nfa, word)


def test_simulate_agrees_with_accepts_length_on_unary_nfas():
    rng = seeded(33)
    cyclic = Nfa(3, ("a",), 0, frozenset({2}), {(0, "a", 1), (1, "a", 2), (2, "a", 0)})
    cases = [cyclic] + [random_layered_nfa(rng.randint(1, 10), 40 + t) for t in range(15)]
    for nfa in cases:
        for ell in range(nfa.state_count + 1):
            assert simulate(nfa, "a" * ell) == accepts_length(nfa, ell)


def test_simulate_matches_set_frontier_on_dense_nfas():
    # frontiers of more than 64 states take the table loop of the row kernel
    rng = seeded(35)
    widest = 0
    for _ in range(12):
        n = rng.randint(200, 300)
        successors = {ch: [set() for _ in range(n)] for ch in "ab"}
        for q in range(n):
            for ch in "ab":
                fanout = rng.choice((0, 1, 1, 1, 1, 2, 2, 3, 40))
                successors[ch][q].update(rng.sample(range(n), fanout))
        transitions = {(q, ch, dst) for ch in "ab" for q in range(n) for dst in successors[ch][q]}
        finals = frozenset(rng.sample(range(n), rng.randint(1, 4)))
        nfa = Nfa(n, ("a", "b"), rng.randrange(n), finals, frozenset(transitions))
        for _ in range(10):
            word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
            frontier = {nfa.start}
            for end in range(len(word) + 1):
                if end:
                    frontier = {dst for q in frontier for dst in successors[word[end - 1]][q]}
                    widest = max(widest, len(frontier))
                assert simulate(nfa, word[:end]) == bool(frontier & finals)
    assert widest > 64


def test_simulate_matches_set_frontier_on_chains_with_other_edges():
    # simulate moves the states with an edge p -> p+1 by one shift and runs
    # only the others through the row kernel. Here 'a' steps p -> p+1 from
    # every state, 'b' from some, 'c' from none, and some states also have
    # other edges on a symbol on which they step to p+1
    rng = seeded(36)
    both = 0
    for _ in range(30):
        n = rng.randint(2, 160)
        successors = {ch: [set() for _ in range(n)] for ch in "abc"}
        for q in range(n - 1):
            successors["a"][q].add(q + 1)
            if rng.random() < 0.5:
                successors["b"][q].add(q + 1)
        for ch in "abc":
            for q in range(n):
                if rng.random() < 0.15:
                    successors[ch][q].update(rng.sample(range(n), rng.choice((1, 2, min(70, n)))))
                both += q + 1 in successors[ch][q] and len(successors[ch][q]) > 1
        transitions = {(q, ch, dst) for ch in "abc" for q in range(n) for dst in successors[ch][q]}
        finals = frozenset(rng.sample(range(n), rng.randint(1, 3)))
        nfa = Nfa(n, ("a", "b", "c"), rng.randrange(n), finals, frozenset(transitions))
        for _ in range(8):
            word = "".join(rng.choice("aabc") for _ in range(rng.randint(0, 40)))
            frontier = {nfa.start}
            for end in range(len(word) + 1):
                if end:
                    frontier = {dst for q in frontier for dst in successors[word[end - 1]][q]}
                assert simulate(nfa, word[:end]) == bool(frontier & finals)
    assert both > 100


def test_simulate_heap_stays_small_on_a_max_size_ov_reduction():
    # the reduction is mostly chains, which the encoder keeps as one shift
    # mask per symbol; full rows would take n(n-1)/2 bits per symbol
    d = 16382  # n = 2 reduces to exactly MAX_STATES = 65536 states
    reduction = reduce_ov(OvInstance(2, d, ((0,) * d, (1,) * d), ((1,) * d, (0,) * d)))
    assert reduction.nfa.state_count == 65536
    tracemalloc.start()
    try:
        accepted = simulate(reduction.nfa, reduction.input)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert accepted
    assert peak < 8 << 20


def test_simulate_heap_does_not_grow_with_the_alphabet():
    # a symbol costs its chain sources and rows, not its share of the
    # states: 200 symbols over 65,536 states held 112.6 MiB when every
    # symbol had an n-entry row list and an (n/8)-slot tables list
    n = 65536
    alphabet = tuple(chr(c) for c in range(0x100, 0x100 + 200))
    nfa = Nfa(n, alphabet, 0, frozenset({n - 1}), frozenset({(0, alphabet[0], n - 1)}))
    tracemalloc.start()
    try:
        accepted = simulate(nfa, alphabet[0])
        rejected = simulate(nfa, alphabet[0] + alphabet[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert accepted and not rejected
    assert peak < 1 << 20


def test_simulate_heap_does_not_grow_with_a_symbols_highest_state():
    # records are built only for the letters the word reads, so a symbol
    # it never reads costs nothing: the word reads 3 of 2,000 symbols that
    # each label one edge from a high state; encoding all 2,000 peaked at
    # 17.7 MiB, about 16 MiB of it the exception masks of unread symbols
    n = 65536
    alphabet = tuple(chr(0x4E00 + i) for i in range(2000))
    transitions = frozenset((n - 2, sym, 0) for sym in alphabet)
    nfa = Nfa(n, alphabet, n - 2, frozenset({0}), transitions)
    tracemalloc.start()
    try:
        rejected = simulate(nfa, alphabet[0] + alphabet[1] + alphabet[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rejected and simulate(nfa, alphabet[1999])
    assert peak < 2 << 20


# ---------------------------------------------------------------------------
# enumerate_naive


def test_enumerate_single_final_start():
    assert enumerate_naive(Nfa(1, ("a",), 0, frozenset({0}), frozenset())) == (0,)


def test_enumerate_chain_finals():
    assert enumerate_naive(chain_nfa(4, {1, 3})) == (1, 3)


def test_enumerate_square_reduction_golden_set():
    # frozen from this operation's own first run; excludes 6, the
    # length that would witness a triangle
    assert enumerate_naive(reduce_triangle(C4).nfa) == (3, 5, 7, 9)


def test_enumerate_requires_unary():
    binary = Nfa(1, ("a", "b"), 0, frozenset({0}), frozenset())
    with pytest.raises(NotUnaryError):
        enumerate_naive(binary)


def test_enumerate_requires_acyclic():
    loop = Nfa(1, ("a",), 0, frozenset({0}), {(0, "a", 0)})
    with pytest.raises(NotAcyclicError):
        enumerate_naive(loop)


def test_enumerate_heap_does_not_grow_with_the_states_scanned():
    # every step scans all n states; testing a state's bit must not keep a
    # mask per state, n²/2 bits in all
    nfa = Nfa(2048, ("a",), 0, frozenset({1}), {(0, "a", 1)})
    tracemalloc.start()
    try:
        lengths = enumerate_naive(nfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == (1,)
    assert peak < 0.3 * (1 << 20)


def test_enumerate_membership_matches_accepts_length():
    for trial in range(25):
        nfa = random_layered_nfa(3 + trial % 12, 7000 + trial)
        members = set(enumerate_naive(nfa))
        for ell in range(nfa.state_count):
            assert accepts_length(nfa, ell) == (ell in members)
