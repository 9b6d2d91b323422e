from itertools import product

import pytest

from nfakit import (
    EmptyLanguageError,
    Graph,
    OvInstance,
    accepts_length,
    enumerate_fast,
    has_triangle_brute,
    has_triangle_matmul,
    mul_calls,
    ov_brute,
    reduce_ov,
    reduce_triangle,
    simulate,
    trim,
    validate,
)
from nfakit.reductions import ov_state_count

from conftest import all_graphs, assert_built_as_checked, random_graph, seeded

C4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
K3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
P5 = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))


def all_ov_instances(n, d):
    for bits in product((0, 1), repeat=2 * n * d):
        v = tuple(tuple(bits[i * d:(i + 1) * d]) for i in range(n))
        w = tuple(tuple(bits[(n + i) * d:(n + i + 1) * d]) for i in range(n))
        yield OvInstance(n, d, v, w)


def random_ov_instance(rng, n, d):
    v = tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(n))
    w = tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(n))
    return OvInstance(n, d, v, w)


# ---------------------------------------------------------------------------
# triangle reduction


def test_square_reduction_shape_and_answer():
    red = reduce_triangle(C4)
    assert red.nfa.state_count == 16
    assert len(red.nfa.transitions) == 2 * 3 + 6 * 4
    assert red.target_length == 6
    assert not accepts_length(red.nfa, 6)


def test_triangle_reduction_shape_and_answer():
    red = reduce_triangle(K3)
    assert red.nfa.state_count == 12
    assert red.target_length == 5
    assert accepts_length(red.nfa, 5)


def test_edgeless_reduction_has_empty_language():
    red = reduce_triangle(Graph(5, frozenset()))
    assert not accepts_length(red.nfa, 7)
    with pytest.raises(EmptyLanguageError):
        trim(red.nfa)


def test_layer_map():
    red = reduce_triangle(K3)
    assert red.nfa.start == 0
    assert red.nfa.finals == frozenset({11})


def test_reduction_size_formula_on_seeded_graphs():
    rng = seeded(41)
    for _ in range(20):
        n = rng.randint(1, 24)
        g = random_graph(n, 0.3, rng)
        red = reduce_triangle(g)
        assert red.nfa.state_count == 4 * n
        assert len(red.nfa.transitions) == 2 * (n - 1) + 6 * len(g.edges)


def test_triangle_reduction_is_what_the_checked_constructor_builds():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    rng = seeded(47)
    graphs += [random_graph(rng.randint(1, 40), rng.random(), rng) for _ in range(40)]
    for g in graphs:
        assert_built_as_checked(reduce_triangle(g).nfa)


def test_three_triangle_deciders_agree_exhaustively():
    for n in range(1, 5):
        for g in all_graphs(n):
            brute = has_triangle_brute(g)
            assert has_triangle_matmul(g) == brute
            red = reduce_triangle(g)
            assert accepts_length(red.nfa, red.target_length) == brute
            assert (red.target_length in enumerate_fast(red.nfa)) == brute


def test_brute_trivials():
    assert has_triangle_brute(K3)
    assert not has_triangle_brute(C4)
    assert not has_triangle_brute(P5)
    assert has_triangle_matmul(K3)
    assert not has_triangle_matmul(C4)


def test_matmul_triangle_check_makes_one_product():
    for graph in (K3, C4, P5):
        before = mul_calls()
        has_triangle_matmul(graph)
        assert mul_calls() - before == 1


def accepting_paths(nfa):
    """All transition paths from start to a final state (DAG input only)."""
    succ = {}
    for src, _sym, dst in nfa.transitions:
        succ.setdefault(src, []).append(dst)
    stack = [(nfa.start, (nfa.start,))]
    while stack:
        state, path = stack.pop()
        if state in nfa.finals:
            yield path
        for nxt in succ.get(state, ()):
            stack.append((nxt, path + (nxt,)))


def test_accepting_path_lengths_follow_the_layer_identity():
    rng = seeded(42)
    for g in (K3, C4, random_graph(5, 0.5, rng)):
        n = g.vertex_count
        red = reduce_triangle(g)
        count = 0
        for path in accepting_paths(red.nfa):
            layers = [divmod(s, n) for s in path]  # (layer - 1, vertex)
            first_bottom = next(vertex for layer, vertex in layers if layer == 3)
            last_top = max(vertex for layer, vertex in layers if layer == 0)
            assert len(path) - 1 == last_top + 3 + (n - 1) - first_bottom
            count += 1
        if g.edges:
            assert count > 0


# ---------------------------------------------------------------------------
# orthogonal vectors reduction


def test_ov_single_pair_examples():
    hit = reduce_ov(OvInstance(1, 1, ((1,),), ((0,),)))
    miss = reduce_ov(OvInstance(1, 1, ((1,),), ((1,),)))
    assert simulate(hit.nfa, hit.input)
    assert not simulate(miss.nfa, miss.input)
    assert hit.input == "000"
    assert miss.input == "001"


def test_ov_gadget_matches_dot_product():
    # gadget for v = (1,0,0,1): orthogonal to 0110, not to 1000
    accept = OvInstance(1, 4, ((1, 0, 0, 1),), ((0, 1, 1, 0),))
    reject = OvInstance(1, 4, ((1, 0, 0, 1),), ((1, 0, 0, 0),))
    red = reduce_ov(accept)
    assert simulate(red.nfa, red.input)
    red = reduce_ov(reject)
    assert not simulate(red.nfa, red.input)


def test_ov_brute_trivials():
    ones = OvInstance(2, 3, ((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1)))
    assert not ov_brute(ones)
    with_zero = OvInstance(2, 3, ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (1, 1, 1)))
    assert ov_brute(with_zero)


def test_ov_reduction_exhaustive_small():
    for n, d in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for inst in all_ov_instances(n, d):
            red = reduce_ov(inst)
            assert simulate(red.nfa, red.input) == ov_brute(inst)


def test_ov_reduction_random_agreement():
    rng = seeded(43)
    for _ in range(100):
        inst = random_ov_instance(rng, rng.randint(1, 6), rng.randint(1, 8))
        red = reduce_ov(inst)
        assert simulate(red.nfa, red.input) == ov_brute(inst)


def test_ov_reduction_is_what_the_checked_constructor_builds():
    rng = seeded(48)
    for n in range(1, 7):
        for d in range(1, 7):
            for _ in range(3):
                assert_built_as_checked(reduce_ov(random_ov_instance(rng, n, d)).nfa)


def test_ov_reduction_is_acyclic_and_word_shaped():
    rng = seeded(44)
    for _ in range(20):
        n, d = rng.randint(1, 5), rng.randint(1, 6)
        inst = random_ov_instance(rng, n, d)
        red = reduce_ov(inst)
        assert validate(red.nfa).acyclic
        assert len(red.input) == n * (d + 2)
        blocks = [red.input[i * (d + 2):(i + 1) * (d + 2)] for i in range(n)]
        for block, wj in zip(blocks, inst.w):
            assert block == "00" + "".join(str(bit) for bit in wj)


def test_ov_reduction_sizes_stay_linear():
    rng = seeded(45)
    for n, d in ((2, 2), (4, 4), (8, 8), (16, 16), (8, 32), (32, 8)):
        inst = random_ov_instance(rng, n, d)
        red = reduce_ov(inst)
        assert red.nfa.state_count <= 10 * n * d + 3
        assert len(red.nfa.transitions) <= 20 * n * d


def successors(nfa, state, symbol=None):
    return {
        dst for src, sym, dst in nfa.transitions if src == state and symbol in (None, sym)
    }


def test_ov_landmarks():
    # the states reduce_ov's docstring names, checked on its transitions
    rng = seeded(46)
    for n, d in ((1, 1), (2, 1), (3, 2), (4, 5)):
        red = reduce_ov(random_ov_instance(rng, n, d))
        nfa = red.nfa
        block = d + 2
        top = (n - 1) * block + 1
        x, y = top, top + 1 + n * d
        for j in range(n):
            a = j * block
            for ch in ("0", "1"):
                assert x in successors(nfa, a, ch)
        assert successors(nfa, x) == {x + 1 + i * d for i in range(n)}
        assert successors(nfa, y) == {y + 1 + j * block + 1 for j in range(n - 1)}
        assert nfa.finals == {y, nfa.state_count - 1}
        assert nfa.state_count - 1 == y + top


def test_ov_state_count_is_the_reductions_size():
    for n, d in product(range(1, 13), repeat=2):
        inst = OvInstance(n, d, ((0,) * d,) * n, ((1,) * d,) * n)
        assert ov_state_count(n, d) == reduce_ov(inst).nfa.state_count


def test_ov_instance_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        OvInstance(0, 1, (), ())
    with pytest.raises(ValueError, match="d must be >= 1"):
        OvInstance(1, 0, ((),), ((),))
    with pytest.raises(ValueError):
        OvInstance(1, 2, ((0, 1),), ((0,),))
    with pytest.raises(ValueError):
        OvInstance(1, 1, ((2,),), ((0,),))
    with pytest.raises(ValueError, match="n must be an integer"):
        OvInstance(2.0, 1, ((0,), (1,)), ((1,), (0,)))
    with pytest.raises(ValueError, match="expected 2 w-vectors"):
        OvInstance(2, 1, ((0,), (1,)), ((1,),))
