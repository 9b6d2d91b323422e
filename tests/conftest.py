"""Shared generators for seeded and exhaustive test instances."""

import os
import random
from itertools import combinations
from pathlib import Path

import pytest

from nfakit import Graph, Nfa

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, so the suite stays deterministic
    settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
    settings.load_profile("derandomized")

SRC = str(Path(__file__).resolve().parent.parent / "src")


# tests that take over 2 s each; `pytest -m "not slow"` runs the rest
SLOW = {
    "tests/test_acceptance.py::test_criterion_1_triangle_reduction_exhaustive",
    "tests/test_acceptance.py::test_criterion_4_enumeration_equivalence",
    "tests/test_acceptance.py::test_criterion_7_ov_reduction",
    "tests/test_source.py::test_benchmark_selfcheck_passes_on_a_copy",
    "tests/test_accept.py::test_enumerate_heap_does_not_grow_with_the_states_scanned",
    "tests/test_fuzz.py::test_bulk_and_per_line_lanes_agree_on_generated_files",
    "tests/test_automata.py::test_no_path_keeps_the_bit_rows_of_a_large_automaton",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True, scope="session")
def checkout_on_subprocess_path():
    """Let subprocesses such as `python -m nfakit.cli` import this checkout,
    as the tests themselves do through pytest's `pythonpath` setting."""
    with pytest.MonkeyPatch.context() as patch:
        paths = filter(None, (SRC, os.environ.get("PYTHONPATH")))
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield


def all_graphs(n):
    """Yield every simple undirected graph on n labeled vertices."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph(n, frozenset(e for b, e in enumerate(slots) if mask >> b & 1))


def random_graph(n, p, rng):
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def random_nfa(rng, max_states=10, alphabet=("a", "b"), max_out=2):
    """Random general NFA, possibly cyclic, possibly with dead states."""
    n = rng.randint(1, max_states)
    transitions = set()
    for q in range(n):
        for sym in alphabet:
            for _ in range(rng.randint(0, max_out)):
                transitions.add((q, sym, rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, tuple(alphabet), rng.randrange(n), finals, frozenset(transitions))


def assert_built_as_checked(nfa):
    """nfa, built without Nfa's checks, is what Nfa(*fields) builds: equal to
    it, with each field of its stored type, and hashable. Equality alone
    would pass a set of transitions, as a set equals a frozenset."""
    fields = (nfa.state_count, nfa.alphabet, nfa.start, nfa.finals, nfa.transitions)
    assert nfa == Nfa(*fields)
    assert type(nfa.alphabet) is tuple
    assert type(nfa.finals) is frozenset and type(nfa.transitions) is frozenset
    hash(nfa)


def seeded(seed):
    return random.Random(seed)
