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


def seeded(seed):
    return random.Random(seed)
