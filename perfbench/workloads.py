"""Seeded workload families, their input files and independent oracles.

Nothing here imports nfakit: the expected exit code and stdout of every
CLI call come from the oracles below, which share no code with the
program under test. Each workload turns (rng, file prefix) into one
Query, a short list of CLI calls that a user would issue for one question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    exit: int
    stdout: str


@dataclass(frozen=True)
class Query:
    calls: tuple[Call, ...]
    verdict: str  # "yes"/"no" for decision queries, "list" for enumeration
    squarings: int | None = None  # expected products of one fast enumeration


# Size ranges are fixed per workload so that the squaring count k stays
# constant: window n in (1024, 2048] gives k = 11, layered n = 4096 gives
# k = 12. The ranges are narrow, so that one run's median hardly depends on
# the sizes its seed draws. Cyclic sizes differ by period so that the four
# periods cost about the same. OV queries are sized so that OV-no <
# triangle-check < OV-yes in time: the median of the alternating mix then
# falls inside the triangle cluster.
FULL_SIZES = {
    "enum-window": {"n": (1536, 1664), "reach": 64, "degree": 3},
    "enum-layered": {"n": (4096, 4096)},
    "accept-cyclic": {"n": {2: (236, 260), 3: (260, 284), 5: (300, 324), 7: (300, 324)}, "degree": 3},
    "reductions": {"tri_n": (400, 432), "tri_p": 0.05, "ov_n": (144, 160), "ov_d": 24},
}

# Tiny sizes for the self-check: every code path, a fraction of a second.
TINY_SIZES = {
    "enum-window": {"n": (24, 32), "reach": 6, "degree": 3},
    "enum-layered": {"n": (20, 32)},
    "accept-cyclic": {"n": {2: (12, 16), 3: (12, 16), 5: (15, 20), 7: (14, 21)}, "degree": 3},
    "reductions": {"tri_n": (12, 16), "tri_p": 0.3, "ov_n": (4, 6), "ov_d": 6},
}

WORKLOADS = tuple(FULL_SIZES)


def midpoint_sizes(sizes):
    """The same sizes with every (lo, hi) range collapsed to its midpoint."""
    if isinstance(sizes, dict):
        return {key: midpoint_sizes(value) for key, value in sizes.items()}
    if isinstance(sizes, tuple):
        mid = (sizes[0] + sizes[1]) // 2
        return (mid, mid)
    return sizes
ENUM_WORKLOADS = ("enum-window", "enum-layered")


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _nfa_lines(n, alphabet, start, finals, transitions) -> list[str]:
    lines = [f"states {n}", "alphabet " + " ".join(alphabet), f"start {start}"]
    lines.append(" ".join(["final", *map(str, sorted(finals))]))
    lines.extend(f"{src} {sym} {dst}" for src, sym, dst in transitions)
    return lines


# ---------------------------------------------------------------------------
# oracles


def successor_rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for src, dst in edges:
        rows[src] |= 1 << dst
    return rows


def step(rows: list[int], frontier: int) -> int:
    nxt = 0
    while frontier:
        low = frontier & -frontier
        nxt |= rows[low.bit_length() - 1]
        frontier ^= low
    return nxt


def oracle_lengths(n: int, start: int, finals, rows: list[int]) -> list[int]:
    """Frontier BFS over an acyclic NFA: every length with a final in reach."""
    mask = 0
    for q in finals:
        mask |= 1 << q
    frontier = 1 << start
    lengths = []
    for t in range(n):
        if not frontier:
            break
        if frontier & mask:
            lengths.append(t)
        frontier = step(rows, frontier)
    return lengths


def oracle_accepts_length(start: int, finals, rows: list[int], length: int) -> bool:
    """Iterate frontiers until one repeats, then reduce the length mod the period."""
    mask = 0
    for q in finals:
        mask |= 1 << q
    seen = {}
    trail = []
    frontier = 1 << start
    while frontier not in seen:
        if len(trail) == length:
            return bool(frontier & mask)
        seen[frontier] = len(trail)
        trail.append(frontier)
        frontier = step(rows, frontier)
    index = seen[frontier]
    period = len(trail) - index
    return bool(trail[index + (length - index) % period] & mask)


def oracle_triangle(n: int, edges) -> bool:
    """An edge whose endpoints share a neighbour closes a triangle."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return any(adj[u] & adj[v] for u, v in edges)


def oracle_ov(vs: list[int], ws: list[int]) -> bool:
    """Bitmask pair scan: some v and w share no set bit."""
    return any(not (v & w) for v in vs for w in ws)


# ---------------------------------------------------------------------------
# generators


def _enum_query(prefix, n, edges, finals, naive) -> Query:
    path = prefix + ".nfa"
    _write(path, _nfa_lines(n, "a", 0, finals, [(s, "a", d) for s, d in edges]))
    lengths = oracle_lengths(n, 0, finals, successor_rows(n, edges))
    argv = ("enumerate", path) + (("--engine", "naive") if naive else ())
    call = Call(argv, 0, "".join(f"{x}\n" for x in lengths))
    return Query((call,), "list", (n - 1).bit_length())


def gen_enum_window(rng, prefix, sizes, naive=False) -> Query:
    """Window DAG: each state has `degree` edges into the next `reach` states."""
    n = rng.randint(*sizes["n"])
    reach, degree = sizes["reach"], sizes["degree"]
    edges = []
    for i in range(n - 1):
        hi = min(i + reach, n - 1)
        for j in sorted(rng.sample(range(i + 1, hi + 1), min(degree, hi - i))):
            edges.append((i, j))
    finals = [q for q in range(n) if rng.random() < 0.25] or [n - 1]
    return _enum_query(prefix, n, edges, finals, naive)


def gen_enum_layered(rng, prefix, sizes, naive=False) -> Query:
    """The layered-forward family of `nfakit bench`: two forward edges per state."""
    n = rng.randint(*sizes["n"])
    edges = []
    for i in range(n - 1):
        for j in rng.sample(range(i + 1, n), min(2, n - 1 - i)):
            edges.append((i, j))
    finals = [q for q in range(n) if rng.random() < 0.25] or [rng.randrange(n)]
    return _enum_query(prefix, n, edges, finals, naive)


def gen_accept_cyclic(rng, prefix, sizes, want_accept: bool) -> Query:
    """States in p residue classes, every edge from class c to class c+1 mod p.

    The finals sit in one class, chosen from the length's residue so that
    `want_accept` is the likely verdict; the oracle decides the real one.
    """
    p = rng.choice((2, 3, 5, 7))
    n = rng.randint(*sizes["n"][p])
    length = rng.randrange(1 << 61, 1 << 63)
    classes = [list(range(c, n, p)) for c in range(p)]
    edges = []
    for q in range(n):
        targets = classes[(q % p + 1) % p]
        for dst in sorted(rng.sample(targets, min(sizes["degree"], len(targets)))):
            edges.append((q, dst))
    final_class = classes[(length if want_accept else length + 1) % p]
    finals = rng.sample(final_class, max(1, len(final_class) // 8))
    path = prefix + ".nfa"
    _write(path, _nfa_lines(n, "a", 0, finals, [(s, "a", d) for s, d in edges]))
    accepted = oracle_accepts_length(0, finals, successor_rows(n, edges), length)
    call = Call(
        ("accept-length", path, str(length)),
        0 if accepted else 1,
        "ACCEPT\n" if accepted else "REJECT\n",
    )
    return Query((call,), "yes" if accepted else "no")


def gen_triangle(rng, prefix, sizes, plant: bool) -> Query:
    """Random bipartite graph (triangle-free), optionally with one planted triangle."""
    n = rng.randint(*sizes["tri_n"])
    p = sizes["tri_p"]
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[: n // 2], order[n // 2 :]
    edges = {(min(u, v), max(u, v)) for u in left for v in right if rng.random() < p}
    if plant:
        a, c = rng.sample(left, 2)
        b = rng.choice(right)
        edges |= {(min(a, b), max(a, b)), (min(a, c), max(a, c)), (min(b, c), max(b, c))}
    edges = sorted(edges)
    rng.shuffle(edges)
    path = prefix + ".graph"
    _write(path, [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])
    found = oracle_triangle(n, edges)
    call = Call(
        ("triangle-check", path, "--engine", "reduction"),
        0 if found else 1,
        "TRIANGLE\n" if found else "TRIANGLE-FREE\n",
    )
    return Query((call,), "yes" if found else "no")


def gen_ov(rng, prefix, sizes, plant: bool) -> Query:
    """Dense random vectors (rarely orthogonal), optionally with one planted pair."""
    n = rng.randint(*sizes["ov_n"])
    d = sizes["ov_d"]
    full = (1 << d) - 1
    while True:
        vs = [sum(1 << k for k in range(d) if rng.random() < 0.7) for _ in range(n)]
        ws = [sum(1 << k for k in range(d) if rng.random() < 0.7) for _ in range(n)]
        if plant:
            # an OV-yes query costs more the earlier the match sits in the
            # word, so w_j is taken from the middle eighth: the slowest
            # quarter of the mix, which sets query_s.tail, stays narrow
            i, j = rng.randrange(n), n // 2 + rng.randint(-(n // 16), n // 16)
            ws[j] = rng.getrandbits(d) & ~vs[i] & full
        if oracle_ov(vs, ws) == plant:
            break

    def bits(x):
        return "".join("1" if x >> k & 1 else "0" for k in range(d))

    vec_path, nfa_path = prefix + ".ov", prefix + ".ov.nfa"
    _write(vec_path, [f"{n} {d}"] + [f"v {bits(v)}" for v in vs] + [f"w {bits(w)}" for w in ws])
    word = "".join("00" + bits(w) for w in ws)
    calls = (
        Call(("reduce-ov", vec_path, nfa_path), 0, word + "\n"),
        Call(("simulate", nfa_path, word), 0 if plant else 1, "ACCEPT\n" if plant else "REJECT\n"),
    )
    return Query(calls, "yes" if plant else "no")


def make_query(workload: str, seed: int | str, index: int, prefix: str, sizes, naive=False) -> Query:
    """Instance `index` of a workload; the same (seed, index) gives the same files."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "enum-window":
        return gen_enum_window(rng, prefix, sizes, naive)
    if workload == "enum-layered":
        return gen_enum_layered(rng, prefix, sizes, naive)
    if workload == "accept-cyclic":
        return gen_accept_cyclic(rng, prefix, sizes, want_accept=index % 2 == 0)
    if workload == "reductions":
        # the two query kinds alternate, and each kind alternates its verdict
        plant = index // 2 % 2 == 0
        if index % 2 == 0:
            return gen_triangle(rng, prefix, sizes, plant)
        return gen_ov(rng, prefix, sizes, plant)
    raise ValueError(f"unknown workload {workload!r}")
