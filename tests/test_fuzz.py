"""Property tests on generated automata (hypothesis, derandomized profile)."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nfakit import Nfa, OvInstance, cli, ov_brute, reduce_ov, simulate
from nfakit.automata import _successor_rows
from nfakit.boolmat import WALK_MAX_BITS, _row_times
from nfakit.cli import parse_nfa, serialize_nfa

from test_cli_input import assert_lanes_agree

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
    if alphabet and n > 1:
        # chain edges p -> p+1, which the encoder keeps in its shift masks
        steps = st.tuples(st.integers(0, n - 2), st.sampled_from(alphabet))
        transitions |= {(p, sym, p + 1) for p, sym in draw(st.frozensets(steps, max_size=12))}
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


def recut(first, second, cut):
    """Two lines holding the six tokens of two lines, the first holding `cut`."""
    tokens = f"{first} {second}".split(" ")
    return " ".join(tokens[:cut]) + "\n" + " ".join(tokens[cut:])


@st.composite
def nfa_texts(draw):
    """NFA files of valid plain "<from> <sym> <to>" lines with up to two other
    lines put in: lines that break a per-line rule or are not plain."""
    n = draw(st.integers(1, 6))
    alphabet = draw(st.sampled_from((("a",), ("a", "b"), ("0", "1"), ("1", "#"))))
    head = [f"states {n}", " ".join(["alphabet", *alphabet]), "start 0", "final 0"]
    state, symbol = st.integers(0, n - 1).map(str), st.sampled_from(alphabet)
    valid = st.builds("{} {} {}".format, state, symbol, state)
    # n is out of range; 'c' and 'ab' are in no alphabet
    wrong = st.builds("{} {} {}".format, st.just(str(n)), symbol, state) | st.builds(
        "{} {} {}".format, state, st.sampled_from(("c", "ab")), state
    )
    # read as one block, these tokens would make two valid triples
    shifted = st.builds(recut, valid, valid, st.sampled_from((1, 2, 4, 5)))
    token = state | symbol | st.sampled_from(("\u0662", "\u00b2", "+1", "007", "9" * 4301))
    other = st.builds(
        lambda tokens, gap, end: gap.join(tokens) + end,
        st.lists(token, min_size=3, max_size=3) | st.lists(token, max_size=4),
        st.sampled_from((" ", "  ", "\t", "\u2028", "\u00a0")),
        st.sampled_from(("", " ")),
    )
    lines = draw(st.lists(valid, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.one_of(wrong, shifted, other, st.sampled_from(("", "# c"))))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return "\n".join(head + lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=300)
@given(nfa_texts(), st.integers(1, 4))
def test_bulk_and_per_line_lanes_agree_on_generated_files(text, batch):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BATCH_LINES", batch)
        assert_lanes_agree(text)


@given(st.data())
def test_successor_rows_encode_exactly_the_triples(data):
    nfa = data.draw(nfas())
    # a subset of the alphabet, the whole of it included, and a symbol
    # outside it: records are built for exactly the alphabet's symbols in
    # letters
    size = len(nfa.alphabet)
    kept = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    letters = {sym for sym, keep in zip(nfa.alphabet, kept) if keep} | {"z"}
    split = _successor_rows(nfa, letters)
    assert set(split) == set(nfa.alphabet) & letters
    encoded = set()
    for sym, (shift, exceptions, rows) in split.items():
        # the shift mask holds exactly the edges p -> p+1, the rows the rest
        encoded |= {(p, sym, p + 1) for p in range(shift.bit_length()) if shift >> p & 1}
        assert exceptions == sum(1 << p for p in rows)
        for p, row in rows.items():
            assert row and not row >> (p + 1) & 1
            encoded |= {(p, sym, q) for q in range(row.bit_length()) if row >> q & 1}
    assert encoded == {t for t in nfa.transitions if t[1] in letters}


@given(st.data())
def test_simulate_matches_set_frontier(data):
    nfa = data.draw(nfas())
    word = data.draw(st.text(alphabet=nfa.alphabet, max_size=12))
    assert simulate(nfa, word) == set_frontier(nfa, word)


@st.composite
def vectors_and_rows(draw):
    """A bit vector, the rows it picks from, and whether to pass tables.

    The vector's lowest set bit sits at any offset, and it has 1..64 set
    bits, 65 or more, or WALK_MAX_BITS or one more: either side of the
    kernel's boundary between its bit walk and its table loop (taken when
    given tables, else the walk).
    """
    least, most = draw(
        st.sampled_from(((1, 64), (65, 400), (WALK_MAX_BITS, WALK_MAX_BITS + 1)))
    )
    dim = draw(st.integers(least, 400))
    low = draw(st.integers(0, dim - least))
    span = dim - low
    count = draw(st.integers(least, min(span, most)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    row = sum(1 << k for k in rng.sample(range(low + 1, dim), count - 1)) | 1 << low
    # one bit per row, each in its own column: the OR names the rows picked,
    # where the OR of many random rows would be all ones whichever were picked
    brows = [1 << col for col in rng.sample(range(dim), dim)]
    return row, brows, draw(st.booleans())


@given(vectors_and_rows())
def test_row_times_is_the_or_of_the_picked_rows(case):
    row, brows, with_tables = case
    expected = 0
    for k in range(len(brows)):
        if row >> k & 1:
            expected |= brows[k]
    tables = [] if with_tables else None
    assert _row_times(row, brows, tables) == expected
    # a second call reads the table entries the first one filled
    assert _row_times(row, brows, tables) == expected


def picked_or(row, brows):
    """Oracle: the plain OR of the rows whose bits are set in row."""
    out = 0
    for k in range(len(brows)):
        if row >> k & 1:
            out |= brows[k]
    return out


def assert_tables_hold_their_bytes(tables, brows):
    # entry [g][byte] must be the OR of rows 8g + k over the set bits k of
    # byte, the entries filled on the way to another one included
    for group, table in enumerate(tables):
        for byte, entry in enumerate(table or ()):
            if entry is not None:
                assert entry == picked_or(byte << 8 * group, brows)


@given(vectors_and_rows())
def test_every_filled_table_entry_is_the_or_of_its_byte(case):
    row, brows, _ = case
    tables = []
    assert _row_times(row, brows, tables) == picked_or(row, brows)
    assert_tables_hold_their_bytes(tables, brows)


@given(st.data())
def test_tables_shared_across_vectors_stay_exact(data):
    # simulate keeps one set of tables per symbol for a whole word, so
    # different vectors times the same rows read each other's entries
    row, brows, _ = data.draw(vectors_and_rows())
    dim = len(brows)
    tables = []
    assert _row_times(row, brows, tables) == picked_or(row, brows)
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    for _ in range(data.draw(st.integers(1, 6))):
        count = rng.randint(1, dim)
        other = sum(1 << k for k in rng.sample(range(dim), count))
        assert _row_times(other, brows, tables) == picked_or(other, brows)
    assert_tables_hold_their_bytes(tables, brows)


WIDE_DIM = 8192
# the ends of the row and both sides of a 30-bit digit boundary of CPython ints
EDGE_BITS = (0, 29, 30, 8190, 8191)


def wide_vectors():
    rng = random.Random(8192)
    others = [k for k in range(WIDE_DIM) if k not in EDGE_BITS]
    yield from ((bit,) for bit in EDGE_BITS)
    yield from ((0, 8191), (29, 30), (30, 8190), (8190, 8191))
    for count in (64, 65):
        yield EDGE_BITS + tuple(rng.sample(others, count - len(EDGE_BITS)))
    # dense with no bit in byte 0, so the table loop starts past it
    yield tuple(sorted(rng.sample(range(8, WIDE_DIM), 65)))
    # either side of the kernel's walk/table boundary, and just past it
    # with no bit in byte 0
    for count in (WALK_MAX_BITS, WALK_MAX_BITS + 1):
        yield EDGE_BITS + tuple(rng.sample(others, count - len(EDGE_BITS)))
    yield tuple(sorted(rng.sample(range(8, WIDE_DIM), WALK_MAX_BITS + 1)))


def wide_id(bits):
    if len(bits) <= 2:
        return "bits-" + "-".join(map(str, bits))
    return f"{len(bits)}-bits" + (f"-from-{min(bits)}" if min(bits) else "")


@pytest.mark.parametrize("bits", list(wide_vectors()), ids=wide_id)
def test_row_times_on_wide_vectors_with_edge_bits(bits):
    rng = random.Random(len(bits))
    # a permutation matrix, so the OR names exactly the rows picked
    brows = [1 << col for col in rng.sample(range(WIDE_DIM), WIDE_DIM)]
    row = sum(1 << k for k in bits)
    expected = picked_or(row, brows)
    assert _row_times(row, brows) == expected
    tables = []
    assert _row_times(row, brows, tables) == expected
    assert_tables_hold_their_bytes(tables, brows)
    # a second call reads the entries the first one filled
    assert _row_times(row, brows, tables) == expected


def test_row_times_grows_the_tables_to_the_highest_group_it_reads():
    # callers hand in an empty list: a dense row past the list's end grows
    # it to its own highest group, and a later lower row leaves it as it is
    rng = random.Random(1023)
    brows = [1 << col for col in rng.sample(range(WIDE_DIM), WIDE_DIM)]
    low = sum(1 << k for k in rng.sample(range(24), WALK_MAX_BITS + 4)) | 1 << 23
    high = sum(1 << k for k in rng.sample(range(WIDE_DIM), 65)) | 1 << (WIDE_DIM - 1)
    tables = []
    for row, groups in ((low, 3), (high, WIDE_DIM >> 3), (low, WIDE_DIM >> 3)):
        assert row.bit_count() > WALK_MAX_BITS
        assert _row_times(row, brows, tables) == picked_or(row, brows)
        assert len(tables) == groups
        assert_tables_hold_their_bytes(tables, brows)


@st.composite
def ov_instances(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vectors = st.tuples(*[st.integers(0, 1)] * d)
    v = draw(st.tuples(*[vectors] * n))
    w = draw(st.tuples(*[vectors] * n))
    return OvInstance(n, d, v, w)


@given(ov_instances())
def test_ov_reduction_accepts_its_word_iff_a_pair_is_orthogonal(inst):
    reduction = reduce_ov(inst)
    assert simulate(reduction.nfa, reduction.input) == ov_brute(inst)
