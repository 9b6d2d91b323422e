import pytest

from nfakit import Nfa, accepts_length, boolmat
from nfakit.boolmat import (
    WALK_MAX_BITS,
    BoolMatrix,
    DimensionMismatchError,
    identity,
    mul,
    mul_calls,
    power,
    reset_mul_calls,
    row_times_power,
)

from conftest import seeded


def random_matrix(rng, dim):
    return BoolMatrix(dim, tuple(rng.getrandbits(dim) for _ in range(dim)))


def test_identity_dim_1():
    assert identity(1).rows == (1,)


def test_identity_dim_3():
    m = identity(3)
    assert [[m.get(i, j) for j in range(3)] for i in range(3)] == [
        [True, False, False],
        [False, True, False],
        [False, False, True],
    ]


def test_identity_law_random():
    rng = seeded(101)
    for _ in range(20):
        dim = rng.randint(1, 24)
        a = random_matrix(rng, dim)
        assert mul(identity(dim), a) == a
        assert mul(a, identity(dim)) == a


def test_mul_zero_annihilates():
    rng = seeded(102)
    zero = BoolMatrix(6, (0,) * 6)
    a = random_matrix(rng, 6)
    assert mul(zero, a) == zero
    assert mul(a, zero) == zero


def test_mul_chain_shifts_superdiagonal():
    # single path 0 -> 1 -> ... -> 4; squaring composes two steps
    dim = 5
    chain = BoolMatrix(dim, tuple(1 << (i + 1) if i + 1 < dim else 0 for i in range(dim)))
    squared = mul(chain, chain)
    expected = BoolMatrix(dim, tuple(1 << (i + 2) if i + 2 < dim else 0 for i in range(dim)))
    assert squared == expected


def test_mul_matches_scalar_reference():
    rng = seeded(103)
    for _ in range(30):
        a = random_matrix(rng, 8)
        b = random_matrix(rng, 8)
        assert mul(a, b, method="packed") == mul(a, b, method="naive")


def per_bit_product(arows, brows):
    # row i of a times b by the definition: OR of b's row k per set bit k
    out = []
    for row in arows:
        acc = 0
        for k, brow in enumerate(brows):
            if row >> k & 1:
                acc |= brow
        out.append(acc)
    return out


def mixed_matrix(rng, dim):
    """Zero rows, rows with 1..64 set bits, rows with more than 64 set bits,
    rows of one repeated byte, copies of earlier rows and rows on either
    side of the kernel's walk/table boundary, all in one matrix."""
    full = (1 << dim) - 1
    rows = []
    for i in range(dim):
        kind = rng.randrange(6)
        if kind == 0:
            row = 0
        elif kind == 1:
            row = sum(1 << k for k in rng.sample(range(dim), rng.randint(1, 64)))
        elif kind == 2:
            row = full
            for k in rng.sample(range(dim), rng.randint(0, dim - 65)):
                row &= ~(1 << k)
        elif kind == 3:
            byte = rng.choice((0xFF, 0xEF, 0x7E, 0xB7, 0x01))
            row = int.from_bytes(bytes([byte]) * (dim // 8 + 1), "little") & full
        elif kind == 4:
            row = rows[rng.randrange(i)] if i else full
        else:
            count = rng.choice((WALK_MAX_BITS, WALK_MAX_BITS + 1))
            row = sum(1 << k for k in rng.sample(range(dim), count))
        rows.append(row)
    return BoolMatrix(dim, tuple(rows))


def test_mul_matches_per_bit_reference_on_dense_rows():
    # dims that are not multiples of 8 leave the last byte group partial;
    # dense rows sharing bytes reuse the product's table entries
    rng = seeded(112)
    for dim in (65, 72, 97, 130, 203):
        for _ in range(3):
            a = mixed_matrix(rng, dim)
            b = rng.choice((mixed_matrix, random_matrix))(rng, dim)
            counts = [row.bit_count() for row in a.rows]
            assert 0 in counts and any(0 < c <= 64 for c in counts)
            assert WALK_MAX_BITS in counts and WALK_MAX_BITS + 1 in counts
            dense = [row for row in a.rows if row.bit_count() > 64]
            nbytes = (dim + 7) // 8
            groups = [
                (g, byte)
                for row in dense
                for g, byte in enumerate(row.to_bytes(nbytes, "little"))
                if byte
            ]
            assert len(set(groups)) < len(groups)
            assert mul(a, b).rows == tuple(per_bit_product(a.rows, b.rows))
            assert mul(a, a).rows == tuple(per_bit_product(a.rows, a.rows))


def test_mul_shares_one_result_among_equal_dense_rows():
    # the product keeps the result of each table-loop row of A for the rest
    # of the product: an equal row gets the very same int back, also when
    # its lowest set byte is not byte 0, and every result stays exact
    rng = seeded(117)
    dim = 120
    # a permutation matrix, so each product row names exactly the rows picked
    b = BoolMatrix(dim, tuple(1 << col for col in rng.sample(range(dim), dim)))
    base = 1 | sum(1 << k for k in rng.sample(range(1, dim - 16), WALK_MAX_BITS + 3))
    # base and base << 16 are equal once each is shifted down past its zero
    # low bytes, but their products differ
    dense = [base, base << 16]
    for low in (0, 3, 5, 9):
        count = rng.randint(WALK_MAX_BITS + 1, dim - 8 * low)
        dense.append(sum(1 << k for k in rng.sample(range(8 * low, dim), count)))
    assert len(set(dense)) == len(dense)
    assert all(row.bit_count() > WALK_MAX_BITS for row in dense)
    assert any(row & 0xFF == 0 for row in dense)
    sparse = [0, 1 << 7] + [
        sum(1 << k for k in rng.sample(range(dim), rng.randint(2, WALK_MAX_BITS)))
        for _ in range(6)
    ]
    arows = [dense[i % len(dense)] for i in range(dim - len(sparse))] + sparse
    rng.shuffle(arows)
    product = mul(BoolMatrix(dim, arows), b)
    assert product.rows == mul(BoolMatrix(dim, arows), b, method="naive").rows
    for row in dense:
        results = [out for inp, out in zip(arows, product.rows) if inp == row]
        assert len(results) > 1 and results[0].bit_length() > 64
        assert all(out is results[0] for out in results)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mul(identity(2), identity(3))


def test_mul_unknown_method():
    with pytest.raises(ValueError):
        mul(identity(2), identity(2), method="blas")


def test_power_zero_is_identity():
    rng = seeded(104)
    a = random_matrix(rng, 7)
    assert power(a, 0) == identity(7)


def test_power_one_is_input():
    rng = seeded(105)
    a = random_matrix(rng, 7)
    assert power(a, 1) == a


def test_power_13_matches_repeated_mul():
    rng = seeded(106)
    a = random_matrix(rng, 8)
    expected = a
    for _ in range(12):
        expected = mul(expected, a)
    assert power(a, 13) == expected


def test_power_rejects_bad_exponents():
    a = identity(3)
    with pytest.raises(ValueError):
        power(a, -1)
    with pytest.raises(ValueError):
        power(a, 1 << 64)
    with pytest.raises(ValueError):
        power(a, 2.0)
    assert power(a, (1 << 64) - 1) == a


def test_associativity_random():
    rng = seeded(107)
    for _ in range(40):
        dim = rng.randint(1, 32)
        a, b, c = (random_matrix(rng, dim) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_power_additivity_random():
    rng = seeded(108)
    for _ in range(25):
        dim = rng.randint(1, 16)
        a = random_matrix(rng, dim)
        x, y = rng.randint(0, 64), rng.randint(0, 64)
        assert power(a, x + y) == mul(power(a, x), power(a, y))


def permutation_matrix(rng, dim):
    order = list(range(dim))
    rng.shuffle(order)
    return BoolMatrix(dim, tuple(1 << j for j in order))


def nilpotent_matrix(rng, dim):
    # edges only from lower to higher index, so every path dies within dim steps
    return BoolMatrix(dim, tuple(rng.getrandbits(dim) >> (i + 1) << (i + 1) for i in range(dim)))


def test_row_times_power_matches_power():
    rng = seeded(111)
    makers = (
        random_matrix,
        permutation_matrix,
        nilpotent_matrix,
        lambda rng, dim: BoolMatrix(dim, (0,) * dim),
    )
    for _ in range(300):
        dim = rng.randint(1, 12)
        a = rng.choice(makers)(rng, dim)
        for e in (0, 1, 2, (1 << 64) - 1, rng.getrandbits(rng.randint(1, 64))):
            m = power(a, e)
            source = rng.randrange(dim)
            assert row_times_power(a, 1 << source, e) == m.rows[source]
            row = rng.getrandbits(dim)
            expected = 0
            for i in range(dim):
                if row >> i & 1:
                    expected |= m.rows[i]
            assert row_times_power(a, row, e) == expected


def test_row_times_power_walks_dense_frontiers_through_capped_tables(monkeypatch):
    # a dense vector moved by a permutation, with a few extra edges or none,
    # stays dense and does not repeat within dim + 1 steps. From step 33 the
    # walk reads it through tables, whose bytes there would fill more than
    # dim entries: the walk fills at most dim, and ORs the rows of the rest
    fills = []
    fill_entry = boolmat._fill_entry

    def counted(*args):  # _fill_entry fills one entry per call, recursive ones too
        fills.append(args)
        return fill_entry(*args)

    monkeypatch.setattr(boolmat, "_fill_entry", counted)
    rng = seeded(122)
    capped = 0
    for dim in (48, 64, 97):
        for extra in (0, 0, 2, 3):
            rows = list(permutation_matrix(rng, dim).rows)
            for _ in range(extra):
                rows[rng.randrange(dim)] |= 1 << rng.randrange(dim)
            a = BoolMatrix(dim, tuple(rows))
            row = rng.getrandbits(dim) | 1
            vectors = [row]
            for _ in range(dim + 1):
                vectors.append(per_bit_product(vectors[-1:], a.rows)[0])
            for e in range(dim + 2):
                fills.clear()
                assert row_times_power(a, row, e) == vectors[e]
                assert len(fills) <= dim
            needed = {
                (group, v >> 8 * group & 0xFF)
                for v in vectors[32 : dim + 1]
                if v.bit_count() > WALK_MAX_BITS
                for group in range((dim + 7) // 8)
            }
            capped += len({pair for pair in needed if pair[1]}) > dim
            for e in (dim + 2, 3 * dim + 1, (1 << 64) - 1, rng.getrandbits(64)):
                assert row_times_power(a, row, e) == per_bit_product([row], power(a, e).rows)[0]
    assert capped >= 6


def test_row_times_power_rejects_bad_input():
    a = identity(3)
    with pytest.raises(ValueError):
        row_times_power(a, 1, -1)
    with pytest.raises(ValueError):
        row_times_power(a, 1, 1 << 64)
    with pytest.raises(ValueError):
        row_times_power(a, 1 << 3, 1)
    with pytest.raises(ValueError):
        row_times_power(a, -1, 1)
    with pytest.raises(ValueError):
        row_times_power(a, 1.0, 1)
    with pytest.raises(ValueError):  # accepts_length hands its length on as e
        accepts_length(Nfa(1, ("a",), 0, frozenset(), frozenset()), 2.0)
    assert row_times_power(a, 0b101, (1 << 64) - 1) == 0b101


def layered_reach(rows, dim, source, steps):
    """Independent oracle: states reachable in exactly `steps` transitions."""
    layer = {source}
    for _ in range(steps):
        layer = {j for i in layer for j in range(dim) if rows[i] >> j & 1}
    return layer


def test_power_encodes_exact_path_lengths():
    rng = seeded(109)
    for _ in range(15):
        dim = rng.randint(1, 20)
        rows = []
        for _ in range(dim):
            row = 0
            for _ in range(rng.randint(0, 3)):
                row |= 1 << rng.randrange(dim)
            rows.append(row)
        m = BoolMatrix(dim, tuple(rows))
        for t in range(11):
            mt = power(m, t)
            for source in range(dim):
                expected = layered_reach(rows, dim, source, t)
                got = {j for j in range(dim) if mt.rows[source] >> j & 1}
                assert got == expected


def test_padding_stays_clean():
    rng = seeded(110)
    for _ in range(20):
        dim = rng.randint(1, 33)
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        for m in (mul(a, b), power(a, rng.randint(0, 20)), identity(dim)):
            assert all(row >> dim == 0 for row in m.rows)


def test_mul_counter():
    reset_mul_calls()
    a = identity(4)
    mul(a, a)
    mul(a, a)
    assert mul_calls() == 2
    reset_mul_calls()
    assert mul_calls() == 0


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        BoolMatrix(0, ())
    with pytest.raises(ValueError):
        BoolMatrix(2, (1,))
    with pytest.raises(ValueError):
        BoolMatrix(2, (0b100, 0))
    with pytest.raises(ValueError):
        BoolMatrix(2, (-1, 0))
    with pytest.raises(ValueError):
        BoolMatrix(2.0, (1, 2))
    with pytest.raises(ValueError):
        BoolMatrix(2, (1.0, 2))
    m = identity(2)
    with pytest.raises(IndexError):
        m.get(2, 0)
