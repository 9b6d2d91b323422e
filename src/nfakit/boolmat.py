"""Square boolean matrices with bit-packed rows: product, power and row
vector times power."""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass


class DimensionMismatchError(ValueError):
    """Operands of a matrix product have different dimensions."""


_mul_calls = ContextVar("mul_calls", default=0)

_METHODS = ("packed", "naive")

# A row with at most this many set bits walks them; a denser one takes the
# table loop when the caller holds tables (see _row_times). 16 read fastest
# or level in a sweep over 8, 16, 24, 32 and 64 on enumeration, reductions
# and simulate
WALK_MAX_BITS = 16

# steps row_times_power's walk takes before it holds tables and its chain
# mask, which a walk that repeats sooner would not repay; the tables fill at
# most dim entries, one dense matrix
_WALK_TABLES_AFTER = 32


def _check_size(name: str, value) -> None:
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class BoolMatrix:
    """dim x dim boolean matrix; bit j of rows[i] is entry (i, j)."""

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_size("dim", self.dim)
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(self.rows)}")
        try:
            for i, row in enumerate(self.rows):
                # bits at positions >= dim must stay zero
                if row < 0 or row >> self.dim:
                    raise ValueError(f"row {i} has bits outside columns 0..{self.dim - 1}")
        except TypeError:  # a row that is not an integer has no bits to shift
            raise ValueError(f"row {i} must be an integer, got {row!r}") from None

    def get(self, i: int, j: int) -> bool:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i}, {j}) out of range for dim {self.dim}")
        return bool(self.rows[i] >> j & 1)


def identity(dim: int) -> BoolMatrix:
    """Identity matrix, the neutral element of the boolean product."""
    return BoolMatrix(dim, tuple(1 << i for i in range(dim)))


def mul_calls() -> int:
    """Number of boolean matrix multiplications since the last reset."""
    return _mul_calls.get()


def reset_mul_calls() -> None:
    _mul_calls.set(0)


def mul(a: BoolMatrix, b: BoolMatrix, method: str = "packed") -> BoolMatrix:
    """Boolean product: entry (i,j) = OR over k of a(i,k) AND b(k,j)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"cannot multiply {a.dim}x{a.dim} by {b.dim}x{b.dim}"
        )
    if method not in _METHODS:
        raise ValueError(f"unknown multiplier {method!r}, expected one of {_METHODS}")
    _mul_calls.set(_mul_calls.get() + 1)
    if method == "packed":
        tables, memo = [], {}
        rows = [_row_times(row, b.rows, tables, memo) for row in a.rows]
    else:
        rows = _mul_rows_naive(a.rows, b.rows)
    return BoolMatrix(a.dim, tuple(rows))


def _check_exponent(e: int) -> None:
    if not isinstance(e, int) or e < 0 or e >> 64:
        raise ValueError(f"exponent must be an integer in 0..2^64-1, got {e!r}")


def power(a: BoolMatrix, e: int) -> BoolMatrix:
    """Raise a to the e-th boolean power with O(log e) products."""
    _check_exponent(e)
    if e == 0:
        return identity(a.dim)
    result = a
    for shift in range(e.bit_length() - 2, -1, -1):
        result = mul(result, result)
        if e >> shift & 1:
            result = mul(result, a)
    return result


def row_times_power(a: BoolMatrix, row: int, e: int) -> int:
    """Row vector times a**e: bit j is set iff some set bit i of row has
    a**e entry (i, j).

    First walks the vector by a, one step at a time, until it is zero, e is
    spent or it repeats; a repeat reduces e modulo the period and reads the
    result from the walk. It keeps at most dim + 1 vectors and dim table
    entries (see _WALK_TABLES_AFTER), to bound its heap: a frontier is a set
    of states, whose period can be the lcm of its cycle lengths. From the
    step it takes tables at, it also keeps one dim-bit mask of the states p
    whose row is bit p + 1 alone and moves those by one shift (Shift-And,
    as simulate does), so only the others reach the kernel and its tables.
    Any exponent left goes to squarings, low bit first, folding a**(2**j)
    into the vector where bit j is set: at most floor(log2 e) products, one
    square at a time.
    """
    _check_exponent(e)
    if not isinstance(row, int) or row < 0 or row >> a.dim:
        raise ValueError(f"row must be an integer with bits in columns 0..{a.dim - 1}")
    seen = {}  # each vector of the walk, to the step it was first met at
    tables = room = chain = other = None
    while row and e and len(seen) <= a.dim:
        if row in seen:
            start = seen[row]
            return list(seen)[start + e % (len(seen) - start)]
        if len(seen) == _WALK_TABLES_AFTER:
            # the walk's tables, how many entries they may still fill, and
            # the states whose only edge is p -> p + 1 (the chain) and the rest
            tables, room, chain = [], [a.dim], 0
            for p, arow in enumerate(a.rows):
                if arow == 2 << p:
                    chain |= 1 << p
            other = ~chain
        seen[row] = len(seen)
        if tables is None:
            row = _row_times(row, a.rows)
        else:  # chain states step by one shift, as in simulate, and reach no table
            row = (row & chain) << 1 | _row_times(row & other, a.rows, tables, room=room)
        e -= 1
    square = a
    while True:
        if e & 1:
            row = _row_times(row, square.rows)
        e >>= 1
        if not (row and e):
            return row
        square = mul(square, square)


def _row_times(row, brows, tables=None, memo=None, room=None):
    # row vector times matrix: OR of brows[k] over the set bits k of row.
    # A one-bit row is a lookup. A row with at most WALK_MAX_BITS set bits,
    # or with no tables, walks its set bits from the top down, so the row
    # gets shorter at each step. A denser row with tables goes byte by byte
    # over its set-bit span only and ORs one Four Russians entry per nonzero
    # byte: tables[g][byte] is the OR of rows 8g + k over the set bits k of
    # byte (see _fill_entry). Callers hand in an empty list and the kernel
    # grows it, so tables cost only up to the groups that dense rows reach.
    # The tables belong to brows, so whoever multiplies by the same rows
    # many times holds them: mul for the rows of one product only, simulate
    # for all the steps on one symbol, and row_times_power's walk after
    # _WALK_TABLES_AFTER steps, whose fills room caps: a missing entry
    # spends its byte's bit count, the most entries _fill_entry makes for
    # it, and once room is short ORs the byte's rows and stores nothing.
    # Only mul holds a memo, from each row that took the table loop, as it
    # came in, to its result, so an equal row later in A gets the same int
    # back; its keys and values are rows the product holds anyway. simulate
    # and row_times_power hold none, as their distinct frontiers are unbounded
    count = row.bit_count()
    if count == 1:
        return brows[row.bit_length() - 1]
    acc = 0
    if count <= WALK_MAX_BITS or tables is None:
        while row:
            top = row.bit_length() - 1
            acc |= brows[top]
            row ^= 1 << top
        return acc
    if memo is not None:
        hit = memo.get(row)
        if hit is not None:
            return hit
    first = (row & -row).bit_length() - 1 >> 3  # index of the lowest nonzero byte
    span = row >> (first << 3)
    data = span.to_bytes((span.bit_length() + 7) >> 3, "little")
    grow = first + len(data) - len(tables)
    if grow > 0:
        tables.extend([None] * grow)
    for group, byte in enumerate(data, first):
        if byte:
            table = tables[group]
            if table is None:
                table = tables[group] = [0] + [None] * 255
            entry = table[byte]
            if entry is None:
                if room and room[0] < byte.bit_count():
                    base = group << 3
                    while byte:
                        top = byte.bit_length() - 1
                        acc |= brows[base + top]
                        byte ^= 1 << top
                    continue
                if room:
                    room[0] -= byte.bit_count()
                entry = _fill_entry(table, byte, brows, group << 3)
            acc |= entry
    if memo is not None:
        memo[row] = acc
    return acc


def _fill_entry(table, byte, brows, base):
    # table fill of M4RM: the entry of byte is the entry of byte less its top
    # bit, filled first if missing (table[0] is 0), ORed with that bit's row
    # of b. One OR per entry, at most 8 calls deep
    top = byte.bit_length() - 1
    rest = byte ^ 1 << top
    entry = table[rest]
    if entry is None:
        entry = _fill_entry(table, rest, brows, base)
    entry = table[byte] = entry | brows[base + top]
    return entry


def _mul_rows_naive(arows, brows):
    # scalar triple loop, kept as the slow reference multiplier
    dim = len(arows)
    out = []
    for i in range(dim):
        row = 0
        for j in range(dim):
            for k in range(dim):
                if arows[i] >> k & 1 and brows[k] >> j & 1:
                    row |= 1 << j
                    break
        out.append(row)
    return out
