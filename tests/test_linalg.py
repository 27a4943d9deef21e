import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_crystals.cartan import RootVec
from affine_crystals.linalg import PRIME, gm_from_blocks, rank

from oracles import (echelon_reference, gm_compose, gm_zero, independent_rows, mat_mul, nullspace,
                     profiled_calls, sparse_rows)

FIELDS = (PRIME, None)


def _random_matrix(rng, max_rows=7, max_cols=7, bound=9):
    rows, cols = rng.randint(0, max_rows), rng.randint(1, max_cols)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols


def test_rank_basics():
    assert rank([[1, 2], [2, 4]], PRIME) == 1
    assert rank([[1, 2], [2, 4]], None) == 1
    assert rank([], PRIME) == 0
    assert rank([[0, 0], [0, 0]], None) == 0


def test_rank_stops_reading_rows_at_full_rank():
    # once every column has a pivot the rows left are not reduced
    for p in FIELDS:
        r, calls = profiled_calls(rank, [[1, 0], [0, 1], [1, 1], [2, 3]], p)
        assert r == 2 and calls["linalg", "_reduce"] == 0
        r, calls = profiled_calls(rank, [[1, 1], [2, 3], [1, 0]], p)
        assert r == 2 and calls["linalg", "_reduce"] == 1


def test_nullspace_zero_and_invertible():
    assert len(nullspace([[0, 0, 0]] * 3, 3, PRIME)) == 3
    assert nullspace([[2, 1], [1, 1]], 2, PRIME) == []
    assert len(nullspace([[0] * 4] * 2, 4, None)) == 4
    assert nullspace([[1, 0], [0, 3]], 2, None) == []


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        for v in nullspace(a, cols, None):
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        for v in nullspace(a, cols, PRIME):
            assert all(sum(x * y for x, y in zip(row, v)) % PRIME == 0 for row in a)


def test_modp_agrees_with_exact_on_random_small_integers():
    rng = random.Random(9)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert rank(a, PRIME) == rank(a, None)
        assert len(nullspace(a, cols, PRIME)) == len(nullspace(a, cols, None))


def test_rank_plus_nullity_is_ncols():
    rng = random.Random(11)
    for _ in range(60):
        a, cols = _random_matrix(rng)
        for p in FIELDS:
            assert rank(a, p) + len(nullspace(a, cols, p)) == cols


def test_nullspace_is_reduced_at_free_columns():
    # the commutant basis order relies on this normalisation: each vector is
    # 1 at its own free column (over Q: the common denominator it was cleared
    # by) and 0 at every other free column
    rng = random.Random(12)
    for _ in range(60):
        a, cols = _random_matrix(rng)
        if rng.random() < 0.5 and len(a) > 1:
            a.append([x - y for x, y in zip(a[0], a[1])])
        for p in FIELDS:
            basis = nullspace(a, cols, p)
            free = [max(c for c in range(cols) if v[c]) for v in basis]
            assert free == sorted(set(free))
            for v, c in zip(basis, free):
                assert [v[f] for f in free] == [v[c] * (f == c) for f in free]
                assert v[c] == 1 if p is not None else v[c] > 0


def test_compose_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        gm_compose(gm_zero((1, 1), 1), gm_zero((1, 2), 1))


def _unit_map(dims, shift, entries):
    m = len(dims)
    blocks = [[[0] * dims[(i - shift) % m] for _ in range(dims[i])] for i in range(m)]
    for i, r, c in entries:
        blocks[i][r][c] = 1
    return gm_from_blocks(dims, shift, blocks)


def _kernel_dims(a, p=PRIME):
    return RootVec(tuple(a.dims[i] - rank([list(r) for r in a.block_out(i)], p)
                         for i in range(a.m)))


def test_graded_compose_shift_bookkeeping():
    dims = (2, 1, 1)
    up = gm_zero(dims, 1)
    down = gm_zero(dims, -1)
    assert gm_compose(up, down).shift == 0
    assert gm_compose(up, up).shift == 2
    ident = _unit_map(dims, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 0), (2, 0, 0)])
    some = _unit_map(dims, 1, [(1, 0, 0)])
    assert gm_compose(some, ident) == some
    assert gm_compose(ident, some) == some


def test_graded_kernel_dims():
    # graded nullity: dim V_i minus the rank of the block leaving V_i
    dims = (2, 1, 0)
    z = gm_zero(dims, 1)
    assert _kernel_dims(z) == RootVec(dims)
    inj = _unit_map((1, 1, 1), 1, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert _kernel_dims(inj) == RootVec((0, 0, 0))


def test_power_and_zero_components():
    # one component empty: composition through it must keep shapes straight
    dims = (1, 0, 1)
    x = _unit_map(dims, 1, [(0, 0, 0)])  # v^2_0 -> v^0_0
    sq = gm_compose(x, x, PRIME)
    assert sq.shift == 2
    assert _kernel_dims(sq, PRIME) == RootVec((1, 0, 1))
    assert gm_compose(x, sq, PRIME) == gm_zero(dims, 3)


def test_mat_mul_is_the_dense_product():
    rng = random.Random(13)
    for _ in range(40):
        a, mid = _random_matrix(rng)
        b = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(0, 6))]
             for _ in range(mid)]
        cols = len(b[0]) if b else 0
        b = [row[:cols] + [0] * (cols - len(row)) for row in b]
        dense = [[sum(r[t] * b[t][c] for t in range(mid)) for c in range(cols)] for r in a]
        assert mat_mul(a, sparse_rows(b), cols) == dense
        assert mat_mul(a, sparse_rows(b), cols, PRIME) == \
            [[v % PRIME for v in row] for row in dense]


def test_independent_rows_are_original_rows_spanning_the_row_space():
    rng = random.Random(14)
    for _ in range(60):
        a, _ = _random_matrix(rng)
        if rng.random() < 0.5 and len(a) > 1:
            a.insert(0, [x + y for x, y in zip(a[-1], a[-2])])
        for p in FIELDS:
            keep, pivots = independent_rows(a, p)
            assert len(keep) == len(pivots) == rank(a, p) == rank(keep, p)
            assert all(any(row is orig for orig in a) for row in keep)


# entries small enough to make dependent rows common, and unreduced ones
ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([PRIME, -PRIME, PRIME + 2, 2 * PRIME - 1,
                                                         -PRIME - 1, 5 * PRIME]))


@st.composite
def product(draw):
    """rows (rows x mid) and right (mid x ncols, sparse); rows may be empty or zero."""
    nrows, mid, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=mid, max_size=mid), min_size=nrows,
                         max_size=nrows))
    right = draw(st.lists(st.lists(st.one_of(st.just(0), ENTRIES), min_size=ncols,
                                   max_size=ncols), min_size=mid, max_size=mid))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * mid
    return rows, right, ncols


@settings(max_examples=200)
@given(st.lists(product(), max_size=3), st.sampled_from(FIELDS))
@example([([], [[1, 2]], 2)], PRIME)
@example([([[0, 0]], [[1], [2]], 1)], None)
@example([([[PRIME, -1], [-PRIME, 1]], [[1, PRIME + 1], [0, -2]], 2)] * 2, PRIME)
@example([([[PRIME, -1], [-PRIME, 1]], [[1, PRIME + 1], [0, -2]], 2)], None)
@example([([[1, 2]], [[], []], 0), ([[1]], [[0, 3]], 2)], PRIME)
@example([], None)
def test_rank_counts_independent_rows_of_products(cases, p):
    # on each block, rank of the product reduced mod p is its number of
    # independent rows and the eager Bareiss pivot count; unreduced entries
    # count as their residues, and repeated or zero rows add nothing
    for rows, right, ncols in cases:
        product = mat_mul(rows, sparse_rows(right), ncols, p)
        r = rank(product, p)
        assert r == rank(mat_mul(rows, sparse_rows(right), ncols), p)
        assert r == len(independent_rows(product, p)[1]) == rank(product + product, p)
        assert r == len(echelon_reference([row[:] for row in product], ncols, p)[1])
        assert r <= min(len(product), ncols)
        # the rows alone, with their zero rows dropped
        reduced = [[v % p for v in row] if p is not None else row for row in rows]
        assert rank(rows, p) == rank([row for row in reduced if any(row)], p) \
            == len(independent_rows(reduced, p)[1])


@st.composite
def echelon_inputs(draw):
    """(rows, ncols, p): random or staircase rows (sorted by leading column,
    mostly zero), with entries of a few bits or of 100-200 bits as in the
    powers of xbar over Q, and now and then a row that depends on two others."""
    p = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 9))
    bits = draw(st.one_of(st.just(3), st.integers(100, 200)))

    def entry():
        return rng.choice((-1, 1)) * rng.randrange(1, 2**bits)

    if draw(st.booleans()):  # staircase
        leads = sorted(rng.randrange(ncols) for _ in range(nrows))
        rows = [[0] * lead + [entry()] + [entry() if rng.random() < 0.3 else 0
                                          for _ in range(lead + 1, ncols)] for lead in leads]
    else:
        rows = [[entry() if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        a, b = rng.sample(range(nrows), 2)
        rows.insert(rng.randrange(nrows + 1), [x + 2 * y for x, y in zip(rows[a], rows[b])])
    if p is not None:
        rows = [[v % p for v in row] for row in rows]
    return rows, ncols, p


@settings(max_examples=300)
@given(echelon_inputs())
@example(([[1, 2, 0], [0, 1, 5], [3, 0, 1], [2, 4, 0], [0, 0, 0]], 3, None))
@example(([[1, 2, 0], [0, 1, 5], [3, 0, 1], [2, 4, 0], [0, 0, 0]], 3, PRIME))
@example(([[0, 0, 0], [0, 0, 0]], 3, None))
@example(([[0, 0, 0], [0, 0, 0]], 3, PRIME))
@example(([[], []], 0, None))
@example(([[], []], 0, PRIME))
@example(([[3, 5, 0, 7], [0, 0, 11, 2], [0, 0, 0, 13]], 4, None))
@example(([[0, 2, 1], [4, 0, 3], [8, 1, 7], [0, 6, 3]], 3, None))
def test_rank_is_the_eager_reference_pivot_count(case):
    # the pivot loop over _reduce counts eager Bareiss's pivots on either
    # field, and leaves its input alone; the five-row examples reach full
    # rank at their third row, and the loop reads no further
    rows, ncols, p = case
    given_rows = [row[:] for row in rows]
    assert rank(rows, p) == len(echelon_reference([row[:] for row in rows], ncols, p)[1])
    assert rows == given_rows
