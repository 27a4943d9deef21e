import inspect
import itertools
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_crystals import golden, quiver
from affine_crystals.cartan import RootVec, root, weight, zero_root
from affine_crystals.iso import run_pipeline
from affine_crystals.linalg import PRIME, gm_from_blocks, rank, zero_blocks
from affine_crystals.paths import lowering_steps, word_alpha
from affine_crystals.quiver import (
    GenericityError,
    KernelTable,
    WallMap,
    check_moment,
    commutant_basis,
    generic_kernel_table,
    is_nilpotent,
    is_stable,
    kernel_table_at,
    sample_in_commutant,
    wall_graded_map,
)
from affine_crystals.suites import random_dominant, random_word, reference_table
from affine_crystals.walls import column_content, make_walls, path_to_walls, total_content

from oracles import (_kernel_dims, _open_strings, _oracle_table, _table_rows_eq,
                     generic_kernel_table_reference, gm_compose, gm_zero, nullspace,
                     profiled_calls, row_walk_units, stacked_rank_is_stable,
                     string_index_reference, zero_wall_map)

N, LAM = golden.N, golden.LAM
FIELDS = pytest.mark.parametrize("p", [PRIME, None], ids=["fp", "qq"])
WP1 = make_walls("P1", N, **golden.WALLS_P1)
WPN = make_walls("Pn", N, **golden.WALLS_PN)


def test_matrix_units_match_reference():
    ux = wall_graded_map(WP1).units()
    assert {(u.s, u.src, u.dst) for u in ux} == golden.X_UNITS
    assert all(u.direction == "x" for u in ux) and ux == row_walk_units(WP1)
    uxb = wall_graded_map(WPN).units()
    assert {(u.s, u.src, u.dst) for u in uxb} == golden.XBAR_UNITS
    assert all(u.direction == "xbar" for u in uxb) and uxb == row_walk_units(WPN)


def test_single_wall_units():
    one = make_walls("P1", 2, (0,), ((1, 1),))
    assert {(u.s, u.src, u.dst) for u in wall_graded_map(one).units()} == {(0, 0, 0)}
    # charge-0 block at (row 1, col 1) has color 0+1-1+1 = 1, so the unit
    # is the same adjacency that produces the reference tuple's first unit
    onebar = make_walls("Pn", 2, (0,), ((1, 1),))
    units = wall_graded_map(onebar).units()
    assert [(u.direction, u.s, u.src, u.dst) for u in units] == [("xbar", 1, 0, 0)]


def test_empty_walls_zero_map():
    x = wall_graded_map(make_walls("P1", N, (0, 0, 1), ((), (), ())))
    assert x.units() == [] and x == zero_wall_map(x.dims, 1) and x.dense() == gm_zero(x.dims, 1)


def _big_commutator_dim(x, dims):
    """Independent oracle: dense one-matrix commutator system over Q, for a dense x."""
    m = len(dims)
    total = sum(dims)
    offs = [sum(dims[:i]) for i in range(m)]
    big = [[0] * total for _ in range(total)]
    for i in range(m):
        blk = x.blocks[i]
        src = (i - x.shift) % m
        for r in range(dims[i]):
            for c in range(dims[src]):
                big[offs[i] + r][offs[src] + c] = blk[r][c]
    # unknown positions: the full opposite-degree entry profile of the big matrix
    positions = []
    for i in range(m):
        tgt = (i - 1) % m if x.shift == 1 else (i + 1) % m
        for r in range(dims[tgt]):
            for c in range(dims[i]):
                positions.append((offs[tgt] + r, offs[i] + c))
    # (X U - U X)[rr][cc] = sum_k X[rr][k] U[k][cc] - U[rr][k] X[k][cc]
    rows = []
    for rr in range(total):
        for cc in range(total):
            coeff = [0] * len(positions)
            for t, (pr, pc) in enumerate(positions):
                if pc == cc:
                    coeff[t] += big[rr][pr]
                if pr == rr:
                    coeff[t] -= big[pc][cc]
            if any(coeff):
                rows.append(coeff)
    return len(nullspace(rows, len(positions), None))


def _solver_commutant_maps(a, p):
    """Reference oracle: the commutant as the nullspace of [a, u] = 0.

    a is dense.  Unknowns are the entries of the opposite-degree blocks u[b],
    block-major then row-major; the basis is the reduced-echelon one in that
    order, each vector returned as a dense map.
    """
    m = a.m
    dims = a.dims
    shift = -a.shift
    offsets = []
    total = 0
    for b in range(m):
        offsets.append(total)
        total += dims[b] * dims[(b - shift) % m]

    def uidx(b, r, c):
        return offsets[b] + r * dims[(b - shift) % m] + c

    rows = []
    for i in range(m):
        au_left = a.blocks[i]  # V_{i - a.shift} -> V_i
        b1 = (i - a.shift) % m  # u-block landing in V_{i - a.shift}
        ua_right = a.blocks[(i + a.shift) % m]  # V_i -> V_{i + a.shift}
        for r in range(dims[i]):
            for c in range(dims[i]):
                coeffs: dict[int, int] = {}
                for t in range(dims[b1]):
                    if au_left[r][t]:
                        coeffs[uidx(b1, t, c)] = coeffs.get(uidx(b1, t, c), 0) + au_left[r][t]
                for t in range(dims[(i + a.shift) % m]):
                    if ua_right[t][c]:
                        coeffs[uidx(i, r, t)] = coeffs.get(uidx(i, r, t), 0) - ua_right[t][c]
                if coeffs:
                    row = [0] * total
                    for pos, v in coeffs.items():
                        row[pos] = v
                    rows.append(row)
    out = []
    for vec in nullspace(rows, total, p):
        blocks = [
            [[vec[uidx(b, r, c)] for c in range(dims[(b - shift) % m])] for r in range(dims[b])]
            for b in range(m)
        ]
        out.append(gm_from_blocks(dims, shift, blocks))
    return out


def _solver_commutant_basis(a, p):
    """The oracle's basis as supports: the cells of each vector, every entry 1."""
    out = []
    for g in _solver_commutant_maps(a, p):
        cells = [(b, r, c) for b, blk in enumerate(g.blocks)
                 for r, row in enumerate(blk) for c, v in enumerate(row) if v]
        assert all(g.blocks[b][r][c] == 1 for b, r, c in cells)
        out.append(tuple(cells))
    return out


def _dense_sample(maps, dims, shift, rng, p):
    """Sum of c_k * B_k (mod p) over dense maps, c_k drawn in basis order."""
    hi = p if p is not None else 10**6
    m = len(dims)
    blocks = [[[0] * dims[(b - shift) % m] for _ in range(dims[b])] for b in range(m)]
    for g in maps:
        co = rng.randrange(hi)
        for b, blk in enumerate(g.blocks):
            for r, row in enumerate(blk):
                for c, v in enumerate(row):
                    blocks[b][r][c] += co * v
    if p is not None:
        blocks = [[[v % p for v in row] for row in blk] for blk in blocks]
    return gm_from_blocks(dims, shift, blocks)


def _random_wall_maps(count):
    """Wall maps of P1 and Pn tuples of random words: n <= 3, level <= 3, length <= 12."""
    rng = random.Random(5)
    kinds = {"P1": "B1", "Pn": "Bn"}
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        word = random_word(lam, rng.randint(0, 12), rng)
        alpha = root([sum(m for i, m in word if i % (n + 1) == c) for c in range(n + 1)])
        for kind, path_kind in kinds.items():
            walls = path_to_walls(*lowering_steps(lam, path_kind, word), alpha)
            out.append(wall_graded_map(walls))
    return out[:count]


def _assert_matches_solver(x):
    basis = commutant_basis(x)
    for p in (PRIME, None):
        assert basis == _solver_commutant_basis(x.dense(), p)
    return basis


def test_commutant_dimension_reference():
    x = wall_graded_map(WP1)
    assert len(_assert_matches_solver(x)) == golden.COMMUTANT_DIM
    assert _big_commutator_dim(x.dense(), x.dims) == golden.COMMUTANT_DIM


def test_commutant_tiny_cases_against_oracle():
    # single unit v^2_0 -> v^0_0 on alpha = a0 + a2 with n = 2
    x = WallMap(1, (1, 0, 1), (((2, 0), (0, 0)),))
    assert x.dense() == gm_from_blocks((1, 0, 1), 1, [[[1]], [], [[]]])
    assert len(_assert_matches_solver(x)) == _big_commutator_dim(x.dense(), (1, 0, 1))
    # zero map: everything commutes
    dims = (2, 1, 1)
    expect = sum(dims[i] * dims[i - 1] for i in range(3))
    assert len(_assert_matches_solver(zero_wall_map(dims, 1))) == expect
    assert len(_assert_matches_solver(zero_wall_map(dims, -1))) == expect


def test_commutant_matches_solver_on_random_wall_maps():
    for x in _random_wall_maps(64):
        _assert_matches_solver(x)


@pytest.mark.parametrize("p", [PRIME, None], ids=["fp", "qq"])
def test_sample_equals_dense_sum_of_oracle_maps(p):
    # placing one coefficient per support is the dense combination, mod p
    x = wall_graded_map(WP1)
    for a in [x] + _random_wall_maps(16):
        basis, maps = commutant_basis(a), _solver_commutant_maps(a.dense(), p)
        for s in (0, 1, 7):
            got = sample_in_commutant(a, basis, random.Random(s), p)
            assert got == _dense_sample(maps, a.dims, -a.shift, random.Random(s), p)


# one map for each way a WallMap can fail to be a wall map
MALFORMED = {
    "repeated-vector": WallMap(1, (1, 1), (((0, 0), (1, 0)), ((0, 0),))),
    "skipped-colour": WallMap(1, (1, 0, 1), (((0, 0), (2, 0)),)),
    "index-past-dims": WallMap(1, (1, 1), (((0, 0), (1, 1)), ((1, 0),))),
    "missing-vector": WallMap(1, (1, 1), (((0, 0),),)),
    "empty-string": WallMap(1, (1, 0), (((0, 0),), ())),
    "degree-2": WallMap(2, (1, 1), (((0, 0),), ((1, 0),))),
}


def test_commutant_rejects_maps_that_are_not_wall_maps():
    for x in MALFORMED.values():
        assert not is_nilpotent(x)
        with pytest.raises(ValueError, match="^not a wall map"):
            commutant_basis(x)


def test_commutant_rejects_cycle_under_optimize():
    # a string form holds no cycle; the guard against every other malformed
    # map must survive -O, and "extra: wall map is nilpotent" must be able to fail
    code = (
        "from affine_crystals.quiver import WallMap, commutant_basis, is_nilpotent\n"
        f"for x in {list(MALFORMED.values())!r}:\n"
        "    try:\n"
        "        commutant_basis(x)\n"
        "    except ValueError:\n"
        "        print('ValueError', is_nilpotent(x))\n"
        "    else:\n"
        "        print('accepted', is_nilpotent(x))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError False"] * len(MALFORMED)


def _long_wall_tuples(count, seed):
    """(n, walls) of P1 and Pn tuples of random words: n <= 5, level <= 6, 20-60 letters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        lam = random_dominant(n, rng.randint(1, 6), rng)
        word = random_word(lam, rng.randint(20, 60), rng)
        alpha = root(word_alpha(n, word))
        for kind, path_kind in (("P1", "B1"), ("Pn", "Bn")):
            out.append((n, path_to_walls(*lowering_steps(lam, path_kind, word), alpha)))
    return out[:count]


def test_wall_map_strings_and_units_match_dense_oracle():
    for n, walls in _long_wall_tuples(40, seed=14):
        x = wall_graded_map(walls)
        units = x.units()
        assert is_nilpotent(x) and x.dims == total_content(walls).k
        assert x.shift == (1 if walls.kind == "P1" else -1)
        assert set(x.strings) == set(map(tuple, _open_strings(x.dense())))
        # one unit per link, from each string vector to the next one
        links = [(a, b) for string in x.strings for a, b in zip(string, string[1:])]
        up = [u.direction == "x" for u in units]
        assert all(up) if x.shift == 1 else not any(up)
        below = [(u.s - 1) % x.m for u in units]
        pairs = [((t, u.src), (u.s, u.dst)) if x.shift == 1 else ((u.s, u.src), (t, u.dst))
                 for u, t in zip(units, below)]
        assert len(pairs) == len(links) and set(pairs) == set(links)
        # and in the order of the walk over each row from column 0
        assert units == row_walk_units(walls)


@st.composite
def wall_maps(draw):
    """The wall map of a P1 or Pn tuple of a random word: n <= 4, level <= 4, <= 24 letters."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_dominant(n, draw(st.integers(1, 4)), rng)
    word = random_word(lam, draw(st.integers(0, 24)), rng)
    path, steps = lowering_steps(lam, draw(st.sampled_from(["B1", "Bn"])), word)
    return wall_graded_map(path_to_walls(path, steps, root(word_alpha(n, word))))


@settings(max_examples=200)
@given(wall_maps())
@example(wall_graded_map(WP1))
@example(wall_graded_map(WPN))
@example(zero_wall_map((0, 0, 0), 1))
@example(zero_wall_map((2, 0, 1), -1))
def test_string_index_matches_a_recomputation_from_the_strings(x):
    # (height, string) order, string places, neighbours, string ends and
    # ker x^k, each against a recomputation from the strings alone
    assert x.index._asdict() == string_index_reference(x)
    assert x.index is x.index


def test_one_pipeline_builds_the_wall_map_index_once():
    # three or more kernel tables with their moment checks, and three stability
    # checks, all read one index of x; nothing reads the Pn map's index
    for p in (PRIME, None):
        rep, calls = profiled_calls(run_pipeline, LAM, golden.WORD, 0, p)
        assert rep.ok
        assert calls["quiver", "kernel_table_at"] >= 3 and calls["quiver", "is_stable"] == 3
        assert calls["quiver", "index"] == 1
        assert "index" in vars(rep.x_p1) and "index" not in vars(rep.x_pn)


@FIELDS
def test_string_commutator_matches_dense_commutator(p):
    # commuting samples, samples with one entry perturbed, and samples with
    # PRIME added to every entry, which commute mod PRIME but not over Q
    rng = random.Random(9)
    seen = Counter()
    for n, walls in _long_wall_tuples(16, seed=15):
        x = wall_graded_map(walls)
        dense, shift = x.dense(), -x.shift
        xbar = sample_in_commutant(x, commutant_basis(x), rng, p)
        cells = [(t, r, c) for t, blk in enumerate(xbar.blocks)
                 for r, row in enumerate(blk) for c in range(len(row))]
        points = [xbar, gm_from_blocks(x.dims, shift, [[[v + PRIME for v in row] for row in blk]
                                                        for blk in xbar.blocks])]
        for t, r, c in rng.sample(cells, min(3, len(cells))):
            blocks = [[list(row) for row in blk] for blk in xbar.blocks]
            blocks[t][r][c] += rng.randrange(1, 10)
            points.append(gm_from_blocks(x.dims, shift, blocks))
        for xb in points:
            commutes = check_moment(x, xb, p)
            assert commutes == (gm_compose(dense, xb, p) == gm_compose(xb, dense, p))
            seen[commutes] += 1
        assert check_moment(x, xbar, p)
    assert seen[True] and seen[False], seen


@FIELDS
def test_moment_check_rejects_one_changed_entry_in_each_block(p):
    # a single matrix unit E_(u,v) commutes with x exactly when u is a string
    # end and v a string start, so a commuting sample changed at any other
    # cell alone must be rejected; one such cell per block is tried
    rng = random.Random(31)
    changed_blocks = 0
    for x in [wall_graded_map(WP1), wall_graded_map(WPN)] + _random_wall_maps(24):
        xbar = sample_in_commutant(x, commutant_basis(x), rng, p)
        assert check_moment(x, xbar, p)
        for t, blk in enumerate(xbar.blocks):  # block t leaves V_(t + deg x)
            prev = x.index.prev[(t + x.shift) % x.m]
            cells = [(r, c) for r in range(len(blk)) for c in range(len(blk[r]))
                     if x.index.nxt[t][r] is not None or prev[c] is not None]
            if not cells:
                continue
            r, c = rng.choice(cells)
            for delta in (1, rng.randrange(2, 10), -1):
                blocks = [[list(row) for row in b] for b in xbar.blocks]
                blocks[t][r][c] += delta
                changed = gm_from_blocks(x.dims, xbar.shift, blocks)
                assert not check_moment(x, changed, p)
                assert gm_compose(x.dense(), changed, p) != gm_compose(changed, x.dense(), p)
            changed_blocks += 1
    assert changed_blocks >= 2 * 3 + 24


def test_commutant_elements_commute():
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    rng = random.Random(0)
    xbar = sample_in_commutant(x, basis, rng, PRIME)
    assert check_moment(x, xbar, PRIME)
    assert not check_moment(x, wall_graded_map(WPN).dense(), PRIME)


def test_sampling_is_deterministic():
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    a = sample_in_commutant(x, basis, random.Random(42), PRIME)
    b = sample_in_commutant(x, basis, random.Random(42), PRIME)
    assert a == b
    assert sample_in_commutant(x, [], random.Random(1), PRIME) == \
        sample_in_commutant(x, [], random.Random(2), PRIME)


def test_nilpotency():
    x = wall_graded_map(WP1)
    assert is_nilpotent(x)
    dense = x.dense()
    cube = gm_compose(dense, gm_compose(dense, dense, PRIME), PRIME)
    assert gm_compose(dense, gm_compose(dense, cube, PRIME), PRIME) == gm_zero(x.dims, 5)
    assert is_nilpotent(zero_wall_map((2, 1, 1), -1))
    assert is_nilpotent(zero_wall_map((0, 0, 0), 1))
    assert not any(map(is_nilpotent, MALFORMED.values()))


def test_kernel_table_reference_multi_seed():
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    ref = reference_table()
    for seed in (0, 1, 2, 77):
        kt, _ = generic_kernel_table(x, basis, seed=seed)
        assert kt.x_pow == ref.x_pow
        assert kt.xbar_pow == ref.xbar_pow
        assert kt.xy_pow == ref.xy_pow
        assert kt.yxy_pow == ref.yxy_pow


def test_genericity_error_carries_its_witness(monkeypatch):
    # two samples never reach MIN_SAMPLES = 3; the error names the samples
    # drawn, the agreeing count and the minimum table's rows
    monkeypatch.setattr(quiver, "MAX_SAMPLES", 2)
    x = wall_graded_map(WP1)
    with pytest.raises(GenericityError, match=r"2 samples drawn \(min_samples 3\), "
                       r"2 agreeing with the minimum table \{'alpha': .*'ker_x': "):
        generic_kernel_table(x, commutant_basis(x))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GenericityError as err:
        return f"GenericityError: {err}"


@st.composite
def generic_cells(draw):
    """The wall map of a random word (n <= 3, level <= 3, <= 24 letters), a seed and a field."""
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_dominant(n, draw(st.integers(1, 3)), rng)
    word = random_word(lam, draw(st.integers(0, 24)), rng)
    path, steps = lowering_steps(lam, draw(st.sampled_from(["B1", "Bn"])), word)
    x = wall_graded_map(path_to_walls(path, steps, root(word_alpha(n, word))))
    return x, draw(st.integers(0, 10**6)), draw(st.sampled_from([PRIME, None]))


@settings(max_examples=150)
@given(generic_cells())
@example((wall_graded_map(WP1), 0, PRIME))
@example((wall_graded_map(WPN), 7, None))
def test_generic_kernel_table_matches_the_min_after_every_sample_protocol(cell):
    # checking agreement first returns what taking the minimum after every
    # sample returned, the table and its agreeing samples, and raises the
    # same error where that one raised
    x, seed, p = cell
    basis = commutant_basis(x)
    assert (_outcome(generic_kernel_table, x, basis, seed=seed, p=p)
            == _outcome(generic_kernel_table_reference, x, basis, seed=seed, p=p))


@FIELDS
@pytest.mark.parametrize("zero_at", [0, 1, 2])
def test_a_disagreeing_sample_takes_the_minimum_branch(monkeypatch, p, zero_at):
    # one draw returns xbar = 0, whose kernels are all of V: that table differs,
    # the minimum is taken and the other two agree with it
    x = wall_graded_map(WP1)
    basis, real, real_min = commutant_basis(x), quiver.sample_in_commutant, quiver._table_min
    generic, agreeing = generic_kernel_table(x, basis, seed=0, p=p)
    assert generic == _oracle_table(x.dense(), real(x, basis, random.Random(0), p), p)
    assert len(agreeing) == 3
    mins = []
    monkeypatch.setattr(quiver, "_table_min", lambda tables: mins.append(1) or real_min(tables))
    for protocol in (generic_kernel_table, generic_kernel_table_reference):
        sample = iter(range(quiver.MAX_SAMPLES))

        def one_zero(x, basis, rng, p):
            xbar = real(x, basis, rng, p)
            return gm_zero(x.dims, -x.shift) if next(sample) == zero_at else xbar

        monkeypatch.setattr(quiver, "sample_in_commutant", one_zero)
        mins.clear()
        table, kept = protocol(x, basis, seed=0, p=p)
        # the zero draw is left out of the agreeing samples, the other two kept in order
        assert table == generic and kept == agreeing[:zero_at] + agreeing[zero_at + 1:]
        # the reference takes the minimum after each of the three samples
        assert len(mins) == (1 if protocol is generic_kernel_table else 3)


def _logging_echelon(monkeypatch):
    """Record each _module_echelon call of kernel_table_at: its gens (component,
    vector) and its result (leading terms, gens kept for the next power)."""
    log, real = [], quiver._module_echelon

    def logged(ix, gens, sx, p):
        out = real(ix, gens, sx, p)
        log.append((list(gens), *out))
        return out

    monkeypatch.setattr(quiver, "_module_echelon", logged)
    return log


@FIELDS
def test_kernel_table_stage_work_is_pinned(monkeypatch, p):
    # test data for the worked example at seed 0: three samples that agree, so
    # no minimum is taken; per table one module echelon per power k = 0..5, on
    # 8, 8, 6, 3, 1, 0 generators (8 strings), 17 reductions, 6 generators
    # dropped as in the module of those before them and 2 as zero images; 29
    # coefficients per sample, one getrandbits each, bar the redraws over Q,
    # where 2^20 bits overshoot the bound 10^6
    class CountingRandom(random.Random):
        bits = 0

        def getrandbits(self, k):
            CountingRandom.bits += 1
            return super().getrandbits(k)

    monkeypatch.setattr(quiver, "random", SimpleNamespace(Random=CountingRandom))
    log = _logging_echelon(monkeypatch)
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    (kt, agreeing), calls = profiled_calls(generic_kernel_table, x, basis, 0, p)
    assert kt == reference_table() and len(agreeing) == 3
    assert calls["quiver", "kernel_table_at"] == calls["quiver", "sample_in_commutant"] == 3
    assert calls["quiver", "_table_min"] == 0
    assert calls["quiver", "_module_echelon"] == 3 * 6 == len(log)
    assert calls["linalg", "_reduce"] == 3 * 17
    for table in (log[:6], log[6:12], log[12:]):
        assert [len(gens) for gens, _, _ in table] == [8, 8, 6, 3, 1, 0]
        assert [len(gens) - len(needed) for gens, _, needed in table] == [0, 2, 3, 1, 0, 0]
        assert [len(needed) - len(gens) for (_, _, needed), (gens, _, _)
                in zip(table, table[1:])] == [0, 0, 0, 1, 1]
    assert calls["quiver", "draws"] == 3 and len(basis) == 29
    assert CountingRandom.bits == (3 * 29 if p is not None else 92)


def test_kernel_table_exact_field_flag():
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    kt, _ = generic_kernel_table(x, basis, seed=0, p=None)
    ref = reference_table()
    assert kt.x_pow == ref.x_pow and kt.xbar_pow == ref.xbar_pow


def test_kernel_table_requires_commuting_point():
    x = wall_graded_map(WP1)
    xb = wall_graded_map(WPN)
    with pytest.raises(ValueError):
        kernel_table_at(x, xb.dense(), PRIME)


def test_partner_of_wrong_degree_or_shape_is_rejected_under_optimize():
    # a partner of x's own degree passed the commutator test and gave a table,
    # and one on other dims was accepted or died with IndexError; both must
    # raise a one-line ValueError, also under -O.  So must a weight of another
    # rank (2 or 4 coefficients on this A_2 map), at a stable partner and at
    # the zero one, where component 0 is unstable before the weight runs out
    code = (
        "import random\n"
        "from affine_crystals import golden\n"
        "from affine_crystals.cartan import weight\n"
        "from affine_crystals.linalg import gm_from_blocks, zero_blocks\n"
        "from affine_crystals.quiver import (commutant_basis, is_stable, kernel_table_at,\n"
        "                                    sample_in_commutant, wall_graded_map)\n"
        "from affine_crystals.walls import make_walls\n"
        "x = wall_graded_map(make_walls('P1', golden.N, **golden.WALLS_P1))\n"
        "zero = lambda dims: gm_from_blocks(dims, -x.shift, zero_blocks(dims, -x.shift))\n"
        "dims = (x.dims[0] + 1, *x.dims[1:])\n"
        "calls = [(kernel_table_at, x, xbar) for xbar in (x.dense(), zero(dims))]\n"
        "calls += [(is_stable, x, xbar, golden.LAM) for xbar in (x.dense(), zero(dims))]\n"
        "sampled = sample_in_commutant(x, commutant_basis(x), random.Random(0))\n"
        "calls += [(is_stable, x, xbar, weight(lam)) for xbar in (sampled, zero(x.dims))\n"
        "          for lam in ((2, 1), (2, 1, 0, 0))]\n"
        "for f, *args in calls:\n"
        "    try:\n"
        "        f(*args)\n"
        "    except ValueError as err:\n"
        "        print('ValueError', len(str(err).splitlines()))\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError 1"] * 8


BAD_FIELDS = (4, 9, 6, 1, 0, -7)  # not fields, a false stability failure, a section error, hangs
FIELD_ENTRY_POINTS = (run_pipeline, generic_kernel_table, sample_in_commutant, quiver.draws,
                      kernel_table_at, check_moment, is_stable, rank)


@pytest.mark.parametrize("p", [q for q in BAD_FIELDS if q > 0] + [PRIME + 0.0, True, 2**61 - 1])
def test_the_field_is_checked_before_any_other_argument(p):
    # each entry point raises one line for any p but PRIME and None, another prime
    # too, before it reads anything else (None stands in for every other argument);
    # p <= 0 hangs unchecked, so it runs only in the subprocess test below
    for f in FIELD_ENTRY_POINTS:
        with pytest.raises(ValueError, match="is not supported") as err:
            f(*[None] * (len(inspect.signature(f).parameters) - 1), p)
        assert len(str(err.value).splitlines()) == 1, f.__name__


def test_bad_fields_are_rejected_under_optimize_without_hanging():
    # p <= 0 made draws' rejection loop accept nothing; the check must hold under -O,
    # here with the worked example's own arguments
    code = (
        "import random\n"
        "from affine_crystals import golden\n"
        "from affine_crystals.iso import run_pipeline\n"
        "from affine_crystals.linalg import PRIME, rank\n"
        "from affine_crystals.quiver import (check_moment, commutant_basis, draws,\n"
        "    generic_kernel_table, is_stable, kernel_table_at, sample_in_commutant,\n"
        "    wall_graded_map)\n"
        "from affine_crystals.walls import make_walls\n"
        "x = wall_graded_map(make_walls('P1', golden.N, **golden.WALLS_P1))\n"
        "basis = commutant_basis(x)\n"
        "xbar = sample_in_commutant(x, basis, random.Random(0), PRIME)\n"
        "calls = [lambda p: run_pipeline(golden.LAM, golden.WORD, p=p),\n"
        "         lambda p: generic_kernel_table(x, basis, 0, p),\n"
        "         lambda p: sample_in_commutant(x, basis, random.Random(0), p),\n"
        "         lambda p: draws(random.Random(0), 3, p),\n"
        "         lambda p: kernel_table_at(x, xbar, p),\n"
        "         lambda p: check_moment(x, xbar, p),\n"
        "         lambda p: is_stable(x, xbar, golden.LAM, p),\n"
        "         lambda p: rank([[1, 2], [3, 4]], p)]\n"
        f"for p in {BAD_FIELDS!r}:\n"
        "    for call in calls:\n"
        "        try:\n"
        "            call(p)\n"
        "        except ValueError as err:\n"
        "            print('ValueError', len(str(err).splitlines()))\n"
        "        else:\n"
        "            print('accepted', p)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError 1"] * (8 * len(BAD_FIELDS))


def test_kernel_table_zero_xbar():
    x = wall_graded_map(WP1)
    kt = kernel_table_at(x, gm_zero(x.dims, -1), PRIME)
    assert kt.xbar_pow == (zero_root(N), golden.ALPHA)
    assert kt.xy_pow == (zero_root(N), golden.ALPHA)


def test_kernel_spans_equal_column_contents():
    # ker x^t counts exactly the blocks in columns < t, over random tuples
    rng = random.Random(21)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        word = random_word(lam, rng.randint(1, 10), rng)
        p, steps = lowering_steps(lam, "B1", word)
        alpha = root([sum(m for i, m in word if i % (n + 1) == c) for c in range(n + 1)])
        walls = path_to_walls(p, steps, alpha)
        x = wall_graded_map(walls)
        acc = zero_root(n)
        ker = x.index.power_kernels
        assert len(ker) == walls.n_cols() + 1
        for t in range(1, walls.n_cols() + 2):
            acc = acc + column_content(walls, t - 1)
            assert ker[min(t, len(ker) - 1)] == acc
        checked += 1


def test_xy_and_yx_kernels_agree_at_commuting_points():
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    for seed in (0, 1):
        xbar = sample_in_commutant(x, basis, random.Random(seed), PRIME)
        xy = gm_compose(x.dense(), xbar, PRIME)
        yx = gm_compose(xbar, x.dense(), PRIME)
        cur_a, cur_b = xy, yx
        for _ in range(4):
            assert _kernel_dims(cur_a, PRIME) == _kernel_dims(cur_b, PRIME)
            cur_a = gm_compose(cur_a, xy, PRIME)
            cur_b = gm_compose(cur_b, yx, PRIME)


@FIELDS
def test_kernel_table_matches_dense_oracle_on_random_wall_maps(p):
    for x in _random_wall_maps(64):
        basis = commutant_basis(x)
        for s in (0, 1, 2):
            xbar = sample_in_commutant(x, basis, random.Random(s), p)
            assert kernel_table_at(x, xbar, p) == _oracle_table(x.dense(), xbar, p)


@FIELDS
def test_kernel_table_matches_dense_oracle_at_special_points(p):
    # zero xbar, one basis support, and half of the supports switched off
    hi = p if p is not None else 10**6
    for x in [wall_graded_map(WP1)] + _random_wall_maps(24):
        basis = commutant_basis(x)
        rng = random.Random(len(basis))
        picks = [[], basis[:1], basis[-1:], [b for b in basis if rng.random() < 0.5]]
        for chosen in picks:
            blocks = zero_blocks(x.dims, -x.shift)
            for cells in chosen:
                co = rng.randrange(1, hi)
                for t, r, c in cells:
                    blocks[t][r][c] = co
            xbar = gm_from_blocks(x.dims, -x.shift, blocks)
            assert kernel_table_at(x, xbar, p) == _oracle_table(x.dense(), xbar, p)


def test_kernel_table_matches_dense_oracle_mid_size_exact():
    lam = weight([1, 1, 0])
    word = random_word(lam, 60, random.Random(3))
    alpha = root([sum(m for i, m in word if i == c) for c in range(3)])
    x = wall_graded_map(path_to_walls(*lowering_steps(lam, "B1", word), alpha))
    xbar = sample_in_commutant(x, commutant_basis(x), random.Random(0), None)
    assert sum(x.dims) >= 40
    assert kernel_table_at(x, xbar, None) == _oracle_table(x.dense(), xbar, None)


@st.composite
def commuting_points(draw):
    """A wall map of a random word (n <= 3, level <= 3, <= 20 letters) and a sampled xbar."""
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_dominant(n, draw(st.integers(1, 3)), rng)
    word = random_word(lam, draw(st.integers(0, 20)), rng)
    kind = draw(st.sampled_from(["P1", "Pn"]))
    alpha = root([sum(m for i, m in word if i == c) for c in range(n + 1)])
    path, steps = lowering_steps(lam, "B1" if kind == "P1" else "Bn", word)
    x = wall_graded_map(path_to_walls(path, steps, alpha))
    p = draw(st.sampled_from([PRIME, None]))
    basis = commutant_basis(x)
    return x, sample_in_commutant(x, basis, rng, p), p


@settings(max_examples=300)
@given(commuting_points())
def test_kernel_table_matches_dense_oracle_property(point):
    x, xbar, p = point
    kt = kernel_table_at(x, xbar, p)
    assert kt == _oracle_table(x.dense(), xbar, p)
    # every sequence strictly increases to alpha, so table equality is agreement
    for seq in quiver.SEQS:
        rows = getattr(kt, seq)
        assert rows[-1] == kt.alpha
        assert all(a <= b and a != b for a, b in zip(rows, rows[1:]))


@settings(max_examples=200)
@given(commuting_points(), st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=3))
def test_table_min_agreement_is_row_equality(point, draws):
    # the first table at the drawn point, the others at random or half-sparse
    # points of the same commutant, so that some disagree with the minimum
    x, xbar, p = point
    basis = commutant_basis(x)
    xbars = [xbar]
    for seed, sparse in draws:
        rng = random.Random(seed)
        xbars.append(sample_in_commutant(x, [b for b in basis if not sparse or rng.random() < 0.5],
                                         rng, p))
    tables = [kernel_table_at(x, xb, p) for xb in xbars]
    lower = quiver._table_min(tables)
    for seq in quiver.SEQS:
        rows = getattr(lower, seq)
        assert len(rows) == 1 or rows[-1] != rows[-2]
    assert [t == lower for t in tables] == [_table_rows_eq(t, lower) for t in tables]


@FIELDS
def test_stalled_filtration_names_its_sequence(p):
    # x = 0 commutes with the cyclic xbar, which is invertible: ker xbar^k stays 0
    dims = (1, 1, 1)
    xbar = gm_from_blocks(dims, -1, [[[1]], [[1]], [[1]]])
    with pytest.raises(GenericityError, match=r"^kernel filtration ker xbar\^k stabilized "
                       r"at 0 below alpha = 1a0\+1a1\+1a2$"):
        kernel_table_at(zero_wall_map(dims, 1), xbar, p)
    with pytest.raises(GenericityError):
        _oracle_table(gm_zero(dims, 1), xbar, p)


def test_stability():
    # the worked example's generic K = ker x ∩ ker xbar has dimension (2, 1, 0),
    # exactly LAM: stable at LAM, and not when one framing space is one smaller
    x = wall_graded_map(WP1)
    basis = commutant_basis(x)
    for seed, p in itertools.product((0, 1, 2), (PRIME, None)):
        xbar = sample_in_commutant(x, basis, random.Random(seed), p)
        assert is_stable(x, xbar, LAM, p)
        assert not is_stable(x, xbar, weight((1, 1, 0)), p)
        assert not is_stable(x, xbar, weight((2, 0, 0)), p)


def test_stability_fails_without_framing():
    # dim K_0 = 1 at x = xbar = 0 on V_0 = k: stable exactly when W_0 is not 0,
    # which pins dim K_0 <= <h_0, lam> against <
    z, zbar = zero_wall_map((1, 0, 0), 1), gm_zero((1, 0, 0), -1)
    for lam, stable in (((1, 0, 0), True), ((2, 1, 0), True),
                        ((0, 1, 1), False), ((0, 0, 0), False)):
        assert is_stable(z, zbar, weight(lam), PRIME) is stable
        assert stacked_rank_is_stable(z.dense(), zbar, weight(lam), PRIME) is stable
    # alpha = 0 is vacuously stable, even with no framing at all
    assert is_stable(zero_wall_map((0, 0, 0), 1), gm_zero((0, 0, 0), -1), weight((0, 0, 0)))


@FIELDS
def test_stability_ranks_xbar_over_its_field(p):
    # an xbar entry PRIME (V_0 -> V_2) is 0 over F_p: there K_0 = V_0 needs W_0,
    # while over Q xbar is injective on V_0 and K_0 = 0
    x = zero_wall_map((1, 0, 1), 1)
    blocks = zero_blocks(x.dims, -1)
    blocks[2][0][0] = PRIME
    xbar = gm_from_blocks(x.dims, -1, blocks)
    lam = weight((0, 0, 1))
    assert is_stable(x, xbar, lam, p) is (p is None)
    assert stacked_rank_is_stable(x.dense(), xbar, lam, p) is (p is None)
    assert is_stable(x, xbar, weight((1, 0, 1)), p)


def _power_columns(x, xbar, k, p):
    """The columns of xbar^k at the string starts, as (component, column), from dense powers."""
    power = gm_from_blocks(x.dims, 0, [[[int(r == c) for c in range(n)] for r in range(n)]
                                       for n in x.dims])
    for _ in range(k):
        power = gm_compose(xbar, power, p)
    return [((i + power.shift) % x.m, [row[a] for row in power.block_out(i)])
            for (i, a), *_ in x.strings]


@FIELDS
def test_kernel_table_generators_are_columns_of_the_powers(monkeypatch, p):
    # each power k = 0..last runs one module echelon on actual columns of
    # xbar^k at string starts, in string order (so no reduction's growth over Q
    # passes to the next power): xbar times the columns the echelon kept, bar
    # zero ones; a dropped column is in the module of those before it, which
    # the table's agreement with the dense oracle checks
    log = _logging_echelon(monkeypatch)
    redundant = zero = 0
    for seed, (_, walls) in enumerate(_long_wall_tuples(12, seed=31)):
        x = wall_graded_map(walls)
        xbar = sample_in_commutant(x, commutant_basis(x), random.Random(seed), p)
        log.clear()
        kt = kernel_table_at(x, xbar, p)
        assert kt == _oracle_table(x.dense(), xbar, p)
        last = max(len(kt.xbar_pow) - 1, len(kt.xy_pow) - 1, len(kt.yxy_pow))
        assert len(log) == max(last, 1) + 1
        for k, (gens, lead, needed) in enumerate(log):
            columns = iter(_power_columns(x, xbar, k, p))
            assert all(gen in columns for gen in gens)  # a subsequence, in string order
            assert len(lead) <= len(gens) and all(gen in gens for gen in needed)
            redundant += len(gens) - len(needed)
        for (_, _, needed), (gens, _, _) in zip(log, log[1:]):
            images = []
            for i, u in needed:
                image = [sum(v * w for v, w in zip(row, u)) for row in xbar.block_out(i)]
                images.append(((i + xbar.shift) % x.m, [v % p for v in image] if p else image))
            assert gens == [(i, u) for i, u in images if any(u)]
            zero += len(needed) - len(gens)
    assert redundant and zero


@FIELDS
def test_kernel_table_runs_one_elimination_per_power_and_component(monkeypatch, p):
    # the xbar chain is the only chain: one module echelon per power covers
    # every component at once, where a second (alternating) chain or one
    # elimination per component would need more; it keeps at most one
    # generator per string
    log = _logging_echelon(monkeypatch)
    x = wall_graded_map(WP1)
    xbar = sample_in_commutant(x, commutant_basis(x), random.Random(0), p)
    kt = kernel_table_at(x, xbar, p)
    last = max(len(kt.xbar_pow) - 1, len(kt.xy_pow) - 1, len(kt.yxy_pow))
    assert len(log) == max(last, 1) + 1 <= x.m * len(kt.xbar_pow)
    assert all(len(lead) <= len(gens) <= len(x.strings) for gens, lead, _ in log)
    assert kt == _oracle_table(x.dense(), xbar, p)


@FIELDS
def test_kernel_table_skips_components_whose_rows_are_gone(monkeypatch, p):
    # once xbar^k is 0 on a generator's column, the next power gets no
    # generator for it: no echelon sees a zero vector, each power gets at most
    # the generators of the last, and the zero images are never reduced
    log = _logging_echelon(monkeypatch)
    skipped = 0
    for seed, (_, walls) in enumerate(_long_wall_tuples(12, seed=31)):
        x = wall_graded_map(walls)
        xbar = sample_in_commutant(x, commutant_basis(x), random.Random(seed), p)
        log.clear()
        kt = kernel_table_at(x, xbar, p)
        assert kt == _oracle_table(x.dense(), xbar, p)
        assert all(any(u) for gens, _, _ in log for _, u in gens)
        counts = [len(gens) for gens, _, _ in log]
        assert counts == sorted(counts, reverse=True) and counts[0] == len(x.strings)
        skipped += sum(len(needed) - len(gens)
                       for (_, _, needed), (gens, _, _) in zip(log, log[1:]))
    assert skipped > 0


@FIELDS
def test_kernel_table_matches_dense_oracle_on_long_wall_tuples(p):
    # P1 and Pn maps of 20-60 letter words, where strings run long and the
    # echelon swaps and drops generators
    for seed, (_, walls) in enumerate(_long_wall_tuples(40, seed=5)):
        x = wall_graded_map(walls)
        xbar = sample_in_commutant(x, commutant_basis(x), random.Random(seed), p)
        assert kernel_table_at(x, xbar, p) == _oracle_table(x.dense(), xbar, p)


@FIELDS
@pytest.mark.parametrize("shift", [1, -1])
def test_kernel_table_of_the_empty_map(p, shift):
    x, zero = zero_wall_map((0, 0, 0), shift), zero_root(N)
    kt = kernel_table_at(x, gm_zero(x.dims, -shift), p)
    assert kt == _oracle_table(x.dense(), gm_zero(x.dims, -shift), p)
    assert kt == KernelTable(zero, (zero,), (zero,), (zero,), (zero,))


@FIELDS
@pytest.mark.parametrize("length", [1, 2, 3])
def test_non_nilpotent_partner_stalls_ker_xbar(p, length):
    # three strings of one length starting at colours 0, 1, 2: the sum of the
    # full shifts between them cycles them, so ker xbar^k stays 0, as it did
    # for the row chain; one or two of the shifts are nilpotent and give the
    # dense oracle's table
    seen, strings = [0, 0, 0], []
    for start in range(3):
        string = []
        for c in [(start + d) % 3 for d in range(length)]:
            string.append((c, seen[c]))
            seen[c] += 1
        strings.append(tuple(string))
    x = WallMap(1, tuple(seen), tuple(strings))
    full = [cells for cells in commutant_basis(x) if len(cells) == length]
    assert len(full) == 3
    for chosen in (full, full[:1], full[:2]):
        blocks = zero_blocks(x.dims, -1)
        for co, cells in enumerate(chosen, 1):
            for t, r, c in cells:
                blocks[t][r][c] = co
        xbar = gm_from_blocks(x.dims, -1, blocks)
        if len(chosen) == 3:
            with pytest.raises(GenericityError, match=rf"^kernel filtration ker xbar\^k stabilized "
                               rf"at 0 below alpha = {length}a0\+{length}a1\+{length}a2$"):
                kernel_table_at(x, xbar, p)
        else:
            assert kernel_table_at(x, xbar, p) == _oracle_table(x.dense(), xbar, p)


@st.composite
def framed_points(draw):
    """A commuting point, its xbar sampled or zero, and a framing weight with entries in 0..2."""
    x, xbar, p = draw(commuting_points())
    if draw(st.booleans()):
        xbar = gm_zero(x.dims, xbar.shift)
    return x, xbar, weight(draw(st.lists(st.integers(0, 2), min_size=x.m, max_size=x.m))), p


def test_is_stable_matches_stacked_rank_oracle():
    seen = Counter()

    @settings(max_examples=300)
    @given(framed_points())
    def check(point):
        x, xbar, lam, p = point
        stable = is_stable(x, xbar, lam, p)
        assert stable == stacked_rank_is_stable(x.dense(), xbar, lam, p)
        seen[stable] += 1

    check()
    assert seen[True] and seen[False], seen
