import random

import pytest
from hypothesis import given, settings, strategies as st

from affine_crystals import golden
from affine_crystals.cartan import RootVec, cl_root, decompose, root, rotate, weight, zero_root
from affine_crystals.paths import from_word, ground_elem, ground_path, lowering_steps
from affine_crystals.suites import random_dominant, random_word
from affine_crystals.walls import (
    WALL_KIND,
    WALL_KINDS,
    InversionError,
    _fits,
    block_color,
    column_content,
    make_walls,
    path_to_walls,
    strip_column0,
    total_content,
    validate,
    walls_to_json,
    walls_to_path,
)
from oracles import raising_steps as oracle_raising_steps

N, LAM = golden.N, golden.LAM
WP1 = make_walls("P1", N, **golden.WALLS_P1)
WPN = make_walls("Pn", N, **golden.WALLS_PN)


def _search_path_to_walls(path, alpha):
    """Oracle: every column-height vector that fits the path and alpha.

    Each column's color content is pinned by the path factor only up to
    multiples of (1,..,1); the exact total alpha, the stacking and
    interlacing bands and final reducedness cut the candidates down, and the
    unique survivor is returned.  Exponential; small cases only.
    """
    n, lam, pkind = path.n, path.lam, path.kind
    kind = WALL_KIND[pkind]
    m = n + 1
    charges = decompose(lam)
    ell = len(charges)
    top = len(path.devs) + n + 1
    targets = [
        ground_elem(lam, pkind, j).wt() - path.factor(j).wt() for j in range(top + 1)
    ]

    solutions = []
    chosen = []  # heights for columns top, top-1, ...

    def column_candidates(j, prev, remaining):
        found = []
        picks = []

        def per_wall(w, counts):
            if w == ell:
                if walls_cyclic_ok(picks):
                    content = RootVec(tuple(counts))
                    if cl_root(content) == targets[j]:
                        found.append((tuple(picks), content))
                return
            lo = prev[w]
            if w > 0:
                d = charges[w] - charges[w - 1]
                if kind == "P1":
                    lo = max(lo, picks[w - 1] - d)
            cur = list(counts)
            feasible = True
            for row in range(1, lo + 1):
                c = block_color(n, kind, charges[w], row, j)
                cur[c] += 1
                if cur[c] > remaining.k[c]:
                    feasible = False
                    break
            h = lo
            while feasible:
                if kind == "Pn" and w > 0 and h > picks[w - 1] + charges[w] - charges[w - 1]:
                    break
                picks.append(h)
                per_wall(w + 1, cur)
                picks.pop()
                c = block_color(n, kind, charges[w], h + 1, j)
                if cur[c] >= remaining.k[c]:
                    break
                cur = list(cur)
                cur[c] += 1
                h += 1

        def walls_cyclic_ok(hs):
            if kind == "P1":
                return hs[-1] <= hs[0] + charges[0] - charges[-1] + n + 1
            return hs[-1] >= hs[0] + charges[-1] - charges[0] - n - 1

        per_wall(0, [0] * m)
        return found

    def over_columns(j, prev, remaining):
        if j < 0:
            if remaining.is_zero():
                solutions.append(tuple(
                    tuple(chosen[top - jj][w] for jj in range(top + 1)) for w in range(ell)
                ))
            return
        for picks, content in column_candidates(j, prev, remaining):
            chosen.append(picks)
            over_columns(j - 1, picks, remaining - content)
            chosen.pop()

    over_columns(top, (0,) * ell, alpha)
    survivors = []
    for heights in solutions:
        cand = make_walls(kind, n, charges, heights)
        if validate(cand)[0] and walls_to_path(cand) == path:
            survivors.append(cand)
    assert len(survivors) == 1, f"search found {len(survivors)} tuples for {path}"
    return survivors[0]


def _alpha(n, word):
    return root([sum(m for i, m in word if i == c) for c in range(n + 1)])


def test_block_colors():
    assert block_color(2, "P1", 0, 1, 1) == 2
    assert block_color(2, "Pn", 1, 1, 4) == 2
    for k in range(3):
        assert block_color(2, "P1", k, 1, 0) == k
        assert block_color(2, "Pn", k, 1, 0) == k


def test_validate_example_tuples():
    assert validate(WP1) == (True, "ok")
    assert validate(WPN) == (True, "ok")


def test_validate_interlacing_failure():
    swapped = make_walls("P1", N, (0, 0, 1), ((3, 1, 1), (2, 1, 1), (3, 3, 1, 1)))
    ok, msg = validate(swapped)
    assert not ok and "interlacing" in msg


def test_validate_stacking_failure():
    bad = make_walls("P1", N, (0,), ((1, 2),))
    ok, msg = validate(bad)
    assert not ok and "free space" in msg


def test_validate_reducedness_failure():
    # a single full-height delta column is exactly the redundancy reducedness kills
    bad = make_walls("P1", 1, (0,), ((2,),))
    ok, msg = validate(bad)
    assert not ok and "reduced" in msg


def test_column_contents():
    assert column_content(WP1, 0) == root((3, 3, 2))
    assert column_content(WP1, 3) == root((0, 1, 0))
    assert column_content(make_walls("P1", N, (0,), ((),)), 5) == zero_root(N)
    assert total_content(WP1) == golden.ALPHA == total_content(WPN)
    assert column_content(WPN, 0) == root((3, 3, 3))


@pytest.mark.parametrize("n, charges", [(2, (-1, 0)), (2, (0, 3)), (2, (1, 0)), (0, (0,))])
def test_make_walls_rejects_charges_outside_the_weight(n, charges):
    # ascending charges in 0..n for n >= 1 name a dominant weight of A_n^(1)
    with pytest.raises(ValueError):
        make_walls("P1", n, charges, [()] * len(charges))


def test_path_to_walls_rejects_an_adjoint_path():
    with pytest.raises(ValueError, match="Ad paths have no wall tuple"):
        path_to_walls(from_word(LAM, "Ad", golden.WORD), [], golden.ALPHA)


def test_wall_lambda():
    assert WP1.lam == WPN.lam == LAM
    assert make_walls("Pn", 3, (0, 2, 2), ((), (), ())).lam == weight((1, 0, 2, 0))


def test_walls_to_path_matches_direct():
    assert walls_to_path(WP1) == from_word(LAM, "B1", golden.WORD)
    assert walls_to_path(WPN) == from_word(LAM, "Bn", golden.WORD)
    assert walls_to_path(make_walls("P1", N, (0, 0, 1), ((), (), ()))) == ground_path(LAM, "B1")


def test_inversion_on_example():
    for kind, walls in (("P1", WP1), ("Pn", WPN)):
        p, steps = lowering_steps(LAM, "B1" if kind == "P1" else "Bn", golden.WORD)
        assert path_to_walls(p, steps, golden.ALPHA) == walls


def test_inversion_of_ground_path():
    walls = path_to_walls(ground_path(LAM, "B1"), [], zero_root(N))
    assert walls.block_count() == 0


def test_inversion_rejects_wrong_alpha():
    p1, steps = lowering_steps(LAM, "B1", golden.WORD)
    with pytest.raises(InversionError):
        path_to_walls(p1, steps, root((4, 7, 3)))


@pytest.mark.parametrize("kind", ["P1", "Pn"])
def test_inversion_roundtrip_random(kind):
    rng = random.Random(11 if kind == "P1" else 12)
    pkind = "B1" if kind == "P1" else "Bn"
    for _ in range(64):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        word = random_word(lam, rng.randint(0, 12), rng, kind=pkind)
        p, steps = lowering_steps(lam, pkind, word)
        alpha = _alpha(n, word)
        walls = path_to_walls(p, steps, alpha)
        assert validate(walls) == (True, "ok")
        assert total_content(walls) == alpha
        assert walls_to_path(walls) == p
        assert walls == _search_path_to_walls(p, alpha)


@pytest.mark.parametrize("kind", ["P1", "Pn"])
def test_long_words_roundtrip(kind):
    # beyond the oracle's reach: words of length 40-60 on level-6 weights
    rng = random.Random(41 if kind == "P1" else 42)
    pkind = "B1" if kind == "P1" else "Bn"
    weights = [weight(c) for c in ((3, 2, 1), (2, 2, 2), (2, 1, 1, 1))]
    for t in range(20):
        lam = weights[t % 3]
        n = lam.n
        word = random_word(lam, rng.randint(40, 60), rng, kind=pkind)
        p, steps = lowering_steps(lam, pkind, word)
        alpha = _alpha(n, word)
        walls = path_to_walls(p, steps, alpha)
        assert validate(walls) == (True, "ok")
        assert total_content(walls) == alpha
        assert walls_to_path(walls) == p
        assert walls.block_count() == len(word)


def test_wall_operator_transport():
    # lowering in the path model keeps producing invertible valid tuples
    rng = random.Random(5)
    lam = LAM
    p = ground_path(lam, "B1")
    alpha = zero_root(N)
    word = ()
    for _ in range(12):
        options = [i for i in range(3) if p.phi(i) > 0]
        i = rng.choice(options)
        word = ((i, 1),) + word  # the new letter acts last
        q, steps = lowering_steps(lam, "B1", word)
        assert q == p.f(i)
        p = q
        alpha = alpha + root(tuple(int(c == i) for c in range(3)))
        walls = path_to_walls(p, steps, alpha)
        assert walls_to_path(walls) == p


def test_strip_column0_example():
    rest, beta = strip_column0(WP1)
    assert beta == root((3, 3, 2))
    assert rest.charges == (0, 2, 2)
    assert rest.lam == rotate(LAM, 1)
    restn, gamma = strip_column0(WPN)
    assert gamma == root((3, 3, 3))
    assert restn.charges == (1, 1, 2)
    assert restn.lam == rotate(LAM, -1)


def test_strip_column0_empty():
    empty = make_walls("P1", N, (0, 0, 1), ((), (), ()))
    rest, beta = strip_column0(empty)
    assert beta == zero_root(N) and rest.block_count() == 0


def test_strip_terminates():
    walls = WP1
    steps = 0
    while walls.block_count():
        walls, _ = strip_column0(walls)
        steps += 1
    assert steps <= WP1.n_cols()


def _grown(heights, w, pos):
    """A copy of heights with one more block on wall w at column pos."""
    out = [list(h) for h in heights]
    out[w] += [0] * (pos + 1 - len(out[w]))
    out[w][pos] += 1
    return out


@pytest.mark.parametrize("kind", WALL_KINDS)
@given(n=st.integers(1, 4), ell=st.integers(1, 5), rng=st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_fits_equals_validate_of_the_grown_tuple(kind, n, ell, rng):
    # grow a random valid tuple from the empty one; at every state, the local
    # test of each wall at each column up to len + 1 agrees with the full one
    charges = sorted(rng.randint(0, n) for _ in range(ell))
    heights = [[] for _ in charges]
    for _ in range(rng.randint(1, 30)):
        fitting = []
        for w, h in enumerate(heights):
            for pos in range(len(h) + 2):
                want = validate(make_walls(kind, n, charges, _grown(heights, w, pos)))[0]
                before = [list(x) for x in heights]
                assert _fits(n, kind, charges, heights, w, pos) == want, (heights, w, pos)
                assert heights == before  # restored in place
                if want:
                    fitting.append((w, pos))
        if not fitting:
            break
        heights = _grown(heights, *rng.choice(fitting))


def test_json_roundtrip():
    # the writer half: nothing reads wall JSON back
    assert walls_to_json(WP1) == {"schema": "v1", "kind": "P1", "charges": list(WP1.charges),
                                  "heights": [list(h) for h in WP1.heights]}
    assert walls_to_json(WPN)["kind"] == "Pn"


def _all_small_tuples(n, charges, kind, max_cols, max_h):
    import itertools

    def wall_options():
        opts = [()]
        for cols in range(1, max_cols + 1):
            for hs in itertools.product(range(1, max_h + 1), repeat=cols):
                if all(hs[j] >= hs[j + 1] for j in range(cols - 1)):
                    opts.append(hs)
        return opts

    opts = wall_options()
    for combo in itertools.product(opts, repeat=len(charges)):
        cand = make_walls(kind, n, charges, combo)
        if validate(cand)[0]:
            yield cand


def test_f_map_injective_small_enumeration():
    # every valid tuple in a bounded box maps to a distinct path
    seen = {}
    for cand in _all_small_tuples(2, (0, 1), "P1", max_cols=3, max_h=3):
        p = walls_to_path(cand)
        assert p not in seen, f"{cand} and {seen[p]} collide"
        seen[p] = cand
    assert len(seen) > 50  # the box is not trivially small


@pytest.mark.parametrize("kind,lam_coeffs,n", [
    ("P1", (2, 1, 0), 2), ("Pn", (2, 1, 0), 2),
    ("P1", (1, 1), 1), ("Pn", (0, 1, 0, 1), 3),
])
def test_every_ball_element_has_walls(kind, lam_coeffs, n):
    # wall-model completeness: each element of the depth-5 ball inverts along
    # the mirror of its raising word, and the block count is the raising distance
    from affine_crystals.crystal_core import generate_graph
    from affine_crystals.paths import ground_path

    lam = weight(lam_coeffs)
    pkind = "B1" if kind == "P1" else "Bn"
    g = generate_graph(ground_path(lam, pkind), max_nodes=10**6, max_depth=5)
    assert g.complete
    for p in g.nodes:
        word = [i for i, _ in oracle_raising_steps(p)]
        alpha = root([word.count(c) for c in range(n + 1)])
        lowered, steps = lowering_steps(lam, pkind, [(i, 1) for i in word])
        assert lowered == p
        walls = path_to_walls(p, steps, alpha)
        assert walls.block_count() == len(word)
        assert walls_to_path(walls) == p
        assert walls == _search_path_to_walls(p, alpha)


def test_inversion_guards_hold_under_optimize():
    import subprocess
    import sys

    code = (
        "from affine_crystals import golden\n"
        "from affine_crystals.cartan import root\n"
        "from affine_crystals.paths import lowering_steps, parse_word\n"
        "from affine_crystals.walls import InversionError, make_walls, path_to_walls, "
        "strip_column0\n"
        "lam, n = golden.LAM, golden.N\n"
        "p1, steps = lowering_steps(lam, 'B1', golden.WORD)\n"
        "_, other = lowering_steps(lam, 'B1', parse_word('2 1^4 2^4 1^2 0^4 2 1'))\n"
        "cases = [\n"
        "    lambda: path_to_walls(p1, steps, root((4, 7, 3))),\n"
        "    lambda: make_walls('P1', n, (-1, 0), ((1,), ())),  # charge below 0\n"
        "    lambda: make_walls('P1', n, (0, 3), ((1,), ())),  # charge above n = 2\n"
        "    lambda: strip_column0(make_walls('P1', n, (0,), ((2, 1, 2),))),\n"
        "    lambda: path_to_walls(p1, other, golden.ALPHA),  # same content\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
        "    except (InversionError, ValueError) as err:\n"
        "        print(type(err).__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["InversionError", "ValueError", "ValueError",
                                   "InversionError", "InversionError"]
