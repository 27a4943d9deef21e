import hashlib
import json
import random
from itertools import count

import pytest
from affine_crystals import golden, iso, paths, quiver
from affine_crystals.cartan import cl_root, pairing, root, rotate, weight, zero_root
from affine_crystals.iso import (
    _compare,
    adj_path_from_kernels,
    b1_path_from_kernels,
    bn_path_from_kernels,
    peel_adj,
    peel_column0,
    report_to_json,
    run_pipeline,
)
from affine_crystals.linalg import PRIME, rank
from affine_crystals.paths import from_word, ground_path, lowering_steps, parse_word, word_alpha
from affine_crystals.perfect import B1Elem, BnElem, ground_b1, ground_bn
from affine_crystals.quiver import (KernelTable, commutant_basis, generic_kernel_table,
                                    kernel_table_at, sample_in_commutant, wall_graded_map)
from affine_crystals.suites import random_dominant, random_word, reference_table, suite_example
from affine_crystals.walls import (PATH_KIND, column_content, make_walls, path_to_walls,
                                   strip_column0, walls_to_path)
from oracles import (_oracle_table, changed_positions, gm_zero, profiled_calls,
                     raising_steps as oracle_raising_steps, restrict_to_hyperplane)

N, LAM = golden.N, golden.LAM
WP1 = make_walls("P1", N, **golden.WALLS_P1)
WPN = make_walls("Pn", N, **golden.WALLS_PN)


def test_reconstructions_from_frozen_table():
    ref = reference_table()
    assert b1_path_from_kernels(ref, LAM) == from_word(LAM, "B1", golden.WORD)
    assert bn_path_from_kernels(ref, LAM) == from_word(LAM, "Bn", golden.WORD)
    assert adj_path_from_kernels(ref, LAM) == from_word(LAM, "Ad", golden.WORD)


def test_adjoint_intermediate_weights():
    # position-1 factor weights read off the frozen table
    ref = reference_table()
    box = ground_b1(rotate(LAM, -1), 0).wt() - cl_root(ref.at("xy_pow", 2) - ref.at("yxy_pow", 1))
    bar = ground_bn(LAM, 0).wt() - cl_root(ref.at("yxy_pow", 1) - ref.at("xy_pow", 1))
    assert box == weight((-1, 2, -1))
    assert bar == weight((3, -3, 0))


def test_rotated_ground_render():
    assert ground_b1(rotate(LAM, -1), 0).render() == "[1,1,2]"  # 2L1 + L2 in the row model


def test_zero_table_gives_ground_paths():
    from affine_crystals.cartan import zero_root

    zero = zero_root(N)
    kt = KernelTable(zero, (zero,), (zero,), (zero,), (zero,))
    assert b1_path_from_kernels(kt, LAM) == ground_path(LAM, "B1")
    assert adj_path_from_kernels(kt, LAM) == ground_path(LAM, "Ad")


def test_peel_p1_matches_path_factor():
    rest, elem = peel_column0(WP1)
    assert elem == B1Elem((1, 1, 1))
    assert elem == walls_to_path(WP1).factor(0)
    assert rest.charges == (0, 2, 2)


def test_peel_pn_matches_path_factor():
    rest, elem = peel_column0(WPN)
    assert elem == BnElem((2, 1, 0))
    assert elem == walls_to_path(WPN).factor(0)
    assert rest.charges == (1, 1, 2)


def test_peel_on_empty_walls():
    empty = make_walls("P1", N, (0, 0, 1), ((), (), ()))
    rest, elem = peel_column0(empty)
    assert rest.block_count() == 0
    assert elem == ground_b1(LAM, 0)


def test_peel_adj_twice():
    # three peels of the worked word emit positions 0, 1 and 2 of its Ad path;
    # each rest word runs the pipeline, whose geometric Ad factor 0 is the next one
    pad = from_word(LAM, "Ad", golden.WORD)
    assert peel_adj(LAM, golden.WORD)[1] == adj_path_from_kernels(reference_table(), LAM).factor(0)
    word = golden.WORD
    for k in range(3):
        rest, fac = peel_adj(LAM, word)
        assert fac == pad.factor(k)
        rep = run_pipeline(LAM, rest, seed=3)
        assert rep.ok, rep.first_mismatch()
        assert rep.geometric["Ad"].factor(0) == pad.factor(k + 1)
        word = rest


def test_peel_adj_splits_the_lowering_steps():
    # 200 words (n <= 5, level <= 6, 0-60 letters, walks in B1 and Bn), each
    # peeled three times in a row: the rest word lowers to the Ad path shifted
    # by one position, along exactly the parent's steps at positions >= 1,
    # and its B1 path is the one the raising oracle reaches from that path
    rng = random.Random(16)
    for case in range(200):
        n = rng.randint(1, 5)
        lam = random_dominant(n, rng.randint(1, 6), rng)
        word = random_word(lam, rng.randint(0, 60), rng, kind=("B1", "Bn")[case % 2])
        for _ in range(3):
            path, steps = lowering_steps(lam, "Ad", word)
            rest, fac = peel_adj(lam, word)
            assert fac == path.factor(0)
            shifted = paths.Path(lam, "Ad", path.devs[1:])
            rest_path, rest_steps = lowering_steps(lam, "Ad", rest)
            assert rest_path == shifted, (lam, word)
            assert rest_steps == [(i, pos - 1) for i, pos in steps if pos]
            mirror = [(i, 1) for i, _ in oracle_raising_steps(shifted)]
            assert from_word(lam, "B1", rest) == from_word(lam, "B1", mirror)
            word = rest


@pytest.mark.parametrize("kind", ["P1", "Pn"])
def test_peel_column0_is_strip_and_factor0(kind):
    # the model, and with it the factor's crystal, comes from the tuple's kind
    pkind = "B1" if kind == "P1" else "Bn"
    golden_walls = WP1 if kind == "P1" else WPN
    tuples = [(N, golden_walls)]
    rng = random.Random(21 if kind == "P1" else 22)
    for _ in range(64):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        word = random_word(lam, rng.randint(0, 12), rng, kind=pkind)
        p, steps = lowering_steps(lam, pkind, word)
        tuples.append((n, path_to_walls(p, steps, root(word_alpha(n, word)))))
    for n, w in tuples:
        expected = (strip_column0(w)[0], walls_to_path(w).factor(0))
        assert peel_column0(w) == expected
        assert type(expected[1]) is (B1Elem if kind == "P1" else BnElem)


def test_pipeline_worked_example():
    rep = run_pipeline(LAM, golden.WORD, seed=5)
    assert rep.ok and rep.stable
    assert rep.commutant_dim == golden.COMMUTANT_DIM
    assert rep.first_mismatch() == ""


def test_pipeline_trivial():
    rep = run_pipeline(weight((1, 0)), (), seed=0)
    assert rep.ok
    assert rep.walls_p1.block_count() == 0


@pytest.mark.parametrize("p", [PRIME, None], ids=["fp", "qq"])
def test_pipeline_draws_one_sample_stream(monkeypatch, p):
    # the kernel table's three agreeing samples are the only draws of a case:
    # the first is the reported xbar, and stability is ranked at each of them
    drawn, real = [], quiver.sample_in_commutant

    def recorded(x, basis, rng, p):
        drawn.append(real(x, basis, rng, p))
        return drawn[-1]

    monkeypatch.setattr(quiver, "sample_in_commutant", recorded)
    rep, calls = profiled_calls(run_pipeline, LAM, golden.WORD, 0, p)
    assert rep.ok and rep.stable
    assert calls["quiver", "sample_in_commutant"] == len(drawn) == 3
    assert calls["quiver", "kernel_table_at"] == calls["quiver", "is_stable"] == 3
    assert rep.xbar is drawn[0]


@pytest.mark.parametrize("p", [PRIME, None], ids=["fp", "qq"])
def test_a_zero_first_draw_is_neither_reported_nor_ranked(monkeypatch, p):
    # the first draw is the zero map, whose table differs from the other two:
    # the minimum table is taken, and the reported xbar and the stability
    # verdict come from the two samples that agree with it
    draws, ranked = count(), []
    real, real_stable = quiver.sample_in_commutant, iso.is_stable

    def first_zero(x, basis, rng, p):
        xbar = real(x, basis, rng, p)
        return gm_zero(x.dims, -x.shift) if next(draws) == 0 else xbar

    def recorded(x, xbar, lam, p):
        ranked.append(xbar)
        return real_stable(x, xbar, lam, p)

    # quiver draws; iso is patched too, so that a draw of its own would be caught
    for module in (quiver, iso):
        monkeypatch.setattr(module, "sample_in_commutant", first_zero, raising=False)
    monkeypatch.setattr(iso, "is_stable", recorded)
    rep = run_pipeline(LAM, golden.WORD, seed=0, p=p)
    assert rep.ok and rep.stable
    assert kernel_table_at(rep.x_p1, rep.xbar, p) == rep.table
    zero = gm_zero(rep.x_p1.dims, -rep.x_p1.shift)
    assert len(ranked) == 2 and zero not in ranked


def test_pipeline_matches_over_random_words():
    # 100 F_p cases with n <= 5, level <= 6 and 20-60 letters: the three
    # realizations agree, and each wall tuple, replayed from the word's own
    # steps, equals the one replayed from the raising oracle's steps
    rng = random.Random(100)
    for _ in range(100):
        n = rng.randint(1, 5)
        lam = random_dominant(n, rng.randint(1, 6), rng)
        word = random_word(lam, rng.randint(20, 60), rng)
        rep = run_pipeline(lam, word, seed=rng.randrange(10**6))
        assert rep.ok, rep.first_mismatch()
        for kind, walls in (("P1", rep.walls_p1), ("Pn", rep.walls_pn)):
            path = rep.direct[PATH_KIND[kind]]
            steps = oracle_raising_steps(path)[::-1]
            assert path_to_walls(path, steps, rep.alpha) == walls


def test_kernel_identities_on_long_words():
    # 30 F_p cases with n <= 5, level <= 6 and 20-60 letters; every third also over Q
    rng = random.Random(30)
    for case in range(30):
        n = rng.randint(1, 5)
        lam = random_dominant(n, rng.randint(1, 6), rng)
        word, seed = random_word(lam, rng.randint(20, 60), rng), rng.randrange(10**6)
        rep = run_pipeline(lam, word, seed=seed)
        assert rep.ok, rep.first_mismatch()
        kt = rep.table
        if case % 3 == 0:
            x = rep.x_p1
            assert generic_kernel_table(x, commutant_basis(x), seed=seed, p=None)[0] == kt
        # A10: ker xbar^t is the content of the first t columns of the Pn tuple
        acc = zero_root(n)
        for t, ker in enumerate(kt.xbar_pow):
            assert ker == acc
            acc = acc + column_content(rep.walls_pn, t)
        # A11: column 0 peels off position 0, and the rest's ker a^k is ker a^(k+1) - ker a
        for kind, walls in (("P1", rep.walls_p1), ("Pn", rep.walls_pn)):
            rest, elem = peel_column0(walls)
            assert elem == rep.direct[PATH_KIND[kind]].factor(0)
            ker = wall_graded_map(walls).index.power_kernels
            ker_rest = wall_graded_map(rest).index.power_kernels
            assert ker_rest == tuple(ker[k + 1] - ker[1] for k in range(len(ker_rest)))
        # peel_adj twice emits positions 0 and 1 of the direct Ad path, and the
        # rest word's kernel table reads position 1 as its own position 0
        rest, fac0 = peel_adj(lam, word)
        _, fac1 = peel_adj(lam, rest)
        assert (fac0, fac1) == (rep.direct["Ad"].factor(0), rep.direct["Ad"].factor(1))
        rest_rep = run_pipeline(lam, rest, seed=seed)
        assert rest_rep.ok, rest_rep.first_mismatch()
        assert rest_rep.geometric["Ad"].factor(0) == fac1


def _geometric_eps(x, xbar, p):
    """dim V_i - rank [x_i | xbar_i], with x_i and xbar_i the blocks of x and xbar into V_i."""
    dense = x.dense()
    return tuple(n - rank([a + b for a, b in zip(dense.blocks[i], xbar.blocks[i])], p)
                 for i, n in enumerate(x.dims))


@pytest.mark.parametrize("p, cases", [(PRIME, 80), (None, 16)], ids=["fp", "qq"])
def test_geometric_eps_matches_the_direct_paths(p, cases):
    # at the pipeline's points (the P1 wall map and samples in its commutant),
    # eps_i is the codimension in V_i of the images of its two neighbours:
    # the minimum over 3 samples, 2 of which agree with it.  n <= 5, level
    # <= 6 and 0-60 letters, as in test_pipeline_matches_over_random_words
    rng = random.Random(4)
    for _ in range(cases):
        n = rng.randint(1, 5)
        lam = random_dominant(n, rng.randint(1, 6), rng)
        word = random_word(lam, rng.randint(0, 60), rng)
        alpha = root(word_alpha(n, word))
        x = wall_graded_map(path_to_walls(*lowering_steps(lam, "B1", word), alpha))
        basis, draws = commutant_basis(x), random.Random(rng.randrange(10**6))
        samples = [_geometric_eps(x, sample_in_commutant(x, basis, draws, p), p)
                   for _ in range(3)]
        eps = tuple(map(min, zip(*samples)))
        assert samples.count(eps) >= 2, samples
        wt = lam - cl_root(alpha)
        for kind in ("B1", "Bn", "Ad"):
            path = from_word(lam, kind, word)
            assert path.wt() == wt
            assert tuple(path.eps(i) for i in range(n + 1)) == eps, (lam, word, kind)
            assert all(path.phi(i) == e + pairing(i, wt) for i, e in enumerate(eps))


@pytest.mark.parametrize("p, cases", [(PRIME, 40), (None, 8)], ids=["fp", "qq"])
def test_geometric_e_matches_the_direct_paths(p, cases):
    # for each i with eps_i > 0, restricting the pipeline's point (the P1
    # wall map and a sample in its commutant) to a random hyperplane of V_i
    # that holds the images coming into V_i gives a point of the e_i
    # component: the minimum of 3 such kernel tables, 2 of which agree with
    # it, reconstructs e_i of the direct B1, Bn and Ad paths.  n <= 3,
    # level <= 3 and 1-14 letters
    rng = random.Random(15)
    for _ in range(cases):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        word = random_word(lam, rng.randint(1, 14), rng)
        x = wall_graded_map(path_to_walls(*lowering_steps(lam, "B1", word),
                                          root(word_alpha(n, word))))
        basis, draws, dense = commutant_basis(x), random.Random(rng.randrange(10**6)), x.dense()
        direct = {kind: from_word(lam, kind, word) for kind in ("B1", "Bn", "Ad")}
        for i in (i for i in range(n + 1) if direct["B1"].eps(i)):
            tables = [_oracle_table(*restrict_to_hyperplane(
                dense, sample_in_commutant(x, basis, draws, p), i, draws, p), p)
                for _ in range(3)]
            table = quiver._table_min(tables)
            assert tables.count(table) >= 2, (lam, word, i)
            for kind, read in (("B1", b1_path_from_kernels), ("Bn", bn_path_from_kernels),
                               ("Ad", adj_path_from_kernels)):
                assert read(table, lam) == direct[kind].e(i), (lam, word, i, kind)


def test_pipeline_applies_no_raising_operator(monkeypatch):
    # the wall tuples replay the word's lowering steps, and the adjoint peel
    # splits them: no e_i acts in the pipeline or in the worked-example suite
    ops = []
    real = paths.path_apply

    def recorded(op, i, p):
        ops.append(op)
        return real(op, i, p)

    monkeypatch.setattr(paths, "path_apply", recorded)
    assert run_pipeline(LAM, golden.WORD, seed=5).ok
    assert ops == ["f"] * 3 * golden.ALPHA.height
    ops.clear()
    assert all(check.ok for check in suite_example())
    assert ops and set(ops) == {"f"}


def test_report_json():
    from affine_crystals.iso import report_to_json

    rep = run_pipeline(LAM, parse_word("1"), seed=0)
    blob = report_to_json(rep)
    assert blob["ok"] is True
    assert blob["schema"] == "v1"
    assert blob["commutant_dim"] == rep.commutant_dim


def test_pipeline_rejects_index_above_n():
    from affine_crystals.paths import WordIndexError

    with pytest.raises(WordIndexError):
        run_pipeline(LAM, ((3, 2), (1, 1)), seed=0)


def _bridge_runs(seed=0):
    """The 50 (lam, word, pipeline seed) runs of suite_bridge(seed), drawn the same way."""
    rng = random.Random(seed)
    cases = []
    for _ in range(50):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        cases.append((lam, random_word(lam, rng.randint(0, 12), rng)))
    return [(lam, word, rng.randrange(10**6)) for lam, word in cases]


def _reports_digest(runs, p):
    h = hashlib.sha256()
    for lam, word, seed in runs:
        rep = run_pipeline(lam, word, seed=seed, p=p)
        h.update(json.dumps(report_to_json(rep), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("p, count, digest", [
    (PRIME, 50, "2fb298d5cded3200df4f5307f1db570000445cf89435d67102748434ac6263e7"),
    (None, 10, "40143b6faa2ffa5ef7d53005baeffa18191e4161b970e6f01cc78d7d6646a438"),
], ids=["fp", "qq"])
def test_bridge_reports_are_pinned(p, count, digest):
    # every field of the pipeline report, bridge cases over F_p and the first ones over Q
    assert _reports_digest(_bridge_runs()[:count], p) == digest


LADDER_WORDS = {
    # perfbench's random_word(lam, L, Random(5)) for the ROADMAP scale cells, as
    # literals; the walk is the same for the first L letters, so each longer
    # word ends with the shorter one
    ((1, 1, 0), 100): "0 2 1 0 0 1 0 1 1 2 2 0 1 1 1 2 2 1 0 0 0 2 0 1 0 2 2 1 2 0 2 1 2 0 1 0 "
                      "0 2 1 0 2 1 2 1 1 0 2 0 1 2 1 2 0 0 2 1 0 2 1 0 2 1 1 0 1 2 0 2 2 2 1 1 "
                      "0 0 2 1 0 0 1 1 2 2 1 0 0 2 0 1 0 2 2 1 1 0 2 0 1 0 2 1",
    ((3, 2, 1), 150): "2 0 0 1 1 0 2 0 0 1 2 1 1 1 2 0 0 1 2 2 0 0 2 0 1 1 2 2 0 0 0 2 1 2 1 0 "
                      "2 2 1 1 0 1 2 2 1 0 0 1 0 2 2 0 2 2 1 2 1 1 0 0 0 0 0 2 0 2 1 1 2 0 1 1 "
                      "2 0 1 0 0 1 1 0 2 2 2 1 1 0 1 2 2 2 0 2 2 1 1 1 2 1 0 1 1 0 1 1 0 2 0 0 "
                      "2 2 2 0 2 2 2 2 0 1 0 1 1 0 2 1 1 0 2 0 2 2 1 1 0 2 0 2 1 0 1 1 0 0 0 0 "
                      "1 0 2 1 1 2",
}
LADDER_WORDS[(1, 1, 0), 160] = (
    "0 1 1 1 2 2 2 2 2 1 2 0 1 1 0 0 1 1 0 0 1 2 0 2 2 0 0 2 1 0 2 0 0 1 2 1 1 2 1 1 "
    "2 0 0 2 0 1 1 2 0 0 0 1 1 2 1 0 2 2 2 2 ") + LADDER_WORDS[(1, 1, 0), 100]
LADDER_WORDS[(3, 2, 1), 300] = (
    "2 2 2 1 1 0 1 1 2 1 2 2 1 0 1 2 2 0 1 2 2 0 1 1 1 1 1 2 1 1 1 2 2 2 2 1 0 1 0 1 "
    "0 0 0 0 0 1 0 2 2 0 2 0 0 2 0 0 0 1 2 1 1 0 1 2 2 2 0 2 1 1 0 0 0 0 1 1 2 0 0 1 "
    "1 2 0 2 0 2 0 2 2 1 2 1 0 2 0 1 1 2 1 1 1 2 2 2 1 1 0 2 2 2 1 0 2 2 2 0 0 1 1 2 "
    "0 2 1 0 0 1 2 1 2 1 2 2 1 2 0 2 1 0 1 1 0 0 1 1 0 0 1 2 0 2 ") + LADDER_WORDS[(3, 2, 1), 150]


@pytest.mark.parametrize("lam, length, p, digest", [
    ((1, 1, 0), 100, None, "54a4e98dda38dfa87e2e93fc2db7bd668f280ca9af5501f8dd35ef11072ff8a0"),
    ((3, 2, 1), 150, PRIME, "85b88acf2e8f1f2a965e93bf9c54f8a41bbae670a97a61cf0cf55c5403d22af3"),
], ids=["qq-110-100", "fp-321-150"])
def test_ladder_reports_are_pinned(lam, length, p, digest):
    # whole reports at ladder scale, where the powers of xbar run long
    word = parse_word(LADDER_WORDS[lam, length])
    assert sum(m for _, m in word) == length
    rep = run_pipeline(weight(lam), word, seed=0, p=p)
    assert rep.ok
    assert hashlib.sha256(json.dumps(report_to_json(rep), sort_keys=True).encode()).hexdigest() \
        == digest


@pytest.mark.parametrize("lam, length, p, digest", [
    ((3, 2, 1), 150, PRIME, "807d420c1e28f3d4b6714483070b535c5b1cbaecfbcc8650c3ee334d9ce1ba71"),
    ((3, 2, 1), 300, PRIME, "a27418c4b15b99fed7b4d7aebf081843d8f5e9a0420774017626cb113c903649"),
    ((1, 1, 0), 100, None, "c52b946b31bbffc5bdccba4601b349f1f9685f5cff477234bd00eb4734f6de06"),
    ((1, 1, 0), 160, None, "40e6c80bbbfa5ba9b469fbb2eac94daf7d122ded06c2dc31e38579828c466848"),
], ids=["fp-321-150", "fp-321-300", "qq-110-100", "qq-110-160"])
def test_scale_tables_are_pinned(lam, length, p, digest):
    # the generic kernel table of each ROADMAP scale cell at seed 0
    word = parse_word(LADDER_WORDS[lam, length])
    assert sum(m for _, m in word) == length
    rep = run_pipeline(weight(lam), word, seed=0, p=p)
    assert rep.ok
    assert hashlib.sha256(json.dumps(rep.table.to_json(), sort_keys=True).encode()).hexdigest() \
        == digest


COMPARE_WORDS = {"B1": "0 1 2 0", "Bn": "0 2 1 0", "Ad": "0 1 2 0 1 2 0"}


def _other(lam, kind, k, elem):
    """An element of elem's family other than elem and than the ground factor at k."""
    ground = paths.ground_elem(lam, kind, k)
    return next(y for i in range(3) for y in (elem.f(i), elem.e(i))
                if y is not None and y not in (elem, ground))


@pytest.mark.parametrize("kind", ["B1", "Bn", "Ad"])
def test_compare_reports_the_first_differing_position(kind):
    # pairs that differ at position 0, in the middle, only at the top deviation,
    # and by length (one more deviation on top), each way round; equal paths agree
    lam = weight([1, 1, 0])
    p = from_word(lam, kind, parse_word(COMPARE_WORDS[kind]))
    top = len(p.devs) - 1
    assert top >= 2
    cases = {k: paths.Path(lam, kind, p.devs[:k] + (_other(lam, kind, k, p.devs[k]),)
                           + p.devs[k + 1:]) for k in (0, 1, top)}
    cases[top + 1] = paths.Path(lam, kind, p.devs + (_other(lam, kind, top + 1,
                                                              p.factor(top + 1)),))
    assert len(cases[top].devs) == len(p.devs) < len(cases[top + 1].devs)
    for k, q in cases.items():
        assert changed_positions(p, q) == [k]
        for a, b in ((p, q), (q, p)):
            mismatches = []
            _compare(a, b, kind, mismatches)
            assert mismatches == [f"{kind} paths differ first at position {k}: "
                                  f"{a.factor(k)} vs {b.factor(k)}"]
    mismatches = []
    _compare(p, from_word(lam, kind, parse_word(COMPARE_WORDS[kind])), kind, mismatches)
    assert mismatches == []


def test_compare_sees_a_lowering_step_at_the_top_deviation():
    # B1 0 1 2 0 at (1,1,0) and its f_2 differ only at position 4, the longer
    # path's top deviation
    lam = weight([1, 1, 0])
    p = from_word(lam, "B1", parse_word("0 1 2 0"))
    q = p.f(2)
    assert changed_positions(p, q) == [4] and len(q.devs) == 5
    mismatches = []
    _compare(p, q, "B1", mismatches)
    assert mismatches == [f"B1 paths differ first at position 4: {p.factor(4)} vs {q.factor(4)}"]
