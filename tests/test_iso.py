import random

import pytest

from affine_crystals import golden
from affine_crystals.cartan import cl_root, rotate, weight
from affine_crystals.iso import (
    adj_path_from_kernels,
    b1_path_from_kernels,
    bn_path_from_kernels,
    peel_adj,
    peel_p1,
    peel_pn,
    raising_word,
    run_pipeline,
)
from affine_crystals.paths import from_word, ground_path, parse_word
from affine_crystals.perfect import B1Elem, BnElem, ground_b1, ground_bn, render
from affine_crystals.quiver import KernelTable, commutant_basis, generic_kernel_table, wall_graded_map
from affine_crystals.suites import reference_table
from affine_crystals.walls import make_walls, walls_to_path

N, LAM = golden.N, golden.LAM
WP1 = make_walls("P1", **golden.WALLS_P1)
WPN = make_walls("Pn", **golden.WALLS_PN)


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
    assert render(ground_b1(rotate(LAM, -1), 0)) == golden.ROTATED_GROUND_RENDER


def test_zero_table_gives_ground_paths():
    from affine_crystals.cartan import zero_root

    zero = zero_root(N)
    kt = KernelTable(zero, (zero,), (zero,), (zero,), (zero,))
    assert b1_path_from_kernels(kt, LAM) == ground_path(LAM, "B1")
    assert adj_path_from_kernels(kt, LAM) == ground_path(LAM, "Ad")


def test_peel_p1_matches_path_factor():
    rest, elem = peel_p1(N, WP1)
    assert elem == B1Elem((1, 1, 1))
    assert elem == walls_to_path(N, WP1).factor(0)
    assert rest.charges == (0, 2, 2)


def test_peel_pn_matches_path_factor():
    rest, elem = peel_pn(N, WPN)
    assert elem == BnElem((2, 1, 0))
    assert elem == walls_to_path(N, WPN).factor(0)
    assert rest.charges == (1, 1, 2)


def test_peel_on_empty_walls():
    empty = make_walls("P1", (0, 0, 1), ((), (), ()))
    rest, elem = peel_p1(N, empty)
    assert rest.block_count() == 0
    assert elem == ground_b1(LAM, 0)


def test_peel_adj_twice():
    pad = from_word(LAM, "Ad", golden.WORD)
    ref = reference_table()
    rest, fac0 = peel_adj(N, WP1, ref, LAM)
    assert fac0 == pad.factor(0)
    x2, _ = wall_graded_map(N, rest)
    kt2 = generic_kernel_table(x2, commutant_basis(x2), seed=3)
    rest2, fac1 = peel_adj(N, rest, kt2, LAM)
    assert fac1 == pad.factor(1)
    x3, _ = wall_graded_map(N, rest2)
    kt3 = generic_kernel_table(x3, commutant_basis(x3), seed=3)
    _, fac2 = peel_adj(N, rest2, kt3, LAM)
    assert fac2 == pad.factor(2)


def test_raising_word_height():
    p = from_word(LAM, "B1", golden.WORD)
    word = raising_word(p)
    assert len(word) == golden.ALPHA.height
    counts = [word.count(i) for i in range(3)]
    assert tuple(counts) == golden.ALPHA.k


def test_pipeline_worked_example():
    rep = run_pipeline(LAM, golden.WORD, seed=5)
    assert rep.ok and rep.stable
    assert rep.commutant_dim == golden.COMMUTANT_DIM
    assert rep.first_mismatch() == ""


def test_pipeline_trivial():
    rep = run_pipeline(weight((1, 0)), (), seed=0)
    assert rep.ok
    assert rep.walls_p1.block_count() == 0


def test_pipeline_matches_over_random_words():
    rng = random.Random(100)
    from affine_crystals.suites import random_dominant, random_word

    for _ in range(8):
        n = rng.randint(1, 2)
        lam = random_dominant(n, rng.randint(1, 2), rng)
        if lam.level == 0:
            lam = weight([1] + [0] * n)
        word = random_word(lam, rng.randint(0, 8), rng)
        rep = run_pipeline(lam, word, seed=rng.randrange(10**6))
        assert rep.ok, rep.first_mismatch()


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
