import pathlib
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from affine_crystals import crystal_core, golden, paths
from affine_crystals.cartan import Weight, cl_root, root, weight
from affine_crystals.crystal_core import TensorProd, check_axioms, generate_graph, signature
from affine_crystals.iso import run_pipeline
from affine_crystals.linalg import PRIME
from affine_crystals.paths import (
    DeadWordError,
    Path,
    WeightSectionError,
    WordIndexError,
    _ground,
    factor_from_content,
    from_word,
    ground_elem,
    ground_path,
    lowering_steps,
    parse_word,
    path_apply,
    path_to_json,
    word_alpha,
)
from affine_crystals.perfect import (AdjElem, B1Elem, BnElem, all_adj, all_b1, all_bn,
                                     ground_adj, ground_b1, ground_bn)
from affine_crystals.suites import random_dominant, random_word
from affine_crystals.walls import path_to_walls, walls_to_path
from oracles import (b1_from_weight, bn_from_weight, changed_positions, elem_to_json_reference,
                     path_wt_reference, profiled_calls, raising_steps as oracle_raising_steps,
                     render_reference, signature_reference)

LAM = weight((2, 1, 0))
WORD = parse_word("1^4 2^5 1^2 0^4 2 1")
KINDS = ("B1", "Bn", "Ad")


def test_parse_word():
    assert parse_word("1^4 2 0^2") == ((1, 4), (2, 1), (0, 2))
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("x^2")


@pytest.mark.parametrize("word", [[(3, 2), (1, 1)], [(-1, 1)]], ids=["above-n", "negative"])
def test_word_index_out_of_range(word):
    # an index outside 0..n is rejected, not read modulo n+1
    for kind in ("B1", "Bn", "Ad"):
        with pytest.raises(WordIndexError, match="outside 0..2"):
            from_word(LAM, kind, word)


def test_negative_multiplicity_is_rejected_under_optimize():
    # ((0, -1),) lowered to the ground path and counted -1 in word_alpha; every
    # lowering walk goes through word_alpha, so each raises one line, also under -O
    code = (
        "from affine_crystals.cartan import weight\n"
        "from affine_crystals.iso import run_pipeline\n"
        "from affine_crystals.paths import from_word, lowering_steps, word_alpha\n"
        "lam, word = weight((2, 1, 0)), ((1, 2), (0, -1))\n"
        "calls = [lambda: word_alpha(2, word), lambda: run_pipeline(lam, word)]\n"
        "calls += [lambda k=k: f(lam, k, word) for f in (from_word, lowering_steps)\n"
        "          for k in ('B1', 'Bn', 'Ad')]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as err:\n"
        "        print(type(err).__name__, len(str(err).splitlines()))\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError 1"] * 8
    with pytest.raises(ValueError, match="multiplicity -1 of index 0 is negative"):
        word_alpha(2, ((1, 2), (0, -1)))
    for letter in ((1, 1.5), (1.0, 1), (1, 2, 3), (1,), 1, "12", None):
        with pytest.raises(ValueError, match="is not a pair of integers"):
            word_alpha(2, ((0, 1), letter))
    assert word_alpha(2, [[2, True], (0, 3)]) == (3, 0, 1)
    assert word_alpha(2, ((1, 0), (0, 1))) == (1, 0, 0)  # a zero multiplicity is a no-op


def _check_steps(lam, kind, word):
    """lowering_steps(word): each step's f_i changes exactly the factor at its
    pos, and the steps rebuild the path from the ground path."""
    p, steps = lowering_steps(lam, kind, word)
    assert [i for i, _ in steps] == [i for i, mult in reversed(word) for _ in range(mult)]
    cur = ground_path(lam, kind)
    for i, pos in steps:
        nxt = cur.f(i)
        assert changed_positions(cur, nxt) == [pos]
        cur = nxt
    assert cur == p
    return p, steps


@pytest.mark.parametrize("kind", ["B1", "Bn", "Ad"])
def test_raising_steps_replay_to_the_path(kind):
    # every lowering step changes exactly the factor at its recorded position;
    # lowering along the mirror of the raising oracle's word retraces its steps
    _check_steps(LAM, kind, WORD)
    assert lowering_steps(LAM, kind, []) == (ground_path(LAM, kind), [])
    rng = random.Random(KINDS.index(kind))
    for _ in range(24):
        lam = random_dominant(rng.randint(1, 3), rng.randint(1, 3), rng)
        q, _ = _check_steps(lam, kind, random_word(lam, rng.randint(0, 20), rng, kind=kind))
        raised = oracle_raising_steps(q)
        assert _check_steps(lam, kind, [(i, 1) for i, _ in raised]) == (q, raised[::-1])


def test_ground_paths():
    p = ground_path(LAM, "Ad")
    assert p.factor(0) == p.factor(7) == ground_adj(LAM)
    assert ground_path(LAM, "B1").factor(0) == B1Elem((1, 0, 2))
    tail = ground_path(weight((3, 0, 0)), "B1")
    assert tail.factor(0) == B1Elem((0, 0, 3))
    assert tail.factor(1) == B1Elem((0, 3, 0))


def test_factor_from_content():
    # no content leaves the ground factor; one alpha_1 box lowers it by f_1
    zero, a1 = root((0, 0, 0)), root((0, 1, 0))
    for kind in ("B1", "Bn"):
        g = ground_path(LAM, kind).factor(3)
        assert factor_from_content(LAM, kind, 3, zero) == g
        assert factor_from_content(LAM, kind, 3, a1) == g.f(1)
    with pytest.raises(ValueError, match="no weight section for kind 'Ad'"):
        factor_from_content(LAM, "Ad", 0, zero)


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(["B1", "Bn"]), st.integers(0, 9),
       st.lists(st.integers(0, 4), min_size=5, max_size=5), st.randoms(use_true_random=False))
def test_factor_from_content_is_the_weight_section(n, lvl, kind, k, coeffs, rng):
    # the content's unit moves on ground_k against the weight section of
    # wt(ground_k) - cl(content): the same element, or the same error
    lam = random_dominant(n, lvl, rng)
    content = root(coeffs[:n + 1])
    section = b1_from_weight if kind == "B1" else bn_from_weight
    try:
        want = section(ground_elem(lam, kind, k).wt() - cl_root(content), lam.level)
    except WeightSectionError as err:
        with pytest.raises(WeightSectionError, match=f"^{re.escape(str(err))}$"):
            factor_from_content(lam, kind, k, content)
    else:
        got = factor_from_content(lam, kind, k, content)
        assert type(got) is type(want) and got == want


def test_single_step():
    p = from_word(LAM, "B1", [(1, 1)])
    assert p.devs == (B1Elem((0, 1, 2)),)
    assert from_word(LAM, "B1", []) == ground_path(LAM, "B1")


def test_dead_word():
    with pytest.raises(DeadWordError):
        from_word(LAM, "B1", [(2, 1)])  # phi_2 vanishes on the whole tail


def test_raising_ground_is_null():
    p = ground_path(LAM, "B1")
    assert all(p.e(i) is None for i in range(3))


def test_path_weight():
    assert ground_path(LAM, "B1").wt() == LAM
    p = from_word(LAM, "B1", WORD)
    assert p.wt() == LAM - cl_root(root((4, 7, 6)))
    q = from_word(LAM, "B1", [(1, 1)])
    assert q.wt() == LAM - cl_root(root((0, 1, 0)))


def test_word_alpha():
    assert word_alpha(2, WORD) == (4, 7, 6)
    with pytest.raises(WordIndexError, match="outside 0..2"):
        word_alpha(2, [(3, 1)])


def test_normalization_trims_ground_factors():
    devs = [B1Elem((0, 1, 2)), ground_path(LAM, "B1").factor(1)]
    p = Path(LAM, "B1", devs)
    assert len(p.devs) == 1


def test_the_constructor_gives_the_normal_form():
    # Path(...) itself trims trailing ground factors: a padded ground path is the
    # ground path, a ball from it keeps the axioms, and walls map back to it
    padded = Path(LAM, "Ad", (ground_adj(LAM),) * 2)
    assert padded == ground_path(LAM, "Ad") and hash(padded) == hash(ground_path(LAM, "Ad"))
    assert check_axioms(generate_graph(padded, max_nodes=50)) == []
    p, steps = lowering_steps(LAM, "B1", [(1, 1)])
    extended = Path(LAM, "B1", p.devs + (ground_elem(LAM, "B1", len(p.devs)),))
    assert path_to_walls(extended, steps, root((0, 1, 0))) is not None
    # a list of deviations or factors is stored as a tuple, so the value is hashable
    for seed in (Path(LAM, "B1", [B1Elem((0, 1, 2))]), TensorProd([B1Elem((0, 1, 2))])):
        assert generate_graph(seed, max_nodes=20).nodes[0] == seed
    with pytest.raises(ValueError, match="unknown kind 'Q'"):
        Path(LAM, "Q")


@pytest.mark.parametrize("lam, kind, devs", [
    ((1, 1, 0), "Bn", [B1Elem((0, 1, 1))]),  # a B1 factor on a Bn path
    ((1, 1, 0), "B1", [BnElem((0, 1, 1))]),  # and the converse
    ((1, 1, 0), "B1", [B1Elem((0, 0, 3))]),  # level 3 on a level-2 weight
    ((2, 0, 0), "B1", [B1Elem((1, 1))]),  # rank 1 on a rank-2 weight
    ((1, 1, 0), "Ad", [ground_adj(weight((1, 1, 0))), AdjElem((0, 1, 0), (0, 0, 1), 3)]),
    ((1, 1, 0), "Ad", [ground_adj(weight((1, 1, 0))), "not a factor"]),
], ids=["b1-on-bn", "bn-on-b1", "level", "rank", "adj-level", "not-an-element"])
def test_a_deviation_of_another_family_is_rejected(lam, kind, devs):
    # these gave a path, a weight, a row with a level-3 factor in it or an
    # IndexError; each raises one line naming the deviation when it is built
    with pytest.raises(ValueError, match=rf"^deviation .* is not a {kind} factor of rank "
                       rf"{len(lam) - 1} and level {sum(lam)}$"):
        Path(weight(lam), kind, devs)


def _apply_on_window(op, i, p, w):
    """e_i/f_i of p computed by the per-symbol signature reference on its w
    rightmost factors, independent of the tensor rule of crystal_core."""
    facs = [p.factor(k) for k in range(w - 1, -1, -1)]
    minus, plus = signature_reference(i, facs)
    owners = plus[:1] if op == "f" else minus[-1:]
    if not owners:
        return None
    idx = owners[0]
    if idx == 0:
        assert op == "e", "f reached the window boundary"
        return None
    elem = facs[idx].f(i) if op == "f" else facs[idx].e(i)
    assert elem is not None, "the owner of a surviving symbol refuses the operator"
    pos = w - 1 - idx
    devs = [p.factor(k) for k in range(max(len(p.devs), pos + 1))]
    devs[pos] = elem
    return Path(p.lam, p.kind, devs)


@st.composite
def lowered_paths(draw):
    """A path of some kind over a dominant weight with n <= 3 and level <= 3,
    reached by a lowering walk of up to 15 letters."""
    n, lvl = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, lvl), min_size=n, max_size=n)))
    lam = weight([b - a for a, b in zip([0] + cuts, cuts + [lvl])])
    p = ground_path(lam, draw(st.sampled_from(KINDS)))
    for i in draw(st.lists(st.integers(0, n), max_size=15)):
        p = p.f(i) or p
    return p


def _check_truncation(p):
    """The junction identity: e_i, f_i, eps_i and phi_i on the production window
    of w = len(devs) + 1 factors equal their values on the windows w + 1, w + 3
    and 2w, on the window of n + 1 more ground factors and on twice that."""
    w = len(p.devs) + 1
    old = w + p.n + 1
    wides = {w + 1, w + 3, 2 * w, old, 2 * old}
    for i in range(p.n + 1):
        for op in ("e", "f"):
            got = path_apply(op, i, p)
            for wide in wides:
                assert got == _apply_on_window(op, i, p, wide)
        for wide in wides:
            minus, plus = signature(i, [p.factor(k) for k in range(wide - 1, -1, -1)])
            assert (p.eps(i), p.phi(i)) == (sum(1 for idx in minus if idx != 0), len(plus))


@given(lowered_paths())
def test_truncation_independence(p):
    _check_truncation(p)


def _check_operator_results(p):
    """Every e_i/f_i of p: the result holds only its fields, is the signature
    rule on a wider window and, once read, has a fresh path's window; p's own
    cached window is left as it was."""
    before = p._window()
    for i in range(p.n + 1):
        for op in ("e", "f"):
            q = path_apply(op, i, p)
            assert q == _apply_on_window(op, i, p, len(p.devs) + p.n + 5)
            if q is not None:
                assert set(vars(q)) == {"lam", "kind", "devs"}
                q.eps(i)
                assert q._factors == Path(q.lam, q.kind, q.devs)._window()
            assert p._factors == before


@given(lowered_paths())
@example(ground_path(LAM, "Ad"))
@example(from_word(LAM, "B1", [(1, 1)]))
@example(from_word(LAM, "Bn", WORD))
def test_path_apply_results_hold_only_their_fields(p):
    _check_operator_results(p)


@pytest.mark.parametrize("kind", KINDS)
def test_filled_windows_on_trims_and_extensions(kind):
    # f_1 on the ground path acts on the window's ground factor and appends a
    # deviation; e_1 back trims it to ground; then every path on the greedy
    # raising walk of a long word, whose tail shrinks to nothing
    g = ground_path(LAM, kind)
    one = path_apply("f", 1, g)
    assert len(one.devs) == 1 and path_apply("e", 1, one) == g
    for p in (g, one):
        _check_operator_results(p)
    p = from_word(LAM, kind, WORD)
    while p.devs:
        _check_operator_results(p)
        p = next(q for q in (path_apply("e", i, p) for i in range(3)) if q is not None)


@pytest.mark.parametrize("kind", KINDS)
def test_raising_steps_on_random_factor_paths(kind):
    # any finite deviation from the ground tail is an element of B(lam), so
    # greedy raising must reach the ground path and agree with the oracle, and
    # (B1/Bn) the walls replayed from the oracle's steps invert and map back
    rng = random.Random(100 + KINDS.index(kind))
    elements = {"B1": all_b1, "Bn": all_bn, "Ad": all_adj}[kind]
    for _ in range(30):
        n, lvl = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_dominant(n, lvl, rng)
        pool = elements(n, lvl)
        p = Path(lam, kind, [rng.choice(pool) for _ in range(rng.randint(0, 5))])
        steps = oracle_raising_steps(p)
        assert from_word(lam, kind, [(i, 1) for i, _ in steps]) == p  # raised to the ground path
        if kind != "Ad":
            alpha = root([sum(1 for i, _ in steps if i == c) for c in range(n + 1)])
            walls = path_to_walls(p, steps[::-1], alpha)
            assert walls.block_count() == len(steps)
            assert walls_to_path(walls) == p


def _fresh_values(p):
    """Window, wt and (eps_i, phi_i) of p recomputed from its deviations and
    the ground factors of perfect.py, with no cache of the path layer."""
    ground = {"B1": lambda k: ground_b1(p.lam, k), "Bn": lambda k: ground_bn(p.lam, k),
              "Ad": lambda k: ground_adj(p.lam)}[p.kind]
    window = [ground(len(p.devs)), *p.devs[::-1]]
    wt = p.lam
    for k, dev in enumerate(p.devs):
        wt = wt + dev.wt() - ground(k).wt()
    counts = []
    for i in range(p.n + 1):
        minus, plus = signature(i, window)
        counts.append((sum(1 for idx in minus if idx != 0), len(plus)))
    return window, wt, counts


def _cached_values(p):
    counts = [(p.eps(i), p.phi(i)) for i in range(p.n + 1)]
    return p._factors, p.wt(), counts


@given(lowered_paths())
def test_cached_values_equal_a_fresh_recomputation(p):
    p = Path(p.lam, p.kind, p.devs)  # a new instance: nothing cached yet
    assert set(vars(p)) == {"lam", "kind", "devs"}
    before = _fresh_values(p)
    assert _cached_values(p) == before  # fills the caches
    assert _cached_values(p) == before  # reads them
    assert _fresh_values(p) == before
    assert p._factors == [p.factor(k) for k in range(len(p.devs), -1, -1)]
    # an equal path built separately, once with trailing ground factors and
    # once already trimmed, is the same dict key
    padded = Path(p.lam, p.kind, list(p.devs) + [p.factor(len(p.devs) + j) for j in range(3)])
    trimmed = Path(p.lam, p.kind, tuple(p.devs))
    for q in (padded, trimmed):
        assert q is not p and q == p and hash(q) == hash(p)
        assert {p: "p"}[q] == "p" and q in {p}
    # unpickling rebuilds the path, so no hash cached in another process survives
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and "_hash" not in vars(copy) and hash(copy) == hash(p)
    assert _ground.cache_info().maxsize is not None
    assert paths._section.cache_info().maxsize is not None


def _counted_signatures(monkeypatch):
    """Route the tensor rule's signature calls through a counter; returns its call list."""
    calls = []
    real = crystal_core.signature

    def counted(i, factors):
        calls.append(i)
        return real(i, factors)

    monkeypatch.setattr(crystal_core, "signature", counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_one_signature_per_node_and_index_in_a_ball(kind, monkeypatch):
    # generate_graph reads e_i and f_i of every node, check_axioms its eps/phi
    # and the e_i/f_i of every edge's target: one signature per (node, i) serves all
    calls = _counted_signatures(monkeypatch)
    g = generate_graph(ground_path(LAM, kind), max_nodes=120)
    assert not check_axioms(g)
    assert len(g.nodes) == 120 and len(calls) == len(g.nodes) * (LAM.n + 1)


@pytest.mark.parametrize("kind", KINDS)
def test_one_signature_per_letter_of_a_word(kind, monkeypatch):
    # each path on the lowering walk is asked for the one i of its letter
    calls = _counted_signatures(monkeypatch)
    for walk in (from_word, lowering_steps):
        calls.clear()
        walk(LAM, kind, WORD)
        assert calls == [i for i, mult in reversed(WORD) for _ in range(mult)]


def test_path_apply_after_eps_phi_reads_no_signature(monkeypatch):
    p = Path(LAM, "Bn", from_word(LAM, "Bn", WORD).devs)
    counts = [(p.eps(i), p.phi(i)) for i in range(LAM.n + 1)]
    calls = _counted_signatures(monkeypatch)
    for i in range(LAM.n + 1):
        for op in ("e", "f"):
            path_apply(op, i, p)
    assert [(p.eps(i), p.phi(i)) for i in range(LAM.n + 1)] == counts
    assert calls == []


@given(lowered_paths())
@example(ground_path(LAM, "Ad"))
@example(from_word(LAM, "B1", WORD))
def test_records_do_not_depend_on_the_order_of_reads(p):
    # operators first on one fresh instance, eps/phi first on another: the same
    # values, equal to a fresh recomputation and to the rule on a wider window
    indices = range(p.n + 1)

    def apply_all(q):
        return [path_apply(op, i, q) for i in indices for op in ("e", "f")]

    def counts(q):
        return [(q.eps(i), q.phi(i)) for i in indices]

    ops_first, counts_first = Path(p.lam, p.kind, p.devs), Path(p.lam, p.kind, p.devs)
    applied = apply_all(ops_first)
    read = counts(ops_first)
    assert counts(counts_first) == read and apply_all(counts_first) == applied
    assert read == _fresh_values(p)[2]
    wide = len(p.devs) + p.n + 5
    assert applied == [_apply_on_window(op, i, p, wide) for i in indices for op in ("e", "f")]
    with pytest.raises(ValueError, match="op must be 'e' or 'f'"):
        path_apply("x", 0, ops_first)


def test_forged_records_raise_typed_errors():
    # a record whose owner refuses the operator is a broken invariant and says which one
    p = Path(LAM, "B1", ())
    p.eps(0)  # fills the window and the list of records
    p._records[2] = (0, 1, None, 0)
    assert p._factors == [B1Elem((1, 0, 2))] and p._factors[0].f(2) is None
    with pytest.raises(ValueError, match="f_2 does not act on"):
        path_apply("f", 2, p)


@st.composite
def long_word_paths(draw):
    """(lowered, cold): a B1/Bn/Ad path of a word of up to 60 letters over a
    dominant weight with n <= 4 and level <= 4, and a path of random factors of
    that crystal built as Path(lam, kind, devs), with nothing cached."""
    n, lvl, kind = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.sampled_from(KINDS))
    rng = draw(st.randoms(use_true_random=False))
    lam = random_dominant(n, lvl, rng)
    lowered = from_word(lam, kind, random_word(lam, rng.randint(0, 60), rng, kind=kind))
    pool = {"B1": all_b1, "Bn": all_bn, "Ad": all_adj}[kind](n, lvl)
    cold = Path(lam, kind, tuple(rng.choice(pool) for _ in range(rng.randint(0, 12))))
    return lowered, cold


@settings(max_examples=60)
@given(long_word_paths())
@example((from_word(LAM, "B1", WORD), Path(LAM, "B1", (B1Elem((2, 1, 0)), B1Elem((0, 2, 1))))))
def test_truncation_independence_on_long_words(paths):
    lowered, cold = paths
    assert set(vars(cold)) == {"lam", "kind", "devs"}
    for p in (cold, lowered):
        _check_truncation(p)


@settings(max_examples=60)
@given(long_word_paths())
@example((from_word(LAM, "Ad", WORD), Path(LAM, "Ad", (ground_adj(LAM),) * 3)))
def test_wt_matches_the_per_factor_reference(paths):
    lowered, cold = paths
    assert "_wt" not in vars(cold)
    for p in (lowered, cold, Path(lowered.lam, lowered.kind, lowered.devs)):
        assert p.wt() == path_wt_reference(p)


def test_operator_results_inherit_no_wt_or_record():
    # check_axioms compares wt, eps and phi across each edge; a result that
    # carried them over from its source would make those checks tautologies
    def ball():
        g = generate_graph(ground_path(LAM, "Ad"), max_nodes=200)
        return g, check_axioms(g)

    (g, bad), calls = profiled_calls(ball)
    assert not bad and len(g.nodes) == 200
    assert calls["crystal_core", "signature"] == len(g.nodes) * (LAM.n + 1)
    for src, op, i, _ in g.edges:
        b = g.nodes[src]
        assert "_wt" in vars(b) and None not in b._records  # filled by check_axioms
        out = path_apply(op, i, b)
        assert "_wt" not in vars(out) and "_records" not in vars(out) and out._records is None
    for kind in KINDS:
        (_, steps), calls = profiled_calls(lowering_steps, LAM, kind, WORD)
        assert calls["crystal_core", "signature"] == len(steps) == sum(m for _, m in WORD)


# the calls the benchmark's counted run reports for the path layer
COUNTED = [("paths", "ground_elem"), ("crystal_core", "signature"), ("paths", "path_apply")]


@pytest.mark.parametrize("p", [PRIME, None], ids=["fp", "qq"])
def test_pipeline_call_counts_do_not_depend_on_the_path_caches(p):
    # a cache miss that calls a counted function makes the count depend on what
    # earlier runs left cached, so two runs of one case would disagree
    counts = []
    for fn in vars(paths).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    for _ in ("cold", "warm"):
        rep, calls = profiled_calls(run_pipeline, golden.LAM, golden.WORD, 0, p)
        assert rep.ok
        counts.append({name: calls[name] for name in COUNTED})
    assert counts[0] == counts[1]
    assert all(counts[0].values())


def _embedding_pair(rng):
    """(path over lam + mu, u_lam (x) u_mu as a TensorProd of two ground paths) for
    random lam, mu with n <= 3 and level 1-2 each, every path of a random kind."""
    n = rng.randint(1, 3)
    lam, mu = (random_dominant(n, rng.randint(1, 2), rng) for _ in range(2))
    kinds = [rng.choice(KINDS) for _ in range(3)]
    return ground_path(lam + mu, kinds[0]), TensorProd((ground_path(lam, kinds[1]),
                                                        ground_path(mu, kinds[2])))


def test_tensor_embedding_keeps_rows_and_weights():
    # B(lam + mu) embeds in B(lam) (x) B(mu) with u_{lam+mu} -> u_lam (x) u_mu: along
    # an f-walk both sides keep equal (eps_i, phi_i) for every i and equal weights
    rng = random.Random(26)
    steps = 0
    for _ in range(300):
        p, t = _embedding_pair(rng)
        for _ in range(rng.randint(0, 20)):
            assert p.row == t.row and p.wt() == t.wt()
            i = rng.choice([i for i, (_, phi) in enumerate(p.row) if phi])
            p, t = p.f(i), t.f(i)
            steps += 1
        assert p.row == t.row and p.wt() == t.wt()
    assert steps > 2500


def test_ball_of_two_path_tensor_passes_the_axioms():
    rng = random.Random(27)
    for _ in range(3):
        _, t = _embedding_pair(rng)
        g = generate_graph(t, max_nodes=200)
        assert len(g.nodes) == 200 and not check_axioms(g)


def test_path_axioms_small_balls():
    for kind in ("B1", "Bn", "Ad"):
        g = generate_graph(ground_path(LAM, kind), max_nodes=120)
        assert not check_axioms(g)


def test_path_balls_hash_no_weight(monkeypatch):
    # the ground caches are keyed on lam's coefficients, a tuple hashed in C, so
    # building a ball and checking it never runs Weight's Python-level hash
    _ground.cache_clear()
    paths._section.cache_clear()
    hashed = []
    real = Weight.__hash__
    monkeypatch.setattr(Weight, "__hash__", lambda w: hashed.append(w) or real(w))
    for kind in KINDS:
        g = generate_graph(ground_path(weight((2, 1, 0)), kind), max_nodes=200)
        assert len(g.nodes) == 200 and not check_axioms(g)
    assert hashed == []


def _spliced(p, op, i):
    """Path(lam, kind, devs) of the window step of op_i: the owner's factor replaced,
    or the new factor appended on g_T; None when op_i annihilates p."""
    res = p._step(op, i)
    if res is None:
        return None
    idx, elem = res
    pos = len(p.devs) - idx
    return Path(p.lam, p.kind, p.devs[:pos] + (elem,) + p.devs[pos + 1:])


def test_operator_results_equal_the_constructor_on_the_spliced_deviations():
    # e_i/f_i build their result from the parent's validated deviations: the same
    # normal form, value and hash as the constructor's, trims included, and a result
    # caches nothing until it is read.  A top deviation turned ground never has a
    # ground factor below it (that factor would keep a surviving "-"), so an operator
    # trims one factor at most; _with's trim cascades when handed such a window
    trims = []
    for lam in ((2, 0, 0), (1, 1, 0), (3, 2, 1)):
        for kind in KINDS:
            ball = generate_graph(ground_path(weight(lam), kind), max_nodes=150).nodes
            # and each node with its deviations below the top made ground, so that a
            # top one turned ground trims down to the ground path
            grounded = [Path(p.lam, kind, [p.factor(k) if k == len(p.devs) - 1 else
                                           ground_elem(p.lam, kind, k) for k in range(len(p.devs))])
                        for p in ball]
            for p in ball + grounded:
                for i in range(p.n + 1):
                    for op in ("e", "f"):
                        want, got = _spliced(p, op, i), getattr(p, op)(i)
                        if want is None:
                            assert got is None
                            continue
                        assert set(vars(got)) == {"lam", "kind", "devs"}
                        assert got.devs == want.devs and type(got.devs) is tuple
                        assert got == want and hash(got) == hash(want)
                        assert got.lam is p.lam and got.kind == p.kind
                        trims.append(len(p.devs) - len(got.devs))
    assert set(trims) == {-1, 0, 1}
    lam = weight((3, 2, 1))
    for kind in KINDS:
        g = [ground_elem(lam, kind, k) for k in range(3)]
        x = next(b for b in map(g[2].f, range(3)) if b is not None)
        p, q = Path(lam, kind, [*g[:2], x]), Path(lam, kind, [x, g[1], x])
        p._record(0), q._record(0)
        assert p._with(1, g[2]) == ground_path(lam, kind) and p._with(1, g[2]).devs == ()
        assert q._with(1, g[2]).devs == (x,) == Path(lam, kind, [x, g[1], g[2]]).devs


def test_ball_operators_never_run_the_path_constructor(monkeypatch):
    # only the three ground paths go through Path.__init__; every e_i/f_i result is
    # built from its parent, whose deviations the constructor has already checked
    built = []
    real = Path.__init__
    monkeypatch.setattr(Path, "__init__", lambda self, *a: built.append(a) or real(self, *a))
    for kind in KINDS:
        g = generate_graph(ground_path(weight((2, 1, 0)), kind), max_nodes=200)
        assert len(g.nodes) == 200 and not check_axioms(g)
    assert [(lam.a, kind) for lam, kind in built] == [((2, 1, 0), kind) for kind in KINDS]


def test_bad_lambda_and_foreign_factor_raise_one_line_under_optimize():
    # a tuple lam raised a bare AttributeError from the ground lookup; a factor of
    # another family handed to _with is refused by an if/raise, not an assert
    code = (
        "from affine_crystals.cartan import Weight, weight\n"
        "from affine_crystals.iso import run_pipeline\n"
        "from affine_crystals.paths import Path, from_word, ground_path, lowering_steps\n"
        "from affine_crystals.perfect import AdjElem, B1Elem\n"
        "word = ((1, 1),)\n"
        "p = ground_path(weight((1, 1, 0)), 'B1')\n"
        "p._record(1)\n"
        "cases = [lambda: Path((2, 1, 0), 'B1'), lambda: ground_path((2, 1, 0), 'Ad'),\n"
        "         lambda: from_word([2, 1, 0], 'Bn', word),\n"
        "         lambda: lowering_steps((2, 1, 0), 'B1', word),\n"
        "         lambda: run_pipeline((2, 1, 0), word),\n"
        "         lambda: Path(Weight((2.0, 1, 0)), 'B1'), lambda: Path(Weight((1, -1, 2)), 'B1'),\n"
        "         lambda: Path(Weight((2,)), 'Ad'), lambda: Path(Weight(()), 'Bn'),\n"
        "         lambda: p._with(0, AdjElem((0, 0, 0), (0, 0, 0), 2)),\n"
        "         lambda: p._with(0, B1Elem((0, 1, 1, 0)))]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
        "    except ValueError as err:\n"
        "        print(type(err).__name__, len(str(err).splitlines()))\n"
        "print(ground_path(weight((1, 1, 0)), 'B1').f(1).devs)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError 1"] * 11 + ["(B1Elem(nu=(0, 1, 1)),)"]


@pytest.mark.parametrize("a", [(), (2,), (1, -1, 2), (-1, 0)])
def test_ground_record_refuses_a_weight_that_is_not_dominant_of_rank_one_or_more(a):
    for kind in KINDS:
        with pytest.raises(ValueError, match=r"^lambda \(.*\) is not a dominant weight of rank >= 1$"):
            Path(Weight(a), kind)


@pytest.mark.parametrize("lam", [(2, 1, 0), [2, 1], Weight((2.0, 1, 0)), Weight((True, 1))])
def test_path_refuses_lambda_that_is_not_a_weight_of_ints(lam):
    for make in (Path, ground_path, lambda lam, kind: from_word(lam, kind, [(1, 1)])):
        with pytest.raises(ValueError, match="^lambda must be a Weight of int coefficients"):
            make(lam, "B1")


def test_path_layer_api_boundary_under_optimize():
    # every input of the path layer's public functions returns or raises a one-line
    # ValueError; a hypothesis pass, run under -O so that no assert guards anything
    script = pathlib.Path(__file__).with_name("api_boundary.py")
    proc = subprocess.run([sys.executable, "-O", str(script)], capture_output=True, text=True,
                          timeout=50)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert len(proc.stdout.split("ok ")) == 7


def test_equal_weights_share_one_ground_record():
    a, b = weight((3, 1, 0)), weight((3, 1, 0))
    assert a == b and a is not b
    for kind in KINDS:
        ground_path(a, kind)
        before = _ground.cache_info()
        p = ground_path(b, kind)
        after = _ground.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert p.factor(0) is ground_elem(a, kind, 0) and p.wt() == a


def test_wt_step_along_edges():
    p = ground_path(LAM, "Ad")
    q = p.f(0)
    assert q.wt() == p.wt() - cl_root(root((1, 0, 0)))


def test_three_kinds_same_abstract_element():
    # identical raising words from the three realizations of the same element
    words = {tuple(i for i, _ in oracle_raising_steps(from_word(LAM, kind, WORD)))
             for kind in KINDS}
    assert len(words) == 1


def test_weight_multiplicities_agree_across_models():
    # the three models realize the same crystal, so the weight-graded sizes
    # of the depth-d balls must coincide exactly
    from collections import Counter

    for lam in (LAM, weight((1, 1)), weight((1, 0, 0, 1))):
        counters = []
        for kind in ("B1", "Bn", "Ad"):
            g = generate_graph(ground_path(lam, kind), max_nodes=10**6, max_depth=6)
            assert g.complete
            counters.append(Counter(p.wt().a for p in g.nodes))
        assert counters[0] == counters[1] == counters[2]


@pytest.mark.parametrize("kind", KINDS)
def test_a_path_writes_its_deviations_formats(kind):
    # the text joins each deviation's render(), highest position first, and the JSON
    # lists each to_json() in position order; both as the type switches wrote them
    for p in generate_graph(ground_path(LAM, kind), max_nodes=60).nodes:
        text = " (x) ".join(render_reference(d) for d in reversed(p.devs))
        assert p.render() == str(p) == (f"...(x) {text}" if p.devs else "ground")
        assert path_to_json(p)["deviations"] == [elem_to_json_reference(d) for d in p.devs]


def test_json_roundtrip():
    # the writer half: nothing reads path JSON back
    a = ground_adj(LAM)
    blob = path_to_json(Path(LAM, "Ad", [AdjElem((2, 1, 0), (0, 2, 1), 3), a]))
    assert blob["deviations"][0] == {"mbar": [2, 1, 0], "m": [0, 2, 1], "cap": 3}
