import hashlib
import json
import random
from dataclasses import dataclass

from hypothesis import given, strategies as st

from affine_crystals.crystal_core import (
    CrystalGraph,
    TensorProd,
    check_axioms,
    eps_weight,
    generate_graph,
    phi_weight,
    signature,
)
from affine_crystals.cartan import weight
from affine_crystals.paths import Path, ground_path, path_to_json
from affine_crystals import perfect
from affine_crystals.perfect import AdjElem, B1Elem, BnElem, all_adj, all_b1, all_bn, ground_adj
from affine_crystals.suites import random_dominant
from oracles import check_axioms_reference, signature_reference


@dataclass(frozen=True)
class Fake:
    """Carrier of prescribed signature counts; operators never used."""

    e_count: int
    p_count: int

    def eps(self, i):
        return self.e_count

    def phi(self, i):
        return self.p_count

    @property
    def row(self):  # what signature reads: (eps_i, phi_i) for the i = 0..4 asked here
        return ((self.e_count, self.p_count),) * 5


def brute_signature(counts, rng):
    """Cancel a random adjacent +- pair until none remain (oracle)."""
    word = []
    for idx, (e, p) in enumerate(counts):
        word += [("-", idx)] * e + [("+", idx)] * p
    while True:
        spots = [t for t in range(len(word) - 1)
                 if word[t][0] == "+" and word[t + 1][0] == "-"]
        if not spots:
            break
        t = rng.choice(spots)
        del word[t : t + 2]
    return word


@given(st.integers(0, 4), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
def test_signature_matches_the_per_symbol_reference(i, counts):
    facs = [Fake(e, p) for e, p in counts]
    assert signature(i, facs) == signature_reference(i, facs)


@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_signature_matches_the_reference_on_perfect_crystal_factors(n, lvl, rng):
    for elements in (all_b1, all_bn, all_adj):
        pool = elements(n, lvl)
        facs = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        for i in range(n + 1):
            assert signature(i, facs) == signature_reference(i, facs)


def test_signature_against_random_order_reduction():
    rng = random.Random(1)
    for _ in range(300):
        counts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        facs = [Fake(e, p) for e, p in counts]
        minus, plus = signature(0, facs)
        expect = brute_signature(counts, rng)
        got = [("-", idx) for idx in minus] + [("+", idx) for idx in plus]
        assert got == expect


@given(st.tuples(st.integers(0, 8), st.integers(0, 8),
                 st.integers(0, 8), st.integers(0, 8)))
def test_two_factor_closed_form(data):
    e1, p1, e2, p2 = data
    eps, phi = TensorProd((Fake(e1, p1), Fake(e2, p2))).row[0]
    assert eps == e1 + max(0, e2 - p1)
    assert phi == p2 + max(0, p1 - e2)


def test_two_factor_closed_form_bulk():
    rng = random.Random(77)
    for _ in range(10_000):
        e1, p1, e2, p2 = (rng.randint(0, 9) for _ in range(4))
        assert TensorProd((Fake(e1, p1), Fake(e2, p2))).row[0] == (
            e1 + max(0, e2 - p1),
            p2 + max(0, p1 - e2),
        )


def test_eps_phi_examples():
    t = TensorProd((Fake(0, 2), Fake(2, 0)))
    assert (t.eps(0), t.phi(0)) == (0, 0)
    t = TensorProd((Fake(1, 1), Fake(2, 0)))
    assert (t.eps(0), t.phi(0)) == (2, 0)
    b = B1Elem((1, 1, 1))
    assert TensorProd((b,)).row == b.row


def test_tensor_operator_two_row_factors():
    left, right = B1Elem((0, 2, 1)), B1Elem((1, 1, 1))
    assert TensorProd((left, right)).f(2) == TensorProd((B1Elem((0, 1, 2)), right))


def test_tensor_operator_null_cases():
    assert TensorProd((B1Elem((1, 0, 2)),)).e(1) is None  # eps_1 = 0
    pair = TensorProd((B1Elem((0, 0, 1)), BnElem((0, 0, 1))))
    assert pair.f(0) is None  # phi cancels against eps


def test_mutual_inverse_on_random_pairs():
    rng = random.Random(7)
    from affine_crystals.perfect import all_b1

    elems = all_b1(2, 2)
    for _ in range(200):
        facs = (rng.choice(elems), rng.choice(elems))
        i = rng.randrange(3)
        down = TensorProd(facs).f(i)
        if down is None:
            continue
        assert sum(a != b for a, b in zip(down.factors, facs)) == 1
        up = TensorProd(down.factors).e(i)  # a fresh instance: nothing cached
        assert up is not None and up.factors == facs


def test_every_element_kind_keeps_one_protocol():
    """n, row, wt, eps, phi, eps_weight and phi_weight agree on every element kind:
    the perfect-crystal elements, a tensor product and paths along f-walks."""
    rng = random.Random(27)
    elems = [b for n in (1, 2) for lvl in (1, 2)
             for b in all_b1(n, lvl) + all_bn(n, lvl) + all_adj(n, lvl)]
    elems.append(TensorProd((B1Elem((0, 2, 1)), AdjElem((0, 1, 0), (0, 0, 1), 2))))
    for _ in range(30):
        p = ground_path(random_dominant(rng.randint(1, 2), rng.randint(1, 2), rng),
                        rng.choice(("B1", "Bn", "Ad")))
        for _ in range(rng.randint(0, 6)):
            p = p.f(rng.choice([i for i in range(p.n + 1) if p.phi(i) > 0]))
            elems.append(Path(p.lam, p.kind, p.devs))  # a fresh copy: nothing cached
    for b in elems:
        assert b.n == len(b.row) - 1 == b.wt().n
        assert all(b.row[i] == (b.eps(i), b.phi(i)) for i in range(b.n + 1))
        assert eps_weight(b).a == tuple(e for e, _ in b.row)
        assert phi_weight(b).a == tuple(p for _, p in b.row)


def test_generate_graph_small_cycle():
    g = generate_graph(B1Elem((1, 0, 0)))
    assert len(g.nodes) == 3 and g.complete
    f_edges = {(s, i, d) for s, op, i, d in g.edges if op == "f"}
    assert len(f_edges) == 3  # one f-edge out of each node, a 3-cycle
    assert not check_axioms(g)


def test_generate_graph_tensor_connected():
    seed = TensorProd((B1Elem((3, 0, 0)), BnElem((3, 0, 0))))
    g = generate_graph(seed, max_nodes=500)
    assert g.complete and len(g.nodes) == 100
    assert not check_axioms(g)


def test_generate_graph_depth_zero():
    g = generate_graph(B1Elem((1, 0, 0)), max_depth=0)
    assert len(g.nodes) == 1


def test_generate_graph_budget_flag():
    g = generate_graph(B1Elem((3, 0, 0, 0)), max_nodes=5)
    assert not g.complete and len(g.nodes) == 5


def test_check_axioms_empty_graph_vacuous():
    from affine_crystals.crystal_core import CrystalGraph

    assert check_axioms(CrystalGraph(nodes=[], ids={})) == []


def test_check_axioms_detects_corruption():
    g = generate_graph(B1Elem((1, 0, 0)))
    src, op, i, dst = g.edges[0]
    g.edges[0] = (src, op, (i + 1) % 3, dst)
    assert check_axioms(g)
    # on path balls whose cached values are warm from a first clean check, a
    # re-indexed edge or a node swapped for another valid path still shows
    for kind in ("B1", "Bn", "Ad"):
        g = generate_graph(ground_path(weight((2, 1, 0)), kind), max_nodes=60)
        assert len(g.nodes) == 60 and not check_axioms(g)
        src, op, i, dst = g.edges[7]
        g.edges[7] = (src, op, (i + 1) % 3, dst)
        assert check_axioms(g)
        g.edges[7] = (src, op, i, dst)
        assert not check_axioms(g)
        node = g.nodes[40]
        other = Path(node.lam, node.kind, node.devs)  # built afresh, cold caches
        assert other != g.nodes[src]
        g.nodes[src] = other
        assert check_axioms(g)


def _differential_graphs():
    """The graphs check_axioms is compared with the edge-by-edge reference on."""
    for lam in ((2, 1, 0), (1, 1)):
        for kind in ("B1", "Bn", "Ad"):
            yield generate_graph(ground_path(weight(lam), kind), max_nodes=120)
    yield generate_graph(TensorProd((B1Elem((2, 0, 0)), BnElem((1, 1, 0)))), max_nodes=120)
    yield generate_graph(ground_adj(weight((2, 0, 0))))


def _cold(b):
    """b built afresh from its value: nothing cached (perfect elements are interned)."""
    if isinstance(b, Path):
        return Path(b.lam, b.kind, b.devs)
    return TensorProd(b.factors) if isinstance(b, TensorProd) else b


def _corrupted(g, how: str, k: int) -> CrystalGraph:
    """A copy of g with edge k re-indexed, its source swapped for a cold element of
    another node's value, or its target moved to another node."""
    nodes, edges = list(g.nodes), list(g.edges)
    src, op, i, dst = edges[k]
    other = next(t for t in range(len(nodes)) if t not in (src, dst))
    if how == "reindex":
        edges[k] = (src, op, (i + 1) % len(nodes[0].row), dst)
    elif how == "swap":
        nodes[src] = _cold(nodes[other])
    else:
        edges[k] = (src, op, i, other)
    return CrystalGraph(nodes=nodes, ids=g.ids, edges=edges, complete=g.complete)


def test_check_axioms_matches_the_edge_by_edge_reference():
    # one read per node gives the same violations, in the same order, as asking both
    # ends of every edge afresh, on clean graphs and on corrupted ones whose swapped
    # node is cold for whichever checker reads it first
    for g in _differential_graphs():
        assert len(g.nodes) == 120 or g.complete
        assert check_axioms(g) == check_axioms_reference(g) == []
        for how in ("reindex", "swap", "redirect"):
            for k in (0, len(g.edges) // 2, len(g.edges) - 1):
                got = check_axioms(_corrupted(g, how, k))
                want = check_axioms_reference(_corrupted(g, how, k))
                assert got == want and want, (how, k)


# sha256 of json.dumps([[path_to_json(b) for b in g.nodes], g.edges], sort_keys=True)
# for the five 500-node balls of A9 in suite_axioms(0)
A9_BALL_SHA256 = [
    ("B1", (1, 0), "8c3a63403457c5df760c946b8a155d33ad4b50782f4eb876e5c7e0b6af173e92"),
    ("Bn", (1, 0, 0, 2), "ba37201e2bdd7c32f6ba26f8d4c3c40d0bd00cc9af05036160bab1a4e2d23aa1"),
    ("Ad", (1, 1), "1d0798b5c94517497b609e68a63db199b3d2395d6b5dd8a3bc9eff0c546e5b68"),
    ("B1", (0, 1, 2, 0), "52ef9df458c28c5071252ef1160654f6eaec2d7fb86150c9c52f7aa6762d97a5"),
    ("Bn", (1, 0, 0, 0), "8b75a7e29b8828341711aeadf5f339e761b38740177ac0c64034578ced5e706c"),
]


def test_a9_ball_graphs_are_pinned(monkeypatch):
    from affine_crystals import suites

    graphs = []

    def recording_check(g):
        graphs.append(g)
        return check_axioms(g)

    monkeypatch.setattr(suites, "check_axioms", recording_check)
    assert all(c.ok for c in suites.suite_axioms(0))
    got = []
    for g in graphs:
        text = json.dumps([[path_to_json(b) for b in g.nodes], g.edges], sort_keys=True)
        got.append((g.nodes[0].kind, g.nodes[0].lam.a, hashlib.sha256(text.encode()).hexdigest()))
    assert got == A9_BALL_SHA256


def test_intern_table_stays_at_its_cap_and_a_drop_changes_no_output(monkeypatch):
    # the adjoint crystal at n = 4, l = 4 has 4900 elements, past the cap: its ball
    # drops the table mid-run, always full, and still passes the axioms
    from affine_crystals import suites

    sizes = []
    drop = perfect._drop
    monkeypatch.setattr(perfect, "_drop", lambda: (sizes.append(len(perfect._TABLE)), drop()))
    g = generate_graph(ground_adj(weight((4, 0, 0, 0, 0))), max_nodes=5000)
    assert g.complete and len(g.nodes) == 4900 > perfect.INTERN_CAP
    assert sizes and set(sizes) == {perfect.INTERN_CAP}
    assert len(perfect._TABLE) <= perfect.INTERN_CAP
    assert sum(type(b)(*b._value()) is not b for b in g.nodes) > 0  # built before a drop
    assert not check_axioms(g)

    # the A9 balls with the table dropped between building each ball and checking it
    graphs = []

    def dropping_check(ball):
        drop()
        graphs.append(ball)
        return check_axioms(ball)

    monkeypatch.setattr(suites, "check_axioms", dropping_check)
    assert all(c.ok for c in suites.suite_axioms(0))
    got = [(b.nodes[0].kind, b.nodes[0].lam.a, hashlib.sha256(json.dumps(
        [[path_to_json(p) for p in b.nodes], b.edges], sort_keys=True).encode()).hexdigest())
        for b in graphs]
    assert got == A9_BALL_SHA256
