import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_crystals.cartan import weight, rotate
from affine_crystals.crystal_core import TensorProd, eps_weight, phi_weight
from affine_crystals.paths import WeightSectionError
from affine_crystals.perfect import (
    AdjElem,
    B1Elem,
    BnElem,
    all_adj,
    all_b1,
    all_bn,
    ground_adj,
    ground_b1,
    ground_bn,
    merge_pair,
    split_adj,
    verify_perfect,
)
from affine_crystals.suites import XI_GRID, random_dominant

from affine_crystals import perfect
from oracles import (
    b1_from_weight,
    bn_from_weight,
    elem_to_json_reference,
    element_rule,
    ground_bn_reference,
    render_reference,
)

LAM = weight((2, 1, 0))


def test_row_operators():
    assert B1Elem((1, 1, 1)).f(1) == B1Elem((0, 2, 1))
    assert B1Elem((0, 2, 1)).f(1) is None
    assert B1Elem((1, 1, 1)).f(0) == B1Elem((2, 1, 0))
    b = B1Elem((1, 1, 1))
    assert b.f(1).wt() == b.wt() - weight((-1, 2, -1))  # drops by cl(alpha_1)


def test_column_operators():
    assert BnElem((2, 1, 0)).e(0) is None  # nubar_3 = 0
    assert BnElem((2, 0, 1)).e(0) == BnElem((3, 0, 0))
    assert BnElem((2, 0, 1)).e(0).f(0) == BnElem((2, 0, 1))


def test_sections_match_worked_values():
    assert b1_from_weight(weight((0, 0, 0)), 3) == B1Elem((1, 1, 1))
    assert b1_from_weight(weight((3, 0, -3)), 3) == B1Elem((0, 0, 3))
    assert bn_from_weight(weight((3, -3, 0)), 3) == BnElem((3, 0, 0))


def test_sections_reject_bad_weights():
    with pytest.raises(WeightSectionError):
        b1_from_weight(weight((1, 0, 0)), 3)  # level-1 weight, level-3 crystal
    with pytest.raises(WeightSectionError):
        b1_from_weight(weight((0, 4, -4)), 3)  # negative multiplicity


def test_column_crystal_is_dual_of_row_crystal():
    # BnElem(v) against B1Elem(v): eps/phi swap, f/e swap, wt is negated; the
    # two share the row rule but neither is the other, so their operators stay
    # in their own class and equal vectors give unequal elements
    assert not issubclass(BnElem, B1Elem) and not issubclass(B1Elem, BnElem)
    for n, lvl in itertools.product(range(1, 5), repeat=2):
        for b in all_b1(n, lvl):
            bb = BnElem(b.nu)
            assert bb != b and bb.nubar == b.nu
            assert bb.wt() == -b.wt()
            for i in range(n + 1):
                assert (bb.eps(i), bb.phi(i)) == (b.phi(i), b.eps(i))
                for ours, theirs in ((bb.f(i), b.e(i)), (bb.e(i), b.f(i))):
                    assert (ours is None and theirs is None) or ours.nubar == theirs.nu
                    assert ours is None or type(ours) is BnElem and type(theirs) is B1Elem
        for bad in (weight((1,) + (0,) * n), BnElem((lvl + 1,) + (0,) * n).wt()):
            with pytest.raises(WeightSectionError, match="not a Bn weight"):
                bn_from_weight(bad, lvl)


@pytest.mark.parametrize(
    "n,lvl", [(n, lvl) for n in (1, 2, 3) for lvl in (1, 2, 3)]
)
def test_sections_invert_wt(n, lvl):
    for b in all_b1(n, lvl):
        assert b1_from_weight(b.wt(), lvl) == b
    for b in all_bn(n, lvl):
        assert bn_from_weight(b.wt(), lvl) == b


def test_ground_elements():
    assert ground_b1(LAM, 0) == B1Elem((1, 0, 2))
    assert ground_bn(LAM, 0) == BnElem((2, 1, 0))
    assert ground_bn(LAM, 0).render() == "[2~,1~,1~]"
    assert ground_b1(weight((3, 0, 0)), 5).nu.count(0) == 2  # single orbit weight
    assert ground_adj(LAM) == AdjElem((0, 1, 0), (0, 1, 0), 3)
    assert ground_adj(weight((3, 0, 0))).k == 0
    assert ground_adj(weight((1, 1))) == AdjElem((0, 1), (0, 1), 2)


@settings(max_examples=300)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(-8, 14), st.randoms(use_true_random=False))
def test_ground_bn_is_the_dual_of_ground_b1(n, lvl, k, rng):
    # the position-k Bn factor read off the B1 factor at -k - 1, against its
    # own formula, for k negative, inside one period and at k >= n + 1
    lam = random_dominant(n, lvl, rng)
    assert ground_bn(lam, k) == ground_bn_reference(lam, k)


def test_ground_chain_identities():
    for lam in (LAM, weight((1, 0, 1, 1)), weight((0, 2))):
        for k in range(4):
            # phi of the next factor equals eps of the current one
            assert phi_weight(ground_b1(lam, k + 1)) == eps_weight(ground_b1(lam, k))
            assert phi_weight(ground_bn(lam, k + 1)) == eps_weight(ground_bn(lam, k))
        assert eps_weight(ground_b1(lam, 0)) == rotate(lam, 1)
        assert phi_weight(ground_b1(lam, 0)) == lam
        assert eps_weight(ground_bn(lam, 0)) == rotate(lam, -1)
        assert eps_weight(ground_adj(lam)) == phi_weight(ground_adj(lam)) == lam


def test_affine_adjoint_cases():
    # every branch of the four-case tables for f_0 and e_0, capacity 3; with
    # phi1 = m_{n+1}, eps2 = mbar_{n+1}, phi2 = mbar_1 and eps1 = m_1, f_0's cases
    # split on phi1 > eps2 and phi2 > 0, e_0's on phi1 >= eps2 and eps1 > 0
    assert AdjElem((2, 1, 0), (0, 2, 1), 3).f(0) == AdjElem((1, 1, 0), (0, 2, 0), 3)  # f 1
    assert AdjElem((0, 1, 1), (0, 0, 2), 3).f(0) == AdjElem((0, 1, 1), (1, 0, 1), 3)  # f 2
    assert AdjElem((1, 0, 1), (0, 1, 1), 3).f(0) == AdjElem((0, 0, 2), (0, 1, 1), 3)  # f 3
    assert AdjElem((0, 1, 0), (0, 1, 0), 3).f(0) == AdjElem((0, 1, 1), (1, 1, 0), 3)  # f 4
    assert AdjElem((0, 1, 1), (1, 0, 1), 3).e(0) == AdjElem((0, 1, 1), (0, 0, 2), 3)  # e 1
    assert AdjElem((0, 1, 0), (0, 1, 0), 3).e(0) == AdjElem((1, 1, 0), (0, 1, 1), 3)  # e 2
    assert AdjElem((0, 0, 2), (1, 1, 0), 3).e(0) == AdjElem((0, 0, 1), (0, 1, 0), 3)  # e 3
    assert AdjElem((0, 0, 2), (0, 1, 1), 3).e(0) == AdjElem((1, 0, 1), (0, 1, 1), 3)  # e 4
    # at full capacity the box-adding branches (f 4, e 2) shut off
    assert AdjElem((0, 1, 0), (0, 1, 0), 1).f(0) is None
    assert AdjElem((0, 1, 0), (0, 1, 0), 1).e(0) is None


def test_classical_adjoint_operators():
    ground = ground_adj(LAM)  # the pair rendering "rows: [1,2],[3]"
    assert ground.phi(2) == 0 and ground.f(2) is None
    two_three = AdjElem((1, 0, 0), (0, 0, 1), 1)  # "rows: [2,3],[3]"
    assert two_three.e(1) == AdjElem((0, 1, 0), (0, 0, 1), 1)
    empty = AdjElem((0, 0, 0), (0, 0, 0), 2)
    assert all(empty.f(i) is None for i in (1, 2))


def test_affine_counts_terminate_and_match_ground():
    b = ground_adj(LAM)
    assert b.phi(0) == 2 and b.eps(0) == 2


def _affine_count(elem, op):
    """eps_0/phi_0 by repeated e_0/f_0 (oracle for the closed forms)."""
    count = 0
    cur = elem.e(0) if op == "e" else elem.f(0)
    while cur is not None:
        count += 1
        cur = cur.e(0) if op == "e" else cur.f(0)
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjoint_eps_phi_closed_forms_match_oracles(n):
    # eps_0/phi_0 against repeated e_0/f_0, every eps_i/phi_i against the
    # signature rule on split_adj's pair, and wt against the sum of the pair's
    # weights, on every element for l <= 4
    for lvl in range(1, 5):
        for a in all_adj(n, lvl):
            pair = split_adj(a)
            assert a.wt() == pair[0].wt() + pair[1].wt()
            assert (a.eps(0), a.phi(0)) == (_affine_count(a, "e"), _affine_count(a, "f"))
            for i in range(n + 1):
                assert (a.eps(i), a.phi(i)) == TensorProd(pair).row[i]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjoint_classical_operators_match_the_tensor_rule(n):
    # e_i/f_i in closed form, for every i including 0, against merge_pair of
    # the TensorProd of split_adj's pair, on every element for l <= 4
    for lvl in range(1, 5):
        for a in all_adj(n, lvl):
            pair = TensorProd(split_adj(a))
            for i in range(n + 1):
                for op in ("e", "f"):
                    res = pair.e(i) if op == "e" else pair.f(i)
                    want = None if res is None else merge_pair(*res.factors)
                    assert (a.e(i) if op == "e" else a.f(i)) == want, (a, op, i)


def test_affine_adjoint_mutual_inverse_everywhere():
    # e_i/f_i invert each other, and eps_i/phi_i step by one along each edge,
    # for every i on every adjoint crystal with n, l <= 3 (AdjElem checks the
    # pair invariants on each result)
    for n, lvl in itertools.product(range(1, 4), repeat=2):
        for a in all_adj(n, lvl):
            for i in range(n + 1):
                down = a.f(i)
                if down is not None:
                    assert down.e(i) == a
                    assert (down.eps(i), down.phi(i)) == (a.eps(i) + 1, a.phi(i) - 1)
                up = a.e(i)
                if up is not None:
                    assert up.f(i) == a
                    assert (up.eps(i), up.phi(i)) == (a.eps(i) - 1, a.phi(i) + 1)
                assert (down is None) == (a.phi(i) == 0) and (up is None) == (a.eps(i) == 0)


def test_merge_pair_examples():
    assert merge_pair(B1Elem((0, 2, 1)), BnElem((2, 1, 0))) == AdjElem((2, 1, 0), (0, 2, 1), 3)
    merged = merge_pair(B1Elem((2, 0, 1)), BnElem((3, 0, 0)))
    assert (merged.mbar, merged.m, merged.k) == ((1, 0, 0), (0, 0, 1), 1)
    full = merge_pair(B1Elem((3, 0, 0)), BnElem((3, 0, 0)))
    assert full.k == 0
    assert full.render() == "rows:"


def test_guards_hold_under_optimize():
    # invalid adjoint pairs (one with a negative entry, one with mbar and m
    # of different lengths), B1 and Bn elements with a negative entry or fewer
    # than two entries, a level mismatch in merge_pair, a factor whose
    # f_i refuses a surviving "+", a tensor product of no factors or of factors
    # of different ranks, a path deviation of another rank, class or level, and
    # a weight or root with a non-integer coefficient raise ValueError even
    # under python -O
    import subprocess
    import sys

    code = (
        "from affine_crystals.cartan import root, weight\n"
        "from affine_crystals.crystal_core import TensorProd\n"
        "from affine_crystals.paths import Path\n"
        "from affine_crystals.perfect import AdjElem, B1Elem, BnElem, merge_pair\n"
        "class Stuck:\n"
        "    row = ((0, 1),)\n"
        "    def f(self, i): return None\n"
        "cases = [\n"
        "    lambda: merge_pair(B1Elem((1, 0, 0)), BnElem((2, 0, 0))),\n"
        "    lambda: AdjElem((1, 0, 0), (1, 0, 0), 2),\n"
        "    lambda: AdjElem((1, 0, 0), (0, 1, 1), 2),\n"
        "    lambda: AdjElem((0, -1, 1), (0, 1, -1), 1),\n"
        "    lambda: B1Elem((-1, 2, 1)),\n"
        "    lambda: BnElem((0, -1, 3)),\n"
        "    lambda: AdjElem((1, 0), (0, 1, 0), 1),\n"
        "    lambda: B1Elem((3,)),  # rank 0\n"
        "    lambda: BnElem(()),\n"
        "    lambda: TensorProd((Stuck(),)).f(0),\n"
        "    lambda: TensorProd(()),\n"
        "    lambda: TensorProd((B1Elem((1, 0)), B1Elem((1, 0, 0)))).eps(0),\n"
        "    lambda: Path(weight((2, 0, 0)), 'B1', (B1Elem((1, 1)),)).wt(),  # deviation of rank 1\n"
        "    lambda: Path(weight((2, 0, 0)), 'Ad', (AdjElem((0, 1), (0, 1), 2),)).wt(),\n"
        "    lambda: Path(weight((1, 1, 0)), 'Bn', [B1Elem((0, 1, 1))]).f(0),  # class\n"
        "    lambda: Path(weight((1, 1, 0)), 'B1', [BnElem((0, 1, 1))]).wt(),\n"
        "    lambda: Path(weight((1, 1, 0)), 'B1', [B1Elem((0, 0, 3))]).row,  # level 3\n"
        "    lambda: Path(weight((2, 0, 0)), 'B1', [B1Elem((1, 1))]).row,\n"
        "    lambda: Path(weight((1, 1, 0)), 'Ad', [AdjElem((0, 1, 0), (0, 0, 1), 3)]).row,\n"
        "    lambda: weight([1.5, 0]),\n"
        "    lambda: root([0.5, 1]),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
        "    except ValueError as err:\n"
        "        print(type(err).__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 21


def test_merge_split_roundtrip():
    for n, lvl in ((1, 2), (2, 2), (2, 3)):
        for b, bb in itertools.product(all_b1(n, lvl), all_bn(n, lvl)):
            a = merge_pair(b, bb)
            assert split_adj(a) == (b, bb)


def test_adj_from_weights_worked_values():
    def adj(r, s):  # box-part weight r, barred-part weight s, level 3
        return merge_pair(b1_from_weight(weight(r), 3), bn_from_weight(weight(s), 3))

    assert adj((1, -2, 1), (2, -1, -1)).render() == "rows: [1,2,2,2,2,3],[3,3,3]"
    assert adj((-1, 2, -1), (3, -3, 0)).render() == "rows: [2,3],[3]"
    assert adj((-2, 1, 1), (2, -1, -1)).render() == "rows: [1,2],[3]"


def test_merge_intertwines_small():
    for b, bb in itertools.product(all_b1(2, 1), all_bn(2, 1)):
        pair = TensorProd((b, bb))
        merged = merge_pair(b, bb)
        for i in range(3):
            for op in ("e", "f"):
                lhs = pair.e(i) if op == "e" else pair.f(i)
                rhs = merged.e(i) if op == "e" else merged.f(i)
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    assert merge_pair(*lhs.factors) == rhs


def test_verify_perfect_passes():
    assert verify_perfect(all_b1(2, 3), 3) == []
    assert verify_perfect(all_bn(2, 3), 3) == []
    assert verify_perfect(all_adj(2, 2), 2) == []


def test_verify_perfect_fault_case():
    # closed under every e_i and f_i, but two crystals of different levels:
    # B (x) B splits into one component per ordered pair of them
    assert "B(x)B has 4 components" in verify_perfect(all_b1(2, 1) + all_b1(2, 2), 1)


def test_verify_perfect_names_an_element_missing_from_a_set_not_closed():
    # one failure naming an element e_i or f_i reaches outside the set, no traceback
    assert verify_perfect([B1Elem((1, 0, 0))], 1) == [
        "not closed under e_i/f_i: B1Elem(nu=(0, 0, 1)) is missing"]
    assert verify_perfect(all_b1(2, 2)[:4], 2) == [
        "not closed under e_i/f_i: B1Elem(nu=(1, 1, 0)) is missing"]


def test_verify_perfect_rejects_an_empty_crystal():
    assert verify_perfect([], 1) == ["no elements: an empty crystal is not perfect"]


def test_renders():
    assert B1Elem((1, 1, 1)).render() == "[1,2,3]"
    assert BnElem((0, 1, 2)).render() == "[3~,3~,2~]"
    assert AdjElem((2, 1, 0), (0, 2, 1), 3).render() == "rows: [1,2,2,2,2,3],[3,3,3]"


@pytest.mark.parametrize("n,lvl", XI_GRID)
def test_each_class_writes_what_the_type_switch_wrote(n, lvl):
    # render() and to_json() of every element against one isinstance chain over the classes
    for elem in [*all_b1(n, lvl), *all_bn(n, lvl), *all_adj(n, lvl)]:
        assert elem.render() == render_reference(elem)
        assert elem.to_json() == elem_to_json_reference(elem)


# ------------------------------------------------------------ interned elements

SMALL = [(family, n, lvl) for family in (all_b1, all_bn, all_adj)
         for n in (1, 2, 3) for lvl in (1, 2, 3)]


def _value(elem):
    return None if elem is None else elem._value()


@pytest.mark.parametrize("family,n,lvl", SMALL)
def test_elements_carry_their_own_rule_values(family, n, lvl):
    # row, wt, hash, e_i and f_i against the uncached rules on the value alone,
    # read twice: the second read comes from the memo the first one filled
    for b in family(n, lvl):
        row, wa, h, ops = element_rule(b)
        assert (b.row, b.wa, hash(b), b.wt().a) == (row, wa, h, wa)
        assert [(b.eps(i), b.phi(i)) for i in range(n + 1)] == list(row)
        for _ in range(2):
            for i in range(n + 1):
                assert (_value(b.e(i)), _value(b.f(i))) == (ops["e", i], ops["f", i]), (b, i)


@pytest.mark.parametrize("family,n,lvl", SMALL)
def test_a_value_is_built_once(family, n, lvl):
    perfect._drop()  # no drop can fall between building b and building it again
    for b in family(n, lvl):
        assert type(b)(*b._value()) is b and pickle.loads(pickle.dumps(b)) is b
        for i in range(n + 1):
            for out in (b.e(i), b.f(i)):
                assert out is None or type(out)(*out._value()) is out


def test_memo_slots_are_filled_by_rule_only():
    # f_i's result learns its e_i only when asked, by its own rule: e_i(f_i b) == b
    # stays a check of the rules, not of the memo
    for b in (B1Elem((1, 1, 1)), BnElem((1, 1, 1)), AdjElem((0, 1, 0), (0, 1, 0), 3)):
        perfect._drop()
        b = type(b)(*b._value())  # fresh, with every slot empty
        m = b.n + 1
        assert all(slot is perfect._ASK for slot in b._ops)
        lowered = 0
        for i in range(m):
            y = b.f(i)
            assert b._ops[m + i] is y
            if y is not None:
                lowered += 1
                assert y._ops[i] is perfect._ASK and y._ops[m + i] is perfect._ASK
                assert y.e(i) is b and y._ops[i] is b
        assert lowered >= 2


def test_a_drop_keeps_equality_by_value():
    old = AdjElem((0, 1, 0), (0, 1, 0), 3)
    down = old.f(0)
    perfect._drop()
    new = AdjElem((0, 1, 0), (0, 1, 0), 3)
    assert new is not old and new == old and hash(new) == hash(old)
    assert old._ops == [perfect._ASK] * 6  # dropped memos hold no neighbour alive
    assert old.f(0) == down and old.f(0) is new.f(0)
    assert {old: 1}[new] == 1


def test_invalid_values_are_never_interned_under_optimize():
    code = (
        "from affine_crystals import perfect\n"
        "from affine_crystals.perfect import AdjElem, B1Elem, BnElem\n"
        "before = len(perfect._TABLE)\n"
        "for make in [lambda: B1Elem((-1, 2)), lambda: BnElem((3,)), lambda: B1Elem(()),\n"
        "             lambda: AdjElem((1, 0), (1, 0), 2), lambda: AdjElem((0, 1), (0, 2), 2)]:\n"
        "    for _ in range(2):\n"
        "        try:\n"
        "            make()\n"
        "            print('accepted')\n"
        "        except ValueError:\n"
        "            print('ValueError')\n"
        "print(len(perfect._TABLE) - before)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 10 + ["0"]


def test_a_float_entry_never_poisons_the_intern_table_under_optimize():
    # B1Elem((1.0, 1, 1)) was interned under (1, 1, 1)'s key, as the float equals and
    # hashes as the int: the int element built next then wrote [1.0, 1, 1] and its
    # render() raised TypeError.  Each entry goes through operator.index first
    code = (
        "from affine_crystals.perfect import AdjElem, B1Elem, BnElem\n"
        "for make in [lambda: B1Elem((1.0, 1, 1)), lambda: BnElem([1, 1.0, 1]),\n"
        "             lambda: AdjElem((0, 1.0), (0, 1), 2), lambda: AdjElem((0, 1), (0, 1), 2.0),\n"
        "             lambda: B1Elem(3), lambda: AdjElem((0, 1), None, 2)]:\n"
        "    for _ in range(2):\n"
        "        try:\n"
        "            make()\n"
        "            print('accepted')\n"
        "        except ValueError as err:\n"
        "            print('ValueError', len(str(err).splitlines()))\n"
        "for b in (B1Elem((1, 1, 1)), BnElem((1, 1, 1)), AdjElem((0, 1), (0, 1), 2), B1Elem((True, 0))):\n"
        "    print(b.render(), b.to_json())\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError 1"] * 12 + [
        "[1,2,3] {'nu': [1, 1, 1]}", "[3~,2~,1~] {'nubar': [1, 1, 1]}",
        "rows: [1,2] {'mbar': [0, 1], 'm': [0, 1], 'cap': 2}", "[1] {'nu': [1, 0]}"]


_WRITE_BALLS = """
import pickle, sys
from affine_crystals.cartan import weight
from affine_crystals.crystal_core import generate_graph
from affine_crystals.paths import ground_path
from affine_crystals.perfect import all_adj, all_bn
balls = [generate_graph(ground_path(weight((2, 1, 0)), kind), max_nodes=150)
         for kind in ("B1", "Bn", "Ad")]
elems = all_bn(2, 2) + all_adj(2, 2)
blob = ([(g.nodes, g.edges) for g in balls], elems, [hash(b) for b in elems])
sys.stdout.buffer.write(pickle.dumps(blob))
"""

_READ_BALLS = """
import pickle, sys
from affine_crystals.crystal_core import generate_graph
from affine_crystals.paths import ground_path
balls, elems, hashes = pickle.loads(sys.stdin.buffer.read())
for nodes, edges in balls:
    g = generate_graph(ground_path(nodes[0].lam, nodes[0].kind), max_nodes=len(nodes))
    assert g.nodes == nodes and g.edges == edges
    here = set(g.nodes)
    assert all(p in here for p in nodes) and set(nodes) == here
    for src, op, i, dst in edges:
        assert getattr(nodes[src], op)(i) == nodes[dst]
        assert getattr(nodes[dst], "e" if op == "f" else "f")(i) == nodes[src]
assert [hash(b) for b in elems] == hashes
for b in elems:
    assert type(b)(*b._value()) is b
    for i in range(3):
        assert b.f(i) is None or b.f(i).e(i) is b
print("ok")
"""


def test_pickled_ball_nodes_load_in_another_process():
    # elements pickle as their value and re-intern on load; the ints-only element
    # hash is the same in both processes, the paths' hashes are recomputed
    def run(code, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", code], input=data, capture_output=True,
                              env=env, check=True).stdout

    blob = run(_WRITE_BALLS, "1")
    assert run(_READ_BALLS, "2", blob) == b"ok\n"
