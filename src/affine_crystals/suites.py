"""Named verification suites: the worked example, the pair-merge isomorphism,
perfectness, crystal axioms, and the cross-model bridge.

Each suite returns a list of Check records; the CLI prints one line per check
and the acceptance tests assert them individually.  A check that runs over
many cases is a generator of failure witnesses, read up to its first one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import comb

from . import golden
from .cartan import RootVec, Weight, rotate, weight, zero_root
from .crystal_core import check_axioms, eps_weight, generate_graph, phi_weight, TensorProd
from .iso import (
    adj_path_from_kernels,
    b1_path_from_kernels,
    bn_path_from_kernels,
    peel_adj,
    peel_column0,
    run_pipeline,
)
from .linalg import PRIME
from .paths import ground_path
from .perfect import (
    all_adj,
    all_b1,
    all_bn,
    ground_adj,
    ground_b1,
    ground_bn,
    merge_pair,
    verify_perfect,
)
from .quiver import (
    KernelTable,
    check_moment,
    generic_kernel_table,
    is_nilpotent,
    wall_graded_map,
)
from .walls import column_content, validate


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"{self.name}: {'PASS' if self.ok else 'FAIL'}" + (
            f" ({self.detail})" if self.detail and not self.ok else ""
        )


def _check(out: list[Check], name: str, faults):
    """Record a check from its failure witnesses: it passes when there is none,
    and a failure reports the first."""
    witness = next(iter(faults), None)
    out.append(Check(name, witness is None, witness or ""))


def reference_table() -> KernelTable:
    """The frozen kernel table of the worked example."""
    rv = lambda rows: tuple(RootVec(r) for r in rows)
    return KernelTable(
        alpha=golden.ALPHA,
        x_pow=rv(golden.KER_X),
        xbar_pow=rv(golden.KER_XBAR),
        xy_pow=rv(golden.KER_XXBAR),
        yxy_pow=rv(golden.KER_XBAR_XXBAR),
    )


def random_dominant(n: int, lvl: int, rng: random.Random) -> Weight:
    cuts = sorted(rng.randrange(lvl + 1) for _ in range(n))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [lvl])]
    return weight(parts)


def random_word(lam: Weight, length: int, rng: random.Random, kind: str = "B1"):
    """A lowering word that never annihilates, in written order."""
    p = ground_path(lam, kind)
    seq: list[int] = []
    for _ in range(length):
        options = [i for i in range(lam.n + 1) if p.phi(i) > 0]
        if not options:
            break
        i = rng.choice(options)
        p = p.f(i)
        seq.append(i)
    return tuple((i, 1) for i in reversed(seq))


# ------------------------------------------------------------------ example

def _golden_faults(parts, elapsed: float):
    """A witness for each (name, value, golden value) part that differs, then
    one for a run over the 5 s budget."""
    for name, got, want in parts:
        if got != want:
            yield f"{name} {got} != golden {want}"
    if elapsed >= 5.0:
        yield f"elapsed {elapsed:.2f}s"


def suite_example(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    lam, word = golden.LAM, golden.WORD
    t0 = time.monotonic()
    rep = run_pipeline(lam, word, seed=seed)
    elapsed = time.monotonic() - t0
    p1, pn, pad = rep.direct["B1"], rep.direct["Bn"], rep.direct["Ad"]

    _check(out, "A1 worked example paths, all three models", _golden_faults([
        ("B1 factors", [p1.factor(k).nu for k in range(5)], golden.P1_FACTORS),
        ("Bn factors", [pn.factor(k).nubar for k in range(6)], golden.PN_FACTORS),
        ("Ad factors", [(f.mbar, f.m, f.k) for f in map(pad.factor, range(4))],
         golden.AD_FACTORS),
        ("B1 renders", [p1.factor(k).render() for k in range(5)], golden.P1_RENDERS),
        ("Bn renders", [pn.factor(k).render() for k in range(6)], golden.PN_RENDERS),
        ("Ad renders", [pad.factor(k).render() for k in range(4)], golden.AD_RENDERS),
    ], elapsed))

    x = rep.x_p1
    walls = [(f"{kind} {key}", getattr(got, key), want[key])
             for kind, got, want in (("P1", rep.walls_p1, golden.WALLS_P1),
                                     ("Pn", rep.walls_pn, golden.WALLS_PN))
             for key in ("charges", "heights")]
    units = [(f"{d} units", sorted((u.direction, u.s, u.src, u.dst) for u in got.units()),
              sorted((d, *u) for u in want))
             for d, got, want in (("x", x, golden.X_UNITS), ("xbar", rep.x_pn, golden.XBAR_UNITS))]
    _check(out, "A2 wall tuples and matrix units reconstructed",
           _golden_faults(walls + units, elapsed))

    out.append(Check("A3 commutant fiber dimension is 29",
                     rep.commutant_dim == golden.COMMUTANT_DIM, f"dim={rep.commutant_dim}"))

    ref = reference_table()
    _check(out, "A4 generic kernel tables match the frozen tables (3 seeds)",
           (f"table at seed {s} differs" for s in (seed, seed + 1, seed + 2)
            if (rep.table if s == seed else generic_kernel_table(x, rep.basis, seed=s)[0]) != ref))

    g1 = b1_path_from_kernels(ref, lam)
    gn = bn_path_from_kernels(ref, lam)
    gad = adj_path_from_kernels(ref, lam)
    out.append(Check("A5 kernel-table reconstructions reproduce the paths",
                     (g1, gn, gad) == (p1, pn, pad)))

    out.append(Check("extra: fixed wall pair does not commute",
                     not check_moment(x, rep.x_pn.dense(), PRIME)))
    out.append(Check("extra: wall map is nilpotent", is_nilpotent(x)))
    out.append(Check("extra: full pipeline report passes", rep.ok, rep.first_mismatch()))

    rest, fac = peel_adj(lam, word)
    rest_rep = run_pipeline(lam, rest, seed=seed)
    _, fac2 = peel_adj(lam, rest)
    out.append(Check("extra: adjoint peeling emits positions 0 and 1",
                     fac == gad.factor(0) and rest_rep.ok
                     and rest_rep.geometric["Ad"].factor(0) == fac2 == pad.factor(1)))
    return out


# ---------------------------------------------------------------- pair merge

XI_GRID = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2))


def _xi_faults():
    t0 = time.monotonic()
    for n, lvl in XI_GRID:
        rows, cols = all_b1(n, lvl), all_bn(n, lvl)
        images = {}
        for b in rows:
            for bb in cols:
                images[(b, bb)] = merge_pair(b, bb)
        target = comb(lvl + n, n) ** 2
        if len(set(images.values())) != target or len(images) != target:
            yield f"cardinality off at (n,l)=({n},{lvl})"
        if set(images.values()) != set(all_adj(n, lvl)):
            yield f"image misses elements at ({n},{lvl})"
        for (b, bb), a in images.items():
            pair = TensorProd((b, bb))
            for i in range(n + 1):
                for op in ("e", "f"):
                    lhs = pair.e(i) if op == "e" else pair.f(i)
                    rhs = a.e(i) if op == "e" else a.f(i)
                    if (merge_pair(*lhs.factors) if lhs is not None else None) != rhs:
                        yield f"intertwining fails at ({n},{lvl}) i={i} op={op} {b},{bb}"
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        yield f"elapsed {elapsed:.2f}s"


def suite_xi() -> list[Check]:
    out: list[Check] = []
    _check(out, "A6 pair merge is an isomorphism on the whole grid", _xi_faults())
    return out


# --------------------------------------------------------------- perfectness

def _perfect_faults():
    for n, lvl in XI_GRID:
        for name, elems in (
            ("row", all_b1(n, lvl)),
            ("column", all_bn(n, lvl)),
            ("adjoint", all_adj(n, lvl)),
        ):
            failures = verify_perfect(elems, lvl)
            if failures:
                yield f"{name} crystal at ({n},{lvl}): {failures[0]}"


def suite_perfect() -> list[Check]:
    out: list[Check] = []
    _check(out, "A7 perfectness conditions hold on the grid", _perfect_faults())
    return out


# -------------------------------------------------------------------- axioms

def _ground_faults(rng: random.Random):
    for _ in range(200):
        n = rng.randint(1, 4)
        lvl = rng.randint(1, 4)
        lam = random_dominant(n, lvl, rng)
        b1, bn, ad = ground_b1(lam, 0), ground_bn(lam, 0), ground_adj(lam)
        if not (
            phi_weight(b1) == lam
            and eps_weight(b1) == rotate(lam, 1)
            and phi_weight(bn) == lam
            and eps_weight(bn) == rotate(lam, -1)
            and phi_weight(ad) == lam
            and eps_weight(ad) == lam
        ):
            yield f"ground identities fail for n={n}, lam={lam}"


def _ball_faults(rng: random.Random):
    kinds = ("B1", "Bn", "Ad")
    for trial in range(5):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        bad = check_axioms(generate_graph(ground_path(lam, kinds[trial % 3]), max_nodes=500))
        if bad:
            yield f"{kinds[trial % 3]} ball of {lam}: {bad[0]}"


def suite_axioms(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    rng = random.Random(seed)
    _check(out, "A8 ground-state eps/phi identities (200 random weights)", _ground_faults(rng))
    _check(out, "A9 crystal axioms on 500-element path balls", _ball_faults(rng))
    return out


# -------------------------------------------------------------------- bridge

def _bridge_faults(reports):
    for rep in reports:
        if not rep.ok:
            yield f"pipeline fails for {rep.lam} word {rep.word}: {rep.first_mismatch()}"
        acc = zero_root(rep.lam.n)
        for t in range(len(rep.table.xbar_pow)):
            if rep.table.at("xbar_pow", t) != acc:
                yield f"bridge kernel mismatch at power {t} for {rep.lam}"
            acc = acc + column_content(rep.walls_pn, t)


def _peel_faults(reports):
    for rep in reports:
        lam, walls = rep.lam, rep.walls_p1
        if walls.block_count() == 0:
            continue
        rest, elem = peel_column0(walls)
        if elem != rep.direct["B1"].factor(0):
            yield f"peeled factor is not position 0 for {lam}"
        okv, msg = validate(rest)
        if not okv:
            yield f"stripped tuple invalid: {msg}"
        ker = rep.x_p1.index.power_kernels
        if rest.block_count():
            ker2 = wall_graded_map(rest).index.power_kernels
            shifted = [ker[min(k + 1, len(ker) - 1)] - ker[1] for k in range(len(ker2))]
            if ker2 != tuple(shifted):
                yield f"kernel shift law fails for {lam}"
        if not (
            eps_weight(ground_b1(lam, 0)) == rotate(lam, 1)
            and eps_weight(ground_bn(lam, 0)) == rotate(lam, -1)
        ):
            yield f"rotation consistency fails for {lam}"


def suite_bridge(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    rng = random.Random(seed)
    cases = []
    for _ in range(50):
        n = rng.randint(1, 3)
        lam = random_dominant(n, rng.randint(1, 3), rng)
        cases.append((lam, random_word(lam, rng.randint(0, 12), rng)))

    reports = [run_pipeline(lam, word, seed=rng.randrange(10**6)) for lam, word in cases]
    _check(out, "A10 cross-model bridge over 50 random words", _bridge_faults(reports))
    _check(out, "A11 peeling step and kernel shift law on 50 components", _peel_faults(reports))
    _check(out, "A12 generic framings are stable (3 seeds per component)",
           (f"generic framing unstable for {rep.lam} word {rep.word}"
            for rep in reports if not rep.stable))
    return out


SUITES = {
    "example": suite_example,
    "xi": lambda seed: suite_xi(),
    "perfect": lambda seed: suite_perfect(),
    "axioms": suite_axioms,
    "bridge": suite_bridge,
}


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name == "all":
        return [check for suite in SUITES.values() for check in suite(seed)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    return SUITES[name](seed)
