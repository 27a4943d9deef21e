"""Reconstruction of the three path realizations from kernel filtrations,
the one-factor peeling steps, and the end-to-end cross-check pipeline.

Each path factor is ``paths.factor_from_content`` of one kernel-filtration step:

    row model factor i:    ker x^{i+1} - ker x^i
    column model factor i: ker xbar^{i+1} - ker xbar^i
    adjoint factor i:      merge_pair of the box part from ker (x xbar)^{i+1} - ker xbar(x xbar)^i
                           and the barred part from ker xbar(x xbar)^i - ker (x xbar)^i

where the adjoint parts take position 0 of the row model over the
(-1)-rotated weight (box side) and of the column model over the weight
itself (barred side).

The column-0 peel strips a wall tuple; the adjoint peel splits a word's own
lowering steps at position 0, so neither raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import RootVec, Weight, cl_root, root, rotate
from .linalg import PRIME, GradedMap, check_field
from .paths import Path, factor_from_content, from_word, lowering_steps, path_to_json, word_alpha
from .perfect import AdjElem, B1Elem, BnElem, merge_pair
from .quiver import (
    KernelTable,
    WallMap,
    commutant_basis,
    generic_kernel_table,
    is_stable,
    wall_graded_map,
)
from .walls import PATH_KIND, WallTuple, path_to_walls, strip_column0, walls_to_json


def _row_path(kt: KernelTable, lam: Weight, kind: str, seq: str) -> Path:
    """Factor i of the row (B1) or column (Bn) model from the step seq[i + 1] - seq[i]."""
    steps = [kt.at(seq, i + 1) - kt.at(seq, i) for i in range(len(getattr(kt, seq)) - 1)]
    return Path(lam, kind, [factor_from_content(lam, kind, i, d) for i, d in enumerate(steps)])


def b1_path_from_kernels(kt: KernelTable, lam: Weight) -> Path:
    return _row_path(kt, lam, "B1", "x_pow")


def bn_path_from_kernels(kt: KernelTable, lam: Weight) -> Path:
    return _row_path(kt, lam, "Bn", "xbar_pow")


def adj_path_from_kernels(kt: KernelTable, lam: Weight) -> Path:
    box_lam = rotate(lam, -1)
    factors = [merge_pair(
        factor_from_content(box_lam, "B1", 0, kt.at("xy_pow", i + 1) - kt.at("yxy_pow", i)),
        factor_from_content(lam, "Bn", 0, kt.at("yxy_pow", i) - kt.at("xy_pow", i)),
    ) for i in range(max(len(kt.xy_pow), len(kt.yxy_pow)))]
    return Path(lam, "Ad", factors)


# ------------------------------------------------------------ peeling steps

def peel_column0(walls: WallTuple) -> tuple[WallTuple, B1Elem | BnElem]:
    """Strip column 0; the emitted factor is position 0 of the tuple's path
    (a B1Elem for a P1 tuple, a BnElem for a Pn tuple)."""
    rest, beta = strip_column0(walls)
    return rest, factor_from_content(walls.lam, PATH_KIND[walls.kind], 0, beta)


def peel_adj(lam: Weight, word) -> tuple[tuple, AdjElem]:
    """One adjoint peeling step on a lowering word: (rest word, factor 0).

    B(lam) = B(lam) (x) B^ad_l, with u_lam at the ground factor on the right.
    The Ad ground factor is the same at every position, so positions >= 1 of
    a path form a path over the same lam, and by the tensor product rule
    each f_i of the word acts on exactly one side: on position 0 or on that
    path.  The rest word keeps the letters whose steps changed a position
    >= 1, in written order; it lowers to the path shifted by one position,
    and peel_adj(lam, rest) peels the next factor.
    """
    path, steps = lowering_steps(lam, "Ad", word)
    return tuple((i, 1) for i, pos in reversed(steps) if pos), path.factor(0)


# ---------------------------------------------------------------- pipeline

@dataclass
class IsoReport:
    lam: Weight
    word: tuple
    alpha: RootVec
    ok: bool = False
    mismatches: list[str] = field(default_factory=list)
    direct: dict = field(default_factory=dict)     # kind -> Path
    geometric: dict = field(default_factory=dict)  # kind -> Path
    walls_p1: WallTuple | None = None
    walls_pn: WallTuple | None = None
    x_p1: WallMap | None = None  # the wall map of walls_p1, degree +1
    x_pn: WallMap | None = None  # the wall map of walls_pn, degree -1
    basis: list = field(default_factory=list)  # the commutant basis of x_p1 samples come from
    xbar: GradedMap | None = None  # the table's first agreeing sample; stability is ranked at each
    table: KernelTable | None = None
    stable: bool = False

    commutant_dim = property(lambda self: len(self.basis))

    def first_mismatch(self) -> str:
        return self.mismatches[0] if self.mismatches else ""


def _compare(direct: Path, geom: Path, kind: str, mismatches: list[str]):
    top = max(len(direct.devs), len(geom.devs)) + 1
    for k in range(top):
        if direct.factor(k) != geom.factor(k):
            mismatches.append(
                f"{kind} paths differ first at position {k}: "
                f"{direct.factor(k)} vs {geom.factor(k)}"
            )
            return


def run_pipeline(lam: Weight, word, seed: int = 0, p: int | None = PRIME) -> IsoReport:
    """Direct paths vs kernel-table reconstructions for one lowering word."""
    check_field(p)
    word = tuple(word)
    alpha = root(word_alpha(lam.n, word))
    report = IsoReport(lam=lam, word=word, alpha=alpha)

    steps = {}
    for kind in ("B1", "Bn"):
        report.direct[kind], steps[kind] = lowering_steps(lam, kind, word)
    report.direct["Ad"] = from_word(lam, "Ad", word)
    if cl_root(alpha) != lam - report.direct["B1"].wt():
        raise ValueError(f"word content {alpha} does not match the weight of its B1 path")

    report.walls_p1 = path_to_walls(report.direct["B1"], steps["B1"], alpha)
    report.walls_pn = path_to_walls(report.direct["Bn"], steps["Bn"], alpha)
    x = report.x_p1 = wall_graded_map(report.walls_p1)
    report.x_pn = wall_graded_map(report.walls_pn)

    basis = report.basis = commutant_basis(x)
    report.table, agreeing = generic_kernel_table(x, basis, seed=seed, p=p)
    report.xbar = agreeing[0]

    report.geometric["B1"] = b1_path_from_kernels(report.table, lam)
    report.geometric["Bn"] = bn_path_from_kernels(report.table, lam)
    report.geometric["Ad"] = adj_path_from_kernels(report.table, lam)

    for kind in ("B1", "Bn", "Ad"):
        _compare(report.direct[kind], report.geometric[kind], kind, report.mismatches)

    report.stable = all(_stable_once(lam, x, xbar, p) for xbar in agreeing)
    if not report.stable:
        report.mismatches.append("generic framing failed the stability criterion")
    report.ok = not report.mismatches
    return report


def _stable_once(lam: Weight, x: WallMap, xbar: GradedMap, p) -> bool:
    return is_stable(x, xbar, lam, p)


def report_to_json(report: IsoReport) -> dict:
    return {
        "schema": "v1",
        "lambda": list(report.lam.a),
        "word": [[i, m] for i, m in report.word],
        "alpha": list(report.alpha.k),
        "ok": report.ok,
        "mismatches": report.mismatches,
        "paths_direct": {k: path_to_json(v) for k, v in report.direct.items()},
        "paths_geometric": {k: path_to_json(v) for k, v in report.geometric.items()},
        "walls": {
            "p1": walls_to_json(report.walls_p1),
            "pn": walls_to_json(report.walls_pn),
        },
        "matrix_units": {
            "x": [u.to_json() for u in report.x_p1.units()],
            "xbar": [u.to_json() for u in report.x_pn.units()],
        },
        "commutant_dim": report.commutant_dim,
        "kernel_table": report.table.to_json(),
        "stable": report.stable,
    }
