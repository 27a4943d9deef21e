"""Quiver-variety data at generic points of a wall-tuple component.

A wall tuple determines a strictly triangular graded map (one matrix unit per
horizontal adjacency of blocks, indices given by the per-color enumeration of
blocks in lex order wall > row > column).  A component is represented by the
canonical pair: that map fixed, the opposite-degree partner sampled
generically inside its commutant, which is exactly the conormal fiber since
the moment map vanishes iff the commutator does.  Group quotients are never
formed.

The commutant needs no linear solve.  Each wall row is one Jordan string of
the nilpotent partial permutation x, and the commutant is spanned by the
truncated shifts between pairs of strings whose colour degree fits.  These
are 0/1 maps with disjoint supports, so the basis is kept as a list of
supports (cells) and a sample writes one coefficient into each support's
cells; see ``commutant_basis`` for the construction and the order of its
basis.

Generic values are taken as the componentwise minimum over >= 3 independent
prime-field samples that must agree; disagreement triggers resampling and,
past a bound, a GenericityError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cartan import RootVec, Weight, zero_root
from .linalg import (
    PRIME,
    GradedMap,
    gm_compose,
    gm_from_blocks,
    gm_is_zero,
    gm_kernel_dims,
    gm_power,
    gm_zero,
    rank,
)
from .walls import WallTuple, block_color, total_content


class GenericityError(RuntimeError):
    """Sampling failed to reach agreeing generic values."""


@dataclass(frozen=True)
class MatrixUnit:
    direction: str  # "x" (degree +1) or "xbar" (degree -1)
    s: int
    src: int
    dst: int

    def to_json(self) -> dict:
        return {"dir": self.direction, "s": self.s, "from": self.src, "to": self.dst}


def wall_blocks(n: int, walls: WallTuple):
    """Blocks in lex order (wall, row, column) with colors and o-indices."""
    seen = [0] * (n + 1)
    out = []
    for w, (charge, heights) in enumerate(zip(walls.charges, walls.heights)):
        top = heights[0] if heights else 0
        for row in range(1, top + 1):
            for col in range(len(heights)):
                if heights[col] < row:
                    break
                color = block_color(n, walls.kind, charge, row, col)
                out.append((w, row, col, color, seen[color]))
                seen[color] += 1
    return out


def wall_matrix_units(n: int, walls: WallTuple) -> list[MatrixUnit]:
    """One unit per horizontal adjacency; P1 tuples give the degree +1 map."""
    blocks = wall_blocks(n, walls)
    order = {(w, r, c): o for w, r, c, _, o in blocks}
    units = []
    m = n + 1
    for w, row, col, color, o in blocks:
        if col == 0:
            continue
        right = order[(w, row, col - 1)]
        if walls.kind == "P1":
            units.append(MatrixUnit("x", (color + 1) % m, o, right))
        else:
            units.append(MatrixUnit("xbar", color, o, right))
    return units


def units_to_graded_map(dims, units) -> GradedMap:
    dims = tuple(dims)
    m = len(dims)
    direction = units[0].direction if units else "x"
    shift = 1 if direction == "x" else -1
    blocks = [
        [[0] * dims[(i - shift) % m] for _ in range(dims[i])] for i in range(m)
    ]
    for u in units:
        if u.direction != direction:
            raise ValueError("matrix units of both directions in one map")
        # x unit: v^{s-1}_src -> v^s_dst ; xbar unit: v^s_src -> v^{s-1}_dst
        i = u.s if direction == "x" else (u.s - 1) % m
        blocks[i][u.dst][u.src] = 1
    return gm_from_blocks(dims, shift, blocks)


def wall_graded_map(n: int, walls: WallTuple) -> tuple[GradedMap, list[MatrixUnit]]:
    alpha = total_content(n, walls)
    units = wall_matrix_units(n, walls)
    shift = 1 if walls.kind == "P1" else -1
    if not units:
        return gm_zero(alpha.k, shift), []
    return units_to_graded_map(alpha.k, units), units


# ------------------------------------------------------------- commutant

def _jordan_strings(a: GradedMap) -> list[list[tuple[int, int]]]:
    """Strings [(component, index), ...] of a nilpotent 0/1 partial permutation."""
    nxt: dict[tuple[int, int], tuple[int, int]] = {}
    for i, blk in enumerate(a.blocks):
        for r, row in enumerate(blk):
            for c, v in enumerate(row):
                if v:
                    src = ((i - a.shift) % a.m, c)
                    if v != 1 or src in nxt:
                        raise ValueError("wall map is not a 0/1 partial permutation")
                    nxt[src] = (i, r)
    hit = set(nxt.values())
    if len(hit) < len(nxt):
        raise ValueError("wall map is not a 0/1 partial permutation")
    strings = [[(i, k)] for i in range(a.m) for k in range(a.dims[i]) if (i, k) not in hit]
    for string in strings:
        while string[-1] in nxt:
            string.append(nxt[string[-1]])
    if sum(map(len, strings)) != sum(a.dims):
        raise ValueError("wall map is not nilpotent")
    return strings


def commutant_basis(a: GradedMap) -> list[tuple[tuple[int, int, int], ...]]:
    """Basis of the opposite-degree maps commuting with the wall map a.

    The moment map vanishes iff the commutator does, so these are precisely
    the conormal-fiber directions.  a is a nilpotent partial permutation, so
    its basis vectors split into Jordan strings A_0 -> A_1 -> ... -> 0, and
    the commutant is spanned by the truncated shifts B_k -> A_{k+d} between
    ordered pairs of strings (A of length la, B of length lb), one for each
    offset d in max(0, la - lb) .. la - 1 (Gantmacher, ch. VIII).  The degree
    filter keeps the shifts taking B_0 into the component of A_d.

    Each basis map has 0/1 entries, so it is returned as its support: the
    (block, row, col) cells holding a 1, in the block-major, row-major order
    of the unknown entries.  The supports are disjoint, so the basis holds
    over every field.  Sorting them by their last cell gives exactly the
    reduced-echelon nullspace basis of the commutator equations in that
    order.  A sample draws one coefficient per basis map in this order, so
    the order fixes every sampled xbar and with it the output bytes.
    """
    if a.shift not in (1, -1):
        raise ValueError(f"wall map has degree {a.shift}, expected +1 or -1")
    strings = _jordan_strings(a)
    supports = []
    for sa in strings:
        for sb in strings:
            for d in range(max(0, len(sa) - len(sb)), len(sa)):
                if sa[d][0] == (sb[0][0] - a.shift) % a.m:
                    supports.append(tuple(sorted(
                        (t, r, c) for (t, r), (_, c) in zip(sa[d:], sb))))
    return sorted(supports, key=lambda cells: cells[-1])


def sample_in_commutant(basis, dims, shift: int, rng: random.Random,
                        p: int | None = PRIME) -> GradedMap:
    """Deterministic random combination of the basis supports.

    One coefficient is drawn per support, in basis order, and written into
    the support's cells.  The supports are disjoint and every coefficient is
    below p, so this is the sum of coefficient times basis map, reduced mod p.
    """
    m = len(dims)
    blocks = [[[0] * dims[(i - shift) % m] for _ in range(dims[i])] for i in range(m)]
    hi = p if p is not None else 10**6
    for cells in basis:
        co = rng.randrange(hi)
        for t, r, c in cells:
            blocks[t][r][c] = co
    return gm_from_blocks(dims, shift, blocks)


# ------------------------------------------------------- point diagnostics

def check_moment(x: GradedMap, xbar: GradedMap, p: int | None = PRIME) -> bool:
    """True iff [x, xbar] = 0 (equivalently, the moment map vanishes)."""
    ab = gm_compose(x, xbar, p)
    ba = gm_compose(xbar, x, p)
    for i in range(x.m):
        for r1, r2 in zip(ab.blocks[i], ba.blocks[i]):
            for v1, v2 in zip(r1, r2):
                d = (v1 - v2) % p if p is not None else v1 - v2
                if d:
                    return False
    return True


def is_nilpotent(a: GradedMap, p: int | None = PRIME) -> bool:
    return gm_is_zero(gm_power(a, sum(a.dims), p))


# ------------------------------------------------------------ kernel tables

@dataclass(frozen=True)
class KernelTable:
    """Graded kernel dimensions until stabilization (last row = alpha)."""

    alpha: RootVec
    x_pow: tuple[RootVec, ...]      # ker x^k, k = 0..
    xbar_pow: tuple[RootVec, ...]   # ker xbar^k
    xy_pow: tuple[RootVec, ...]     # ker (x xbar)^k
    yxy_pow: tuple[RootVec, ...]    # ker xbar (x xbar)^k

    def at(self, seq: str, k: int) -> RootVec:
        rows = getattr(self, seq)
        return rows[k] if k < len(rows) else rows[-1]

    def to_json(self) -> dict:
        return {
            "alpha": list(self.alpha.k),
            "ker_x": [list(r.k) for r in self.x_pow],
            "ker_xbar": [list(r.k) for r in self.xbar_pow],
            "ker_xxbar": [list(r.k) for r in self.xy_pow],
            "ker_xbar_xxbar": [list(r.k) for r in self.yxy_pow],
        }


def _kernel_sequence(base: GradedMap, step: GradedMap, alpha: RootVec,
                     p: int | None) -> tuple[RootVec, ...]:
    """ker(base), ker(base o step), ker(base o step^2), ... until stable at alpha."""
    rows = [gm_kernel_dims(base, p)]
    cur = base
    bound = sum(alpha.k) + 2
    for _ in range(bound):
        if rows[-1] == alpha:
            return tuple(rows)
        cur = gm_compose(cur, step, p)
        nxt = gm_kernel_dims(cur, p)
        if nxt == rows[-1]:
            raise GenericityError(
                f"kernel filtration stabilized at {nxt} below alpha = {alpha}"
            )
        rows.append(nxt)
    raise GenericityError(f"kernel filtration failed to stabilize at alpha = {alpha}; "
                          f"rows reached: {', '.join(map(str, rows))}")


def kernel_table_at(x: GradedMap, xbar: GradedMap, p: int | None = PRIME) -> KernelTable:
    """Kernel table at one point; requires a commuting pair."""
    if not check_moment(x, xbar, p):
        raise ValueError("kernel table requested at a non-commuting point")
    alpha = RootVec(x.dims)
    zero = zero_root(len(x.dims) - 1)
    if alpha.is_zero():
        single = (zero,)
        return KernelTable(alpha, single, single, single, single)
    xy = gm_compose(x, xbar, p)
    x_pow = (zero,) + _kernel_sequence(x, x, alpha, p)
    xbar_pow = (zero,) + _kernel_sequence(xbar, xbar, alpha, p)
    xy_pow = (zero,) + _kernel_sequence(xy, xy, alpha, p)
    yxy_pow = _kernel_sequence(xbar, xy, alpha, p)
    return KernelTable(alpha, x_pow, xbar_pow, xy_pow, yxy_pow)


def _table_rows_eq(a: KernelTable, b: KernelTable) -> bool:
    for seq in ("x_pow", "xbar_pow", "xy_pow", "yxy_pow"):
        la, lb = getattr(a, seq), getattr(b, seq)
        for k in range(max(len(la), len(lb))):
            if a.at(seq, k) != b.at(seq, k):
                return False
    return True


def _table_min(tables: list[KernelTable]) -> KernelTable:
    alpha = tables[0].alpha
    out = {}
    for seq in ("x_pow", "xbar_pow", "xy_pow", "yxy_pow"):
        span = max(len(getattr(t, seq)) for t in tables)
        rows = []
        for k in range(span):
            rows.append(RootVec(tuple(
                min(t.at(seq, k).k[i] for t in tables) for i in range(len(alpha.k))
            )))
        while len(rows) > 1 and rows[-1] == rows[-2]:
            rows.pop()
        out[seq] = tuple(rows)
    return KernelTable(alpha, out["x_pow"], out["xbar_pow"], out["xy_pow"], out["yxy_pow"])


def generic_kernel_table(x: GradedMap, basis, seed: int = 0,
                         p: int | None = PRIME, min_samples: int = 3,
                         max_samples: int = 10) -> KernelTable:
    """Componentwise-minimum table over agreeing independent samples."""
    rng = random.Random(seed)
    tables: list[KernelTable] = []
    lower, agree = None, 0
    for _ in range(max_samples):
        xbar = sample_in_commutant(basis, x.dims, -x.shift, rng, p)
        tables.append(kernel_table_at(x, xbar, p))
        lower = _table_min(tables)
        agree = sum(1 for t in tables if _table_rows_eq(t, lower))
        if len(tables) >= min_samples and agree >= 2:
            return lower
    raise GenericityError(f"no agreeing generic kernel table: {len(tables)} samples drawn "
                          f"(min_samples {min_samples}), {agree} agreeing with the "
                          f"minimum table {lower.to_json() if lower else {}}")


# ---------------------------------------------------------------- stability

def sample_framing(lam: Weight, dims, rng: random.Random, p: int | None = PRIME):
    """Random framing maps t_i: V_i -> W_i with dim W_i = <h_i, lam>."""
    hi = p if p is not None else 10**6
    return [
        [[rng.randrange(hi) for _ in range(dims[i])] for _ in range(lam.a[i])]
        for i in range(len(dims))
    ]


def is_stable(x: GradedMap, xbar: GradedMap, framing, p: int | None = PRIME) -> bool:
    """ker x  ∩ ker xbar ∩ ker t = 0, one rank computation per component."""
    m = x.m
    for i in range(m):
        if x.dims[i] == 0:
            continue
        stacked = [list(r) for r in x.block_out(i)]
        stacked += [list(r) for r in xbar.block_out(i)]
        stacked += [list(r) for r in framing[i]]
        if rank(stacked, p) < x.dims[i]:
            return False
    return True
