"""Quiver-variety data at generic points of a wall-tuple component.

A wall tuple determines a nilpotent graded partial permutation x: one matrix
unit per horizontal adjacency of blocks, indices given by the per-color
enumeration of blocks in lex order wall > row > column.  Each wall row is one
Jordan string of x, and x is carried as those strings (``WallMap``), read in
one pass over the rows; the matrix units are the strings' links.  Every stage
reads the strings through ``WallMap.index``, built once per map; a dense x
exists only as ``WallMap.dense()``, for one verify check and the test
oracles.  A component is represented by the canonical pair: x fixed, the
opposite-degree partner xbar sampled generically inside its commutant, which
is exactly the conormal fiber since the moment map vanishes iff the
commutator does; ``check_moment`` tests [x, xbar] = 0 on the strings, with
no matrix product.  Group quotients are never formed.

The commutant needs no linear solve: it is spanned by the truncated shifts
between pairs of strings whose colour degree fits.  These are 0/1 maps with
disjoint supports, so the basis is kept as a list of supports (cells) and a
sample writes one coefficient into each support's cells; see
``commutant_basis`` for the construction and the order of its basis.

Kernel tables take no dense powers.  ker x^k is counted on the strings, and
xbar^k commutes with x, so its image is the k[x]-module generated by its
columns at the string starts: one module echelon of those per power gives the
other sequences as counts of string shifts; see ``kernel_table_at``.
Stability at a generic framing is a count per component at each of the kernel
table's agreeing samples: the kernel of xbar on the string ends against the
framing's dimension; see ``is_stable``.

Generic values are the componentwise minimum over >= 3 samples of one
``Random(seed)`` stream, at least two of which must equal it (all three, unless a
minimum was taken).  Agreement is checked first, so the minimum is taken only
when a sample differs; too few agreeing samples trigger resampling and, past a
bound, a GenericityError.  Coefficients are drawn by ``draws``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, repeat
from math import gcd

from .cartan import RootVec, Weight
from .linalg import PRIME, GradedMap, _reduce, check_field, gm_from_blocks, rank, zero_blocks
from .walls import SIGN, WallTuple, block_color


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


StringIndex = namedtuple("StringIndex", "order place prev nxt ends power_kernels")


@dataclass(frozen=True)
class WallMap:
    """The wall map x as its Jordan strings: strings[t] lists (component, index)
    from the string's start, and x sends each vector to the next, the last to 0."""

    shift: int
    dims: tuple[int, ...]
    strings: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.dims)

    @cached_property
    def index(self) -> StringIndex:
        """The string data every stage reads, built once per map.  Per component
        j: place[j][c], the string, depth and height (vectors to the string's end,
        itself included) of basis vector c; order[j], V_j's basis by (height,
        string) descending; prev[j], nxt[j], each vector's neighbours on its string
        (None past an end); ends[j], the string ends; power_kernels[k], ker x^k:
        x^k kills the vectors of height <= k, the others onto distinct ones."""
        place, prev, nxt = ([[None] * n for n in self.dims] for _ in range(3))
        for t, string in enumerate(self.strings):
            for d, (j, c) in enumerate(string):
                place[j][c] = (t, d, len(string) - d)
            for (i, a), (j, b) in zip(string, string[1:]):
                nxt[i][a], prev[j][b] = b, a
        top = range(max(map(len, self.strings), default=0) + 1)
        return StringIndex(
            tuple(tuple(sorted(range(len(ps)), key=lambda c: (ps[c][2], ps[c][0]), reverse=True))
                  for ps in place),
            tuple(map(tuple, place)), tuple(map(tuple, prev)), tuple(map(tuple, nxt)),
            tuple(tuple(c for c, b in enumerate(bs) if b is None) for bs in nxt),
            tuple(RootVec(tuple(sum(h <= k for _, _, h in ps) for ps in place)) for k in top))

    def units(self) -> list[MatrixUnit]:
        """x as matrix units, one per link, each row read from column 0.  s is the
        colour of the unit's target (x, degree +1) or source (xbar, degree -1)."""
        up = self.shift == 1
        return [MatrixUnit("x" if up else "xbar", (b if up else a)[0], a[1], b[1])
                for string in self.strings for a, b in reversed(list(zip(string, string[1:])))]

    def dense(self) -> GradedMap:
        """x as a 0/1 graded map, one 1 per link of a string."""
        blocks = zero_blocks(self.dims, self.shift)
        for string in self.strings:
            for (_, c), (t, r) in zip(string, string[1:]):
                blocks[t][r][c] = 1
        return gm_from_blocks(self.dims, self.shift, blocks)


def wall_graded_map(walls: WallTuple) -> WallMap:
    """The wall map, of degree +1 for P1 and -1 for Pn, as its Jordan strings.

    Each wall row is walked from column 0 leftwards, walls and rows in
    order, and each block is numbered within its colour as it is reached.
    The map sends a block at column c > 0 to its right-hand neighbour, whose
    colour is one up (P1) or one down (Pn), so each row read from its left
    end is one string.
    """
    n = walls.n
    seen = [0] * (n + 1)
    strings = []
    for charge, heights in zip(walls.charges, walls.heights):
        for row in range(1, (heights[0] if heights else 0) + 1):
            string = []
            for col, height in enumerate(heights):
                if height < row:
                    break
                color = block_color(n, walls.kind, charge, row, col)
                string.append((color, seen[color]))
                seen[color] += 1
            strings.append(tuple(reversed(string)))
    return WallMap(SIGN[walls.kind], tuple(seen), tuple(strings))


# ------------------------------------------------------------- commutant

def is_nilpotent(x: WallMap) -> bool:
    """True iff x is a wall map: of degree +1 or -1, with nonempty strings that
    cover each component's basis exactly once and step the colour by x.shift."""
    return (x.shift in (1, -1) and all(x.strings)
            and sorted(v for string in x.strings for v in string)
            == [(i, k) for i, n in enumerate(x.dims) for k in range(n)]
            and all(b[0] == (a[0] + x.shift) % x.m
                    for string in x.strings for a, b in zip(string, string[1:])))


def commutant_basis(x: WallMap) -> list[tuple[tuple[int, int, int], ...]]:
    """Basis of the opposite-degree maps commuting with the wall map x.

    The moment map vanishes iff the commutator does, so these are precisely
    the conormal-fiber directions.  x is a nilpotent partial permutation, so
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
    if not is_nilpotent(x):
        raise ValueError(f"not a wall map (degree {x.shift}): its strings must cover each "
                         "basis vector once, one colour step of +1 or -1 apart")
    supports = []
    for sa in x.strings:
        for sb in x.strings:
            for d in range(max(0, len(sa) - len(sb)), len(sa)):
                if sa[d][0] == (sb[0][0] - x.shift) % x.m:
                    supports.append(tuple(sorted(
                        (t, r, c) for (t, r), (_, c) in zip(sa[d:], sb))))
    return sorted(supports, key=lambda cells: cells[-1])


def sample_in_commutant(x: WallMap, basis, rng: random.Random,
                        p: int | None = PRIME) -> GradedMap:
    """Deterministic random combination of the supports of x's commutant basis.

    One coefficient is drawn per support, in basis order, and written into
    the support's cells.  The supports are disjoint and every coefficient is
    below p, so this is the sum of coefficient times basis map, reduced mod p.
    """
    check_field(p)
    blocks = zero_blocks(x.dims, -x.shift)
    for cells, co in zip(basis, draws(rng, len(basis), p)):
        for t, r, c in cells:
            blocks[t][r][c] = co
    return gm_from_blocks(x.dims, -x.shift, blocks)


def draws(rng: random.Random, n: int, p: int | None = PRIME) -> list[int]:
    """n coefficients below p (10^6 over Q) by CPython's rule for randrange, written out
    so that no Python version changes them: hi.bit_length() bits until below hi."""
    check_field(p)
    hi = p if p is not None else 10**6
    return list(islice(filter(hi.__gt__, map(rng.getrandbits, repeat(hi.bit_length()))), n))


# ------------------------------------------------------- point diagnostics

def check_moment(x: WallMap, xbar: GradedMap, p: int | None = PRIME) -> bool:
    """True iff [x, xbar] = 0 (equivalently, the moment map vanishes).

    x moves each vector one step along its string, so with no product
    (x xbar)[u][v] = xbar[prev u][v] and (xbar x)[u][v] = xbar[u][next v],
    an entry before a string's start or past its end being 0.  Rows equal
    as integers pass at once; others are compared mod p.
    """
    check_field(p)
    for i, prev in enumerate(x.index.prev):
        cols = x.index.nxt[(i - x.shift - xbar.shift) % x.m]
        before, here = xbar.blocks[(i - x.shift) % x.m], xbar.blocks[i]
        for r, a in enumerate(prev):
            lhs = list(before[a]) if a is not None else [0] * len(cols)
            rhs = [0 if c is None else here[r][c] for c in cols]
            if lhs != rhs and (p is None or any((u - w) % p for u, w in zip(lhs, rhs))):
                return False
    return True


def _check_partner(x: WallMap, xbar: GradedMap) -> None:
    """Raise ValueError unless xbar has x's dims and the opposite degree."""
    if xbar.shift != -x.shift or xbar.dims != x.dims:
        raise ValueError(f"partner of degree {xbar.shift} on dims {xbar.dims} does not pair "
                         f"with a wall map of degree {x.shift} on dims {x.dims}")


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


def kernel_table_at(x: WallMap, xbar: GradedMap, p: int | None = PRIME) -> KernelTable:
    """Kernel table at a commuting point (x, xbar) with x a wall map.

    ker x^k is ``x.index.power_kernels``.  (x xbar)^k = xbar^k x^k, xbar (x
    xbar)^(k-1) = xbar^k x^(k-1), and xbar^k commutes with x, so rank xbar^k x^t
    on V_i is dim x^t U_(i + k deg xbar), U = im xbar^k: the k[x]-module generated
    by the columns xbar^k e_(B_0), one per string B, each xbar times the last;
    one in the module of those before it stays so at later powers, and is
    dropped.  ``_module_echelon`` reduces them to generators g whose shifts
    x^e g, e < height, have distinct leading terms; the rank counts those with
    e >= t.  Only actual columns go on to the next power, which bounds growth over Q.

    One loop over k appends ker xbar^k, then (k >= 1) ker xbar (x xbar)^(k-1),
    then ker (x xbar)^k, skipping a sequence at alpha, and takes the next power
    while one is below alpha.  Each sequence is nested at a commuting point, so
    a repeat below alpha is a stall: GenericityError names the sequence.
    """
    check_field(p)
    _check_partner(x, xbar)
    if not check_moment(x, xbar, p):
        raise ValueError("kernel table requested at a non-commuting point")
    m, dims, sx, sb, ix = x.m, x.dims, x.shift, xbar.shift, x.index
    cols = [[[(r, v) for r, v in enumerate(col) if v] for col in zip(*xbar.block_out(i))]
            for i in range(m)]
    gens = [(i, [int(c == a) for c in range(dims[i])]) for (i, a), *_ in x.strings]
    seqs = {"ker xbar^k": [], "ker xbar (x xbar)^k": [], "ker (x xbar)^k": []}
    for k in count():
        lead, gens = _module_echelon(ix, gens, sx, p)
        for (name, seq), t in zip(seqs.items(), (0, k - 1, k)):
            if t < 0 or seq and seq[-1] == dims:
                continue
            ranks, base = [0] * m, 0  # the shifts x^e g, t <= e < height, per component
            for i, h in lead:
                if h > t:
                    q, r = divmod(h - t, m)
                    base += q
                    for e in range(r):
                        ranks[(i + e * sx) % m] += 1
            kernel = tuple([n - base - ranks[(i + k * sb) % m] for i, n in enumerate(dims)])
            if seq and seq[-1] == kernel:
                raise GenericityError(f"kernel filtration {name} stabilized at {RootVec(kernel)} "
                                      f"below alpha = {RootVec(dims)}")
            seq.append(kernel)
        if k and all(seq[-1] == dims for seq in seqs.values()):
            xbar_pow, yxy_pow, xy_pow = (tuple(map(RootVec, seq)) for seq in seqs.values())
            return KernelTable(RootVec(dims), ix.power_kernels, xbar_pow, xy_pow, yxy_pow)
        images = []  # xbar^(k+1) e_(B_0): xbar, by its sparse columns, times each column
        for i, g in gens:
            u = [0] * dims[(i + sb) % m]
            for v, col in zip(g, cols[i]):
                if v:
                    for r, w in col:
                        u[r] += v * w
            if any(u := [v % p for v in u] if p is not None else u):
                images.append(((i + sb) % m, u))
        gens = images


def _module_echelon(ix: StringIndex, gens, sx: int, p: int | None):
    """(component, height) of the leading term (first nonzero entry in
    ``ix.order``) of each reduced k[x]-module generator g of gens, (component,
    vector) pairs, and the gens not in the module of those before them.  One g is
    kept per string of a leading term.  A vector led at depth d on the string of
    a g led at d_g <= d loses its leading term to x^(d - d_g) g, fraction-free
    (mod p, or over Q with the gcd divided out of a kept vector); one led at
    d < d_g takes g's place, and g is reduced in turn.  Leading terms strictly
    drop, so this ends, with distinct leading terms on the x^e g, e < height."""
    m, order, place, prev = len(ix.order), ix.order, ix.place, ix.prev
    kept: dict[int, tuple] = {}  # string -> (component, lead, lead depth, shifts)
    needed = []
    for gen in gens:
        (i, u), new = gen, False
        while (a := next(filter(u.__getitem__, order[i]), None)) is not None:
            string, d, _ = place[i][a]
            held = kept.get(string)
            if held is None or d < held[2]:
                if p is None and u is not gen[1] and (div := gcd(*u)) > 1:
                    u = [v // div for v in u]
                kept[string], new = (i, a, d, [u]), True
                if held is None:
                    break
                i, u = held[0], held[3][0]
                continue
            gi, _, dg, shifts = held
            while len(shifts) <= d - dg:
                shifts.append([0 if b is None else shifts[-1][b]
                               for b in prev[(gi + len(shifts) * sx) % m]])
            u = _reduce(u, shifts[d - dg], a, p)
        if new:
            needed.append(gen)
    return [(i, place[i][a][2]) for i, a, _, _ in kept.values()], needed


SEQS = ("x_pow", "xbar_pow", "xy_pow", "yxy_pow")


def _table_min(tables: list[KernelTable]) -> KernelTable:
    out = {}
    for seq in SEQS:
        span = max(len(getattr(t, seq)) for t in tables)
        rows = [RootVec(tuple(map(min, zip(*(t.at(seq, k).k for t in tables)))))
                for k in range(span)]
        while len(rows) > 1 and rows[-1] == rows[-2]:
            rows.pop()
        out[seq] = tuple(rows)
    return KernelTable(tables[0].alpha, **out)


MIN_SAMPLES = 3   # samples drawn before a minimum table may be returned
MAX_SAMPLES = 10  # samples drawn before GenericityError


def generic_kernel_table(x: WallMap, basis, seed: int = 0,
                         p: int | None = PRIME) -> tuple[KernelTable, list[GradedMap]]:
    """(table, agreeing): the componentwise minimum over agreeing samples, all drawn
    from one ``Random(seed)`` stream, and the samples whose table equals it, in draw order.

    A sample agrees when its table equals the minimum table.  Each sampled
    table strictly increases to alpha in every sequence and the minimum drops
    its trailing repeats, so equality is row-by-row agreement, and equal
    tables are their own minimum: ``_table_min`` runs only when one differs.
    """
    check_field(p)
    rng = random.Random(seed)
    samples, tables = [], []
    for _ in range(MAX_SAMPLES):
        samples.append(sample_in_commutant(x, basis, rng, p))
        tables.append(kernel_table_at(x, samples[-1], p))
        if len(tables) >= MIN_SAMPLES:
            lower = tables[0] if tables.count(tables[0]) == len(tables) else _table_min(tables)
            if tables.count(lower) >= 2:
                return lower, [s for s, t in zip(samples, tables) if t == lower]
    lower = _table_min(tables) if tables else None
    raise GenericityError(f"no agreeing generic kernel table: {len(tables)} samples drawn "
                          f"(min_samples {MIN_SAMPLES}), {tables.count(lower)} agreeing with the "
                          f"minimum table {lower.to_json() if lower else {}}")


# ---------------------------------------------------------------- stability

def is_stable(x: WallMap, xbar: GradedMap, lam: Weight, p: int | None = PRIME) -> bool:
    """Whether (x, xbar) is stable under a generic framing, dim W_i = <h_i, lam>.

    ker x in V_i is spanned by the string ends, so K_i = (ker x ∩ ker xbar)_i
    has dimension len(ends) - rank of xbar on the string-end columns, and a
    generic t_i: V_i -> W_i is injective on K_i iff dim K_i <= <h_i, lam>.
    The verdicts form a list, not a generator, so that zip checks the length
    of lam also past an unstable component.
    """
    check_field(p)
    _check_partner(x, xbar)
    return all([len(ends) - rank([[row[c] for c in ends] for row in xbar.block_out(i)], p) <= a
                for i, (ends, a) in enumerate(zip(x.index.ends, lam.a, strict=True)) if ends])
