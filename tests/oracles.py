"""Generic solvers kept only as test oracles for the direct constructions."""

import cProfile
import os
import pstats
import random
from collections import Counter
from fractions import Fraction
from math import lcm

from affine_crystals import quiver
from affine_crystals.cartan import RootVec, Weight, cl_root, pairing, simple_root, zero_root
from affine_crystals.linalg import PRIME, gm_from_blocks, zero_blocks
from affine_crystals.paths import WeightSectionError, ground_elem, path_apply
from affine_crystals.perfect import AdjElem, B1Elem, BnElem
from affine_crystals.quiver import SEQS, GenericityError, KernelTable, MatrixUnit, WallMap
from affine_crystals.walls import block_color


def echelon_reference(rows, ncols: int, p: int | None):
    """Eager fraction-free forward elimination (Bareiss, Math. Comp. 22, 1968),
    in place of rows, reduced mod p over F_p.  Every row below the pivot is
    updated at every step, over Q by exact division by the previous pivot, so
    the pivot rows are Bareiss's.  Returns (pivot rows, pivot columns, original
    indices of the pivot rows); those original rows are a maximal independent
    subset."""
    nrows = len(rows)
    order = list(range(nrows))
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        order[r], order[piv] = order[piv], order[r]
        top = rows[r][c:]
        pv = top[0]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if p is not None:
                if f:
                    row[c:] = [(pv * x - f * y) % p for x, y in zip(row[c:], top)]
            else:
                row[c:] = [(pv * x - f * y) // prev for x, y in zip(row[c:], top)]
        prev = pv
        pivots.append(c)
    return rows[:len(pivots)], pivots, order[:len(pivots)]


def _fresh_rows(a, p):
    return [[v % p for v in row] for row in a] if p is not None else [list(row) for row in a]


def independent_rows(a, p: int | None = PRIME) -> tuple[list, list[int]]:
    """A maximal independent subset of the rows of a, as given, and the pivot columns."""
    _, pivots, picked = echelon_reference(_fresh_rows(a, p), len(a[0]) if a else 0, p)
    return [a[i] for i in picked], pivots


def reference_rank(a, p: int | None = PRIME) -> int:
    """Rank of the rows of a, reduced mod p: the pivot count of eager Bareiss."""
    return len(echelon_reference(_fresh_rows(a, p), len(a[0]) if a else 0, p)[1])


def nullspace(a, ncols: int, p: int | None = PRIME):
    """Reduced-echelon basis of the right nullspace (vectors of length ncols).

    Back-substitutes each free column on ``echelon_reference``'s form: 1 at
    its own free column, 0 at the others; over Q cleared to integer vectors."""
    rows, pivots, _ = echelon_reference(_fresh_rows(a, p), ncols, p)
    inv = [pow(row[c], -1, p) if p is not None else Fraction(1, row[c])
           for row, c in zip(rows, pivots)]
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[free] = 1
        for row, c, s in reversed(list(zip(rows, pivots, inv))):
            v[c] = -s * sum(row[j] * v[j] for j in range(c + 1, free + 1))
            if p is not None:
                v[c] %= p
        if p is None:
            den = lcm(*(Fraction(x).denominator for x in v))
            v = [int(x * den) for x in v]
        basis.append(v)
    return basis


def sparse_rows(mat) -> list[list[tuple[int, int]]]:
    """Each row of mat as its (column, value) pairs with nonzero value."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in mat]


def mat_mul(rows, right, ncols: int, p: int | None = None) -> list[list[int]]:
    """rows times the matrix whose ``sparse_rows`` are right, reduced mod p."""
    out = []
    for row in rows:
        acc = [0] * ncols
        for v, cells in zip(row, right):
            if v:
                for c, w in cells:
                    acc[c] += v * w
        out.append([u % p for u in acc] if p is not None else acc)
    return out


def gm_zero(dims, shift):
    return gm_from_blocks(dims, shift, zero_blocks(dims, shift))


def gm_compose(a, b, p=None):
    """a after b, entries reduced mod p; degree shifts add.  The dense
    reference for the string-form commutator and for powers of x.

    Shapes come from dims, not from the block tuples: a 0-row block cannot
    carry its column count.
    """
    if a.dims != b.dims:
        raise ValueError(f"cannot compose maps on dims {a.dims} and {b.dims}")
    shift = a.shift + b.shift
    return gm_from_blocks(a.dims, shift, [
        mat_mul(a.blocks[i], sparse_rows(b.blocks[(i - a.shift) % a.m]),
                a.dims[(i - shift) % a.m], p)
        for i in range(a.m)])


def _open_strings(a):
    """Strings [(component, index), ...] of a dense 0/1 partial permutation, off its cycles."""
    nxt = {}
    for i, blk in enumerate(a.blocks):
        for r, row in enumerate(blk):
            for c, v in enumerate(row):
                if v:
                    src = ((i - a.shift) % a.m, c)
                    if v != 1 or src in nxt:
                        raise ValueError("not a 0/1 partial permutation")
                    nxt[src] = (i, r)
    hit = set(nxt.values())
    if len(hit) < len(nxt):
        raise ValueError("not a 0/1 partial permutation")
    strings = [[(i, k)] for i in range(a.m) for k in range(a.dims[i]) if (i, k) not in hit]
    for string in strings:
        while string[-1] in nxt:
            string.append(nxt[string[-1]])
    return strings


def string_index_reference(x):
    """Each field of ``WallMap.index`` recomputed from x.strings: dicts of each
    vector's string, depth and height, a sort of (height, string) pairs,
    neighbour dicts of the links, the strings' last vectors and a loop adding
    the k-th vector from each string's end."""
    m = x.m
    where = {v: (t, d, len(string) - d) for t, string in enumerate(x.strings)
             for d, v in enumerate(string)}
    top = max(map(len, x.strings), default=0)
    links = [(a, b) for string in x.strings for a, b in zip(string, string[1:])]
    prev, nxt = {b: a[1] for a, b in links}, {a: b[1] for a, b in links}
    tails = [string[-1] for string in x.strings]
    kernels = [zero_root(m - 1)]
    for k in range(1, top + 1):
        ends = [string[-k][0] for string in x.strings if len(string) >= k]
        kernels.append(kernels[-1] + RootVec(tuple(map(ends.count, range(m)))))
    return {
        "order": tuple(tuple(c for _, _, c in sorted(((where[j, c][2], where[j, c][0], c)
                                                       for c in range(n)), reverse=True))
                       for j, n in enumerate(x.dims)),
        "place": tuple(tuple(where[j, c] for c in range(n)) for j, n in enumerate(x.dims)),
        "prev": tuple(tuple(prev.get((j, c)) for c in range(n)) for j, n in enumerate(x.dims)),
        "nxt": tuple(tuple(nxt.get((j, c)) for c in range(n)) for j, n in enumerate(x.dims)),
        "ends": tuple(tuple(sorted(c for t, c in tails if t == j)) for j in range(m)),
        "power_kernels": tuple(kernels),
    }


def zero_wall_map(dims, shift):
    """The zero map as a WallMap: each basis vector is a string of its own."""
    return WallMap(shift, tuple(dims), tuple(((i, k),) for i, n in enumerate(dims) for k in range(n)))


def row_walk_units(walls):
    """The wall map's matrix units from a walk over the blocks, one per link.

    Each wall row is walked from column 0 leftwards, walls and rows in order,
    and each block is numbered within its colour as it is reached.  A block at
    column c > 0 gives a unit from itself to its neighbour at column c - 1: an
    x unit for P1, whose s is the neighbour's colour, or an xbar unit for Pn,
    whose s is the block's own colour.
    """
    up, n = walls.kind == "P1", walls.n
    seen = [0] * (n + 1)
    units = []
    for charge, heights in zip(walls.charges, walls.heights):
        for row in range(1, (heights[0] if heights else 0) + 1):
            for col, height in enumerate(heights):
                if height < row:
                    break
                color = block_color(n, walls.kind, charge, row, col)
                if col:
                    units.append(MatrixUnit("x" if up else "xbar", prev[0] if up else color,
                                            seen[color], prev[1]))
                prev = (color, seen[color])
                seen[color] += 1
    return units


def stacked_rank_is_stable(x, xbar, lam, p=PRIME):
    """dim (ker x ∩ ker xbar)_i <= <h_i, lam> on each component, from the rank of [x; xbar]:
    a generic framing t_i: V_i -> W_i is injective on that kernel exactly then."""
    return all(x.dims[i] - reference_rank([*x.block_out(i), *xbar.block_out(i)], p) <= lam.a[i]
               for i in range(x.m))


def path_wt_reference(p):
    """wt of a path one factor at a time: lam plus wt(dev_k) - wt(ground_k) per deviation."""
    return sum((dev.wt() - ground_elem(p.lam, p.kind, k).wt() for k, dev in enumerate(p.devs)),
               p.lam)


def b1_from_weight(w: Weight, lvl: int) -> B1Elem:
    """Inverse of wt on the row crystal of level lvl, solved from the weight alone."""
    m = w.n + 1
    s = lvl - sum(k * w.a[k] for k in range(1, m))
    if w.level != 0 or s % m:
        raise WeightSectionError(f"{w} is not a B1 weight at level {lvl}")
    base = s // m
    nu = tuple(base + sum(w.a[i:m]) for i in range(1, m + 1))
    if any(v < 0 for v in nu):
        raise WeightSectionError(f"{w} is not a B1 weight at level {lvl}")
    return B1Elem(nu)


def bn_from_weight(w: Weight, lvl: int) -> BnElem:
    """Inverse of wt on the column crystal of level lvl: the dual of b1_from_weight."""
    try:
        return BnElem(b1_from_weight(-w, lvl).nu)
    except WeightSectionError:
        raise WeightSectionError(f"{w} is not a Bn weight at level {lvl}") from None


def ground_bn_reference(lam, k):
    """Position-k Bn ground factor by its own formula: nubar_j = lam_{j - k - 1}."""
    m = lam.n + 1
    return BnElem(tuple(lam.a[(j - k - 1) % m] for j in range(1, m + 1)))


def signature_reference(i, factors):
    """The signature rule one symbol at a time: each "-" cancels the last open "+"."""
    minus, plus = [], []
    for idx, b in enumerate(factors):
        for _ in range(b.eps(i)):
            if plus:
                plus.pop()
            else:
                minus.append(idx)
        plus.extend([idx] * b.phi(i))
    return minus, plus


def check_axioms_reference(graph) -> list[str]:
    """The crystal axioms asked edge by edge: eps, phi and wt of both ends of every
    edge, read afresh from the elements each time."""
    bad: list[str] = []
    n = graph.nodes[0].n if graph.nodes else -1
    roots = [cl_root(simple_root(n, i)) for i in range(n + 1)]
    for b in graph.nodes:
        w = b.wt()
        for i in range(n + 1):
            if b.phi(i) != b.eps(i) + pairing(i, w):
                bad.append(f"phi/eps/wt mismatch at i={i}: {b}")
    for src, op, i, dst in graph.edges:
        b, b2 = graph.nodes[src], graph.nodes[dst]
        if op == "f":
            if b2.wt() != b.wt() - roots[i]:
                bad.append(f"wt(f_{i} b) != wt(b) - cl(alpha_{i}): {b}")
            if b2.eps(i) != b.eps(i) + 1 or b2.phi(i) != b.phi(i) - 1:
                bad.append(f"eps/phi step wrong along f_{i}: {b}")
            if b2.e(i) != b:
                bad.append(f"e_{i} does not invert f_{i}: {b}")
        else:
            if b2.wt() != b.wt() + roots[i]:
                bad.append(f"wt(e_{i} b) != wt(b) + cl(alpha_{i}): {b}")
            if b2.eps(i) != b.eps(i) - 1 or b2.phi(i) != b.phi(i) + 1:
                bad.append(f"eps/phi step wrong along e_{i}: {b}")
            if b2.f(i) != b:
                bad.append(f"f_{i} does not invert e_{i}: {b}")
    return bad


def _row_counts(vec, i, dual):
    """(eps_i, phi_i) of the row rule on vec: nu_i and nu_{i-1}; swapped when dual."""
    pair = (vec[i % len(vec)], vec[(i - 1) % len(vec)])
    return pair[::-1] if dual else pair


def _row_move(vec, op, i, dual):
    """f_i moves a unit of vec from index i - 1 to i, e_i back (dual: the other way)."""
    s, d = ((i - 1) % len(vec), i % len(vec))
    if (op == "e") != dual:
        s, d = d, s
    if not vec[s]:
        return None
    out = list(vec)
    out[s] -= 1
    out[d] += 1
    return tuple(out)


def _owner(op, counts):
    """The factor e_i (op "e") or f_i acts on, one symbol at a time, or None."""
    minus, plus = [], []
    for idx, (e, p) in enumerate(counts):
        for _ in range(e):
            if plus:
                plus.pop()
            else:
                minus.append(idx)
        plus += [idx] * p
    if op == "f":
        return plus[0] if plus else None
    return minus[-1] if minus else None


def element_rule(elem):
    """A B1/Bn/Adj element's (row, wt coefficients, hash, {(op, i): value or None}) by
    the defining rules on its value alone, with no memo: each letter's weight summed,
    and an adjoint element as the pair B1(nu) (x) Bn(nubar) under the signature rule."""
    if isinstance(elem, AdjElem):
        c = elem.cap - sum(elem.m)
        vecs = [((elem.m[0] + c, *elem.m[1:]), False), ((elem.mbar[0] + c, *elem.mbar[1:]), True)]
        value = (elem.mbar, elem.m, elem.cap)
    else:
        vecs = [(elem.nu, isinstance(elem, BnElem))]
        value = (elem.nu,)
    m = len(vecs[0][0])
    wa = [0] * m
    for vec, dual in vecs:  # letter t + 1 weighs Lambda_{t+1} - Lambda_t, its column the negative
        for t, count in enumerate(vec):
            wa[(t + 1) % m] += -count if dual else count
            wa[t] -= -count if dual else count
    row, ops = [], {}
    for i in range(m):
        counts = [_row_counts(vec, i, dual) for vec, dual in vecs]
        minus_plus = [0, 0]
        for idx, (e, p) in enumerate(counts):
            cancel = min(e, minus_plus[1])
            minus_plus = [minus_plus[0] + e - cancel, minus_plus[1] - cancel + p]
        row.append(tuple(minus_plus))
        for op in ("e", "f"):
            idx = _owner(op, counts)
            moved = None if idx is None else _row_move(vecs[idx][0], op, i, vecs[idx][1])
            if moved is None:
                ops[op, i] = None
            elif isinstance(elem, AdjElem):
                nu, nubar = (moved, vecs[1][0]) if idx == 0 else (vecs[0][0], moved)
                c = min(nu[0], nubar[0])
                ops[op, i] = ((nubar[0] - c, *nubar[1:]), (nu[0] - c, *nu[1:]), elem.cap)
            else:
                ops[op, i] = (moved,)
    return tuple(row), tuple(wa), hash(value), ops


def render_reference(elem) -> str:
    """The text of a B1/Bn/Adj element by one type switch over the three classes."""
    if isinstance(elem, (B1Elem, BnElem)):
        dual = isinstance(elem, BnElem)
        order = range(elem.n, -1, -1) if dual else range(elem.n + 1)
        mark = "~" if dual else ""
        return "[" + ",".join(f"{t + 1}{mark}" for t in order for _ in range(elem.nu[t])) + "]"
    n = elem.n
    cols = []  # barred columns, largest letter first, then the boxes
    for t in range(n, -1, -1):
        col = [x for x in range(1, n + 2) if x != t + 1]
        cols.extend([col] * elem.mbar[t])
    for t, c in enumerate(elem.m):
        cols.extend([[t + 1]] * c)
    if not cols:
        return "rows:"
    rows = []
    for r in range(n):
        row = [str(col[r]) for col in cols if len(col) > r]
        if row:
            rows.append("[" + ",".join(row) + "]")
    return "rows: " + ",".join(rows)


def elem_to_json_reference(elem) -> dict:
    """The JSON record of a B1/Bn/Adj element by one type switch over the three classes."""
    if isinstance(elem, B1Elem):
        return {"nu": list(elem.nu)}
    if isinstance(elem, BnElem):
        return {"nubar": list(elem.nubar)}
    if isinstance(elem, AdjElem):
        return {"mbar": list(elem.mbar), "m": list(elem.m), "cap": elem.cap}
    raise TypeError(f"not a perfect-crystal element: {elem!r}")


def profiled_calls(fn, *args):
    """fn(*args) and the package's call counts per (module, function) under
    cProfile, as the benchmark counts them."""
    prof = cProfile.Profile()
    out = prof.runcall(fn, *args)
    calls = Counter()
    for (filename, _, func), (_, ncalls, *_) in pstats.Stats(prof).stats.items():
        head, base = os.path.split(filename)
        if os.path.basename(head) == "affine_crystals":
            calls[base[:-3], func] += ncalls
    return out, calls


def changed_positions(p, q):
    """The factor positions where paths p and q differ."""
    top = max(len(p.devs), len(q.devs)) + 1
    return [k for k in range(top) if p.factor(k) != q.factor(k)]


def raising_steps(p):
    """Greedy raising through path_apply, in raising order: the first i whose
    e_i acts, and the one factor position where the raised path differs."""
    steps = []
    while True:
        for i in range(p.n + 1):
            nxt = path_apply("e", i, p)
            if nxt is not None:
                (pos,) = changed_positions(p, nxt)
                steps.append((i, pos))
                p = nxt
                break
        else:
            return steps


def generic_kernel_table_reference(x, basis, seed=0, p=PRIME):
    """The genericity protocol with the minimum table and its agreement count
    recomputed after every sample, through the module's own names, so that a
    patched sampler acts on both.  It returns the minimum table and the samples
    whose table equals it, in draw order."""
    rng = random.Random(seed)
    samples, tables = [], []
    lower, agree = None, 0
    for _ in range(quiver.MAX_SAMPLES):
        samples.append(quiver.sample_in_commutant(x, basis, rng, p))
        tables.append(quiver.kernel_table_at(x, samples[-1], p))
        lower = quiver._table_min(tables)
        agree = tables.count(lower)
        if len(tables) >= quiver.MIN_SAMPLES and agree >= 2:
            return lower, [xbar for xbar, table in zip(samples, tables) if table == lower]
    raise GenericityError(f"no agreeing generic kernel table: {len(tables)} samples drawn "
                          f"(min_samples {quiver.MIN_SAMPLES}), {agree} agreeing with the "
                          f"minimum table {lower.to_json() if lower else {}}")


def _table_rows_eq(a, b):
    """Kernel tables a and b agree row by row, each sequence clamped at its last row."""
    return all(a.at(seq, k) == b.at(seq, k) for seq in SEQS
               for k in range(max(len(getattr(a, seq)), len(getattr(b, seq)))))


def _kernel_dims(a, p):
    """Graded nullity: per component i, dim ker of the block leaving V_i."""
    return RootVec(tuple(a.dims[i] - reference_rank(a.block_out(i), p)
                         for i in range(a.m)))


def _kernel_sequence(base, step, alpha, p):
    """Oracle: ker(base), ker(base o step), ... from dense products, until alpha."""
    rows = [_kernel_dims(base, p)]
    cur = base
    while rows[-1] != alpha:
        cur = gm_compose(cur, step, p)
        rows.append(_kernel_dims(cur, p))
        if rows[-1] == rows[-2]:
            raise GenericityError(f"stabilized at {rows[-1]} below alpha = {alpha}")
    return tuple(rows)


def _oracle_table(x, xbar, p):
    """The four kernel sequences of a dense x from dense powers and a full rank on each."""
    alpha = RootVec(x.dims)
    zero = zero_root(x.m - 1)
    if alpha.is_zero():
        return KernelTable(alpha, (zero,), (zero,), (zero,), (zero,))
    xy = gm_compose(x, xbar, p)
    return KernelTable(alpha,
                       (zero,) + _kernel_sequence(x, x, alpha, p),
                       (zero,) + _kernel_sequence(xbar, xbar, alpha, p),
                       (zero,) + _kernel_sequence(xy, xy, alpha, p),
                       _kernel_sequence(xbar, xy, alpha, p))


def restrict_to_hyperplane(x, xbar, i, rng, p=PRIME):
    """(x, xbar), dense maps of degree +1 and -1, restricted to the subspace
    that has V_i replaced by a random hyperplane H containing the images of x
    and xbar coming into V_i; None when those images span V_i.

    H is ker phi for a random functional phi vanishing on the images.  With
    c its first nonzero coordinate and s = phi[c], H has the basis
    s e_r - phi[r] e_c (r != c), in which a vector w of H has coordinates
    w_r / s.  To stay integral the restricted pair is scaled by s, which
    moves no kernel: the blocks into V_i lose row c, the blocks out of V_i
    become s times their product with that basis, and the others are
    multiplied by s.  The restricted pair still commutes.
    """
    d = x.dims[i]
    incoming = [a + b for a, b in zip(x.blocks[i], xbar.blocks[i])]
    basis = nullspace([list(col) for col in zip(*incoming)], d, p)  # functionals on V_i
    if not basis:
        return None
    phi = [0] * d
    while not any(phi):
        co = [rng.randrange(p or 10**6) for _ in basis]
        phi = [sum(a * v[r] for a, v in zip(co, basis)) for r in range(d)]
        phi = [v % p for v in phi] if p is not None else phi
    c = next(r for r, v in enumerate(phi) if v)
    s, keep = phi[c], [r for r in range(d) if r != c]
    dims = tuple(n - (t == i) for t, n in enumerate(x.dims))

    def cut(g):
        blocks = []
        for t, blk in enumerate(g.blocks):
            rows = [list(blk[r]) for r in keep] if t == i else [[s * v for v in row] for row in blk]
            if (t - g.shift) % g.m == i:
                rows = [[s * row[r] - phi[r] * row[c] for r in keep] for row in rows]
            blocks.append([[v % p for v in row] for row in rows] if p is not None else rows)
        return gm_from_blocks(dims, g.shift, blocks)

    return cut(x), cut(xbar)
