"""Generic solvers kept only as test oracles for the direct constructions."""

from fractions import Fraction
from math import lcm

from affine_crystals.linalg import (PRIME, _echelon, gm_from_blocks, mat_mul, rank, sparse_rows,
                                   zero_blocks)
from affine_crystals.paths import path_apply
from affine_crystals.quiver import SEQS, WallMap


def nullspace(a, ncols: int, p: int | None = PRIME):
    """Reduced-echelon basis of the right nullspace (vectors of length ncols).

    Back-substitutes each free column on ``linalg._echelon``'s form: 1 at its
    own free column, 0 at the others; over Q cleared to integer vectors."""
    rows, pivots, _ = _echelon(a, ncols, p)
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


def zero_wall_map(dims, shift):
    """The zero map as a WallMap: each basis vector is a string of its own."""
    return WallMap(shift, tuple(dims), tuple(((i, k),) for i, n in enumerate(dims) for k in range(n)))


def stacked_rank_is_stable(x, xbar, framing, p=PRIME):
    """ker x ∩ ker xbar ∩ ker t = 0 from the rank of [x; xbar; t] on each component."""
    return all(rank([*x.block_out(i), *xbar.block_out(i), *framing[i]], p) == x.dims[i]
               for i in range(x.m) if x.dims[i])


def changed_positions(p, q):
    """The factor positions where paths p and q differ."""
    top = max(p.tail_start, q.tail_start) + 1
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


def _table_rows_eq(a, b):
    """Kernel tables a and b agree row by row, each sequence clamped at its last row."""
    return all(a.at(seq, k) == b.at(seq, k) for seq in SEQS
               for k in range(max(len(getattr(a, seq)), len(getattr(b, seq)))))
