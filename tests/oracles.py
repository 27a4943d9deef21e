"""Generic solvers kept only as test oracles for the direct constructions."""

from fractions import Fraction
from math import lcm

from affine_crystals.linalg import PRIME, _echelon, rank
from affine_crystals.paths import path_apply
from affine_crystals.quiver import SEQS


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
