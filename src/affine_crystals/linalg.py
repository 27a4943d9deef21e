"""Exact linear algebra over Q and over a large prime field.

No floating point anywhere.  Matrices are plain lists of integer rows.  One
fraction-free forward elimination serves both fields: over F_p (p = 2^31 - 1)
a row update is ``(piv * x - f * y) mod p``, over Q (``p=None``) it is
Bareiss's exact division by the previous pivot, so entries stay integers.
Pivots are the first nonzero entry in column order.  ``rank`` counts the
pivots; ``nullspace`` back-substitutes each free column on the echelon form,
giving the reduced-echelon basis (1 at its own free column, 0 at the others;
over Q cleared to integer vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cartan import RootVec

PRIME = 2**31 - 1


def _echelon(a, ncols: int, p: int | None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination: (pivot rows, pivot columns)."""
    rows = [[v % p for v in row] if p is not None else list(row) for row in a]
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
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
    return rows[:len(pivots)], pivots


def rank(a, p: int | None = PRIME) -> int:
    return len(_echelon(a, len(a[0]) if a else 0, p)[1])


def nullspace(a, ncols: int, p: int | None = PRIME):
    """Reduced-echelon basis of the right nullspace (vectors of length ncols)."""
    rows, pivots = _echelon(a, ncols, p)
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


# --------------------------------------------------------------- graded maps

@dataclass(frozen=True)
class GradedMap:
    """Homogeneous degree-``shift`` endomap of an I-graded space.

    blocks[i] maps component (i - shift) mod m into component i, so it has
    shape dims[i] x dims[(i - shift) mod m].  shift +1 is the raising
    direction (component i-1 -> i), -1 the lowering one.
    """

    shift: int
    dims: tuple[int, ...]
    blocks: tuple

    @property
    def m(self) -> int:
        return len(self.dims)

    def block_out(self, i: int):
        """The block leaving component i."""
        return self.blocks[(i + self.shift) % self.m]


def gm_zero(dims, shift: int) -> GradedMap:
    dims = tuple(dims)
    m = len(dims)
    blocks = tuple(
        tuple(tuple(0 for _ in range(dims[(i - shift) % m])) for _ in range(dims[i]))
        for i in range(m)
    )
    return GradedMap(shift, dims, blocks)


def gm_identity(dims) -> GradedMap:
    dims = tuple(dims)
    blocks = tuple(
        tuple(tuple(int(r == c) for c in range(d)) for r in range(d)) for d in dims
    )
    return GradedMap(0, dims, blocks)


def _freeze(mat) -> tuple:
    return tuple(tuple(row) for row in mat)


def gm_from_blocks(dims, shift: int, blocks) -> GradedMap:
    return GradedMap(shift, tuple(dims), tuple(_freeze(b) for b in blocks))


def gm_compose(a: GradedMap, b: GradedMap, p: int | None = None) -> GradedMap:
    """a after b; degree shifts add.

    Shapes come from dims, not from the block tuples: a 0-row block cannot
    carry its column count.
    """
    if a.dims != b.dims:
        raise ValueError(f"cannot compose maps on dims {a.dims} and {b.dims}")
    m = a.m
    shift = a.shift + b.shift
    blocks = []
    for i in range(m):
        left = a.blocks[i]
        right = b.blocks[(i - a.shift) % m]
        rows = a.dims[i]
        mid = a.dims[(i - a.shift) % m]
        cols = a.dims[(i - shift) % m]
        out = [[0] * cols for _ in range(rows)]
        for r in range(rows):
            lrow, orow = left[r], out[r]
            for t in range(mid):
                v = lrow[t]
                if v:
                    rrow = right[t]
                    for c in range(cols):
                        orow[c] += v * rrow[c]
            if p is not None:
                out[r] = [u % p for u in orow]
        blocks.append(_freeze(out))
    return GradedMap(shift, a.dims, tuple(blocks))


def gm_power(a: GradedMap, k: int, p: int | None = None) -> GradedMap:
    out = gm_identity(a.dims)
    for _ in range(k):
        out = gm_compose(a, out, p)
    return out


def gm_is_zero(a: GradedMap) -> bool:
    return not any(v for blk in a.blocks for row in blk for v in row)


def gm_kernel_dims(a: GradedMap, p: int | None = PRIME) -> RootVec:
    """Graded nullity: per component i, dim ker of the block leaving V_i."""
    dims = []
    for i in range(a.m):
        blk = [list(r) for r in a.block_out(i)]
        dims.append(a.dims[i] - rank(blk, p))
    return RootVec(tuple(dims))
