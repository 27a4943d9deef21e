"""Exact linear algebra over Q and over a large prime field.

No floating point anywhere.  Matrices are plain lists of integer rows.  One
fraction-free forward elimination, ``_echelon``, serves both fields: over
F_p (p = 2^31 - 1) a row update is ``(piv * x - f * y) mod p``, over Q
(``p=None``) it is Bareiss's exact division, so entries stay integers.  Both
leave a row alone while its pivot-column entry is 0; over Q each row keeps
the divisor it owes, so the Bareiss rescaling of a skipped row waits for its
next real update.  Pivots are the first nonzero entry in column order.
``rank`` reduces a matrix mod p and counts its pivots, for the stability check;
kernel tables eliminate on the wall map's strings instead.  No solver or dense
product is left; the tests keep both as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

PRIME = 2**31 - 1


def _echelon(rows, ncols: int, p: int | None) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free forward elimination in place of fresh rows, reduced mod p over F_p.

    Returns (pivot rows, pivot columns, original indices of the pivot rows);
    those original rows are a maximal independent subset.

    A row whose pivot-column entry is 0 is left alone.  Over Q that is lazy
    Bareiss (Bareiss, Math. Comp. 22, 1968): the step with pivot d_t and
    previous pivot d_(t-1) would only multiply such a row by d_t / d_(t-1),
    so on reaching step t a row last changed at step s holds the Bareiss row
    times d_s / d_(t-1).  ``div[i]`` is that d_s (1 before any step), so
    a real update ``(pv * x - f * y) // div[i]`` yields the Bareiss row
    itself, an exact division, and a pivot row is brought up to date in a
    local copy, ``x * prev // div[r]``.  The returned pivot rows over Q are
    therefore nonzero multiples of Bareiss's rows, with the same zeros, the
    same pivots and the same row order; over F_p they are Bareiss's rows.
    """
    nrows = len(rows)
    order = list(range(nrows))
    div = [1] * nrows
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
        div[r], div[piv] = div[piv], div[r]
        top = rows[r][c:]
        if p is None and div[r] != prev:
            top = [x * prev // div[r] for x in top]
        pv = top[0]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if p is not None:
                row[c:] = [(pv * x - f * y) % p for x, y in zip(row[c:], top)]
            else:
                d = div[i]
                row[c:] = [(pv * x - f * y) // d for x, y in zip(row[c:], top)]
                div[i] = pv
        prev = pv
        pivots.append(c)
    return rows[:len(pivots)], pivots, order[:len(pivots)]


def rank(a, p: int | None = PRIME) -> int:
    rows = [[v % p for v in row] for row in a] if p is not None else [list(row) for row in a]
    return len(_echelon(rows, len(a[0]) if a else 0, p)[1])


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


def zero_blocks(dims, shift: int) -> list[list[list[int]]]:
    """Mutable zero blocks of a degree-``shift`` map on dims."""
    m = len(dims)
    return [[[0] * dims[(i - shift) % m] for _ in range(dims[i])] for i in range(m)]


def gm_from_blocks(dims, shift: int, blocks) -> GradedMap:
    return GradedMap(shift, tuple(dims), tuple(tuple(map(tuple, b)) for b in blocks))
