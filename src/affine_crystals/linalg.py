"""Exact linear algebra over Q and over a large prime field.

No floating point anywhere.  Matrices are plain lists of integer rows.  One
fraction-free row step, ``_reduce``, serves both fields and every
elimination: ``g[a] u - u[a] g`` clears u's entry at a with a row g that is
nonzero there, mod p over F_p (p = 2^31 - 1) and in integers over Q
(``p=None``).  Kernel tables run it in the wall map's module echelon; ``rank``
runs it in a pivot loop, for the stability check.  No solver or dense product
is left; the tests keep both as oracles.  Every public routine that takes p
first runs ``check_field``, so any other modulus is one ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

PRIME = 2**31 - 1


def check_field(p) -> None:
    """Raise a one-line ValueError unless p is PRIME (F_p) or None (Q).  Another
    modulus is silently wrong (p = 4, 6), or never ends a draw (p <= 0)."""
    if not (p is None or type(p) is int and p == PRIME):
        raise ValueError(f"field p={p!r} is not supported: pass {PRIME} (F_p) or None (Q)")


def _reduce(u: list[int], g: list[int], a: int, p: int | None) -> list[int]:
    """g[a] u - u[a] g, reduced mod p: u with its entry at a cleared by g, fraction-free."""
    f, w = g[a], u[a]
    if p is not None:
        return [(f * v - w * y) % p for v, y in zip(u, g)]
    return [f * v - w * y for v, y in zip(u, g)]


def rank(a, p: int | None = PRIME) -> int:
    """Rank of the rows of a, reduced mod p: the number of pivots.

    Each row is cleared at its first nonzero entry against the kept row led
    there until it is zero or leads at a new column, where it is kept (over Q
    with the gcd divided out).  Full rank ends the loop: no row is left to
    read once every column has a pivot.
    """
    check_field(p)
    ncols = len(a[0]) if a else 0
    kept: dict[int, list[int]] = {}  # pivot column -> reduced row
    for row in a:
        if len(kept) == ncols:
            break
        u, c = [v % p for v in row] if p is not None else list(row), 0
        while (c := next(filter(u.__getitem__, range(c, ncols)), None)) is not None:
            if (g := kept.get(c)) is None:
                if p is None and (div := gcd(*u)) > 1:
                    u = [v // div for v in u]
                kept[c] = u
                break
            u = _reduce(u, g, c, p)
    return len(kept)


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
