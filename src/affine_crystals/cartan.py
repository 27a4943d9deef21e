"""Affine Cartan datum of type A_n^(1): weights, roots, pairings and rotations.

Index arithmetic lives in Z/(n+1)Z throughout.  Weights are stored densely as
coefficients of Lambda_0..Lambda_n; every weight computed by this package is a
classical projection, so no delta coefficient is kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class Weight:
    """Integer classical weight: coefficients of Lambda_0..Lambda_n."""

    a: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.a) - 1

    @property
    def level(self) -> int:
        return sum(self.a)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.a)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.a, other.a, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x - y for x, y in zip(self.a, other.a, strict=True)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.a))

    def __str__(self) -> str:
        return "+".join(f"{c}L{i}" for i, c in enumerate(self.a) if c) or "0"


@dataclass(frozen=True)
class RootVec:
    """Element of the positive root lattice: coefficients of alpha_0..alpha_n."""

    k: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.k) - 1

    @property
    def height(self) -> int:
        return sum(self.k)

    def is_zero(self) -> bool:
        return not any(self.k)

    def __add__(self, other: "RootVec") -> "RootVec":
        return RootVec(tuple(x + y for x, y in zip(self.k, other.k, strict=True)))

    def __sub__(self, other: "RootVec") -> "RootVec":
        diff = tuple(x - y for x, y in zip(self.k, other.k, strict=True))
        if any(d < 0 for d in diff):
            raise ValueError(f"root difference not in Q+: {self.k} - {other.k}")
        return RootVec(diff)

    def __le__(self, other: "RootVec") -> bool:
        return all(x <= y for x, y in zip(self.k, other.k, strict=True))

    def __str__(self) -> str:
        return "+".join(f"{c}a{i}" for i, c in enumerate(self.k) if c) or "0"


def _integers(coeffs) -> tuple[int, ...]:
    """The coefficients through operator.index: a non-integer raises ValueError, never rounds."""
    try:
        return tuple(map(operator.index, coeffs))
    except TypeError as err:
        raise ValueError(f"coefficients must be integers: {err}") from None


def weight(coeffs) -> Weight:
    return Weight(_integers(coeffs))


def root(coeffs) -> RootVec:
    rv = RootVec(_integers(coeffs))
    if any(c < 0 for c in rv.k):
        raise ValueError(f"negative root coefficients: {rv.k}")
    return rv


def zero_root(n: int) -> RootVec:
    return RootVec((0,) * (n + 1))


def simple_root(n: int, i: int) -> RootVec:
    k = [0] * (n + 1)
    k[i % (n + 1)] = 1
    return RootVec(tuple(k))


def pairing(i: int, w: Weight) -> int:
    """<h_i, w>: the Lambda_i coefficient."""
    return w.a[i % (w.n + 1)]


def cl_root(rv: RootVec) -> Weight:
    """Classical projection of a root-lattice element.

    cl(alpha_i) = 2 Lambda_i - Lambda_{i-1} - Lambda_{i+1}; the kernel is
    exactly the integer multiples of delta = alpha_0 + ... + alpha_n.
    """
    m = rv.n + 1
    return Weight(
        tuple(2 * rv.k[j] - rv.k[(j - 1) % m] - rv.k[(j + 1) % m] for j in range(m))
    )


def rotate(w: Weight, direction: int) -> Weight:
    """Shift the coefficient index: direction +1 sends a_i -> a_{i+1}."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    m = w.n + 1
    return Weight(tuple(w.a[(i + direction) % m] for i in range(m)))


def decompose(w: Weight) -> tuple[int, ...]:
    """Sorted multiset of fundamental-weight indices for a dominant weight."""
    if not w.is_dominant():
        raise ValueError(f"not dominant: {w.a}")
    parts: list[int] = []
    for i, c in enumerate(w.a):
        parts.extend([i] * c)
    return tuple(parts)
