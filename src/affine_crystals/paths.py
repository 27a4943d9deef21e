"""Highest-weight paths in a perfect crystal.

A path is the ground-state sequence of a dominant weight with finitely many
deviations at the low positions; position 0 is the rightmost tensor factor.
Operators are computed with the signature rule over a finite window: adjacent
ground factors satisfy phi_i(factor_{k+1}) = eps_i(factor_k), so their
junction symbols cancel completely and enlarging the window cannot change the
outcome.  An e_i whose rightmost surviving "-" sits in the leftmost window
factor would keep escaping leftward for every window, i.e. it annihilates the
path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cartan import Weight, weight
from .crystal_core import signature, tensor_apply
from .perfect import (
    AdjElem,
    B1Elem,
    BnElem,
    ground_adj,
    ground_b1,
    ground_bn,
    render,
)

KINDS = ("B1", "Bn", "Ad")


class DeadWordError(ValueError):
    """A lowering word annihilated the highest weight element."""


class WordIndexError(ValueError):
    """A lowering word names an index outside 0..n."""


class InversionError(RuntimeError):
    """A path could not be carried back to its wall tuple.

    Raised when greedy raising stops short of the ground path, when a
    replayed lowering step fits no wall or more than one, or when the
    replayed tuple misses the given content or the given path.
    """


def ground_elem(lam: Weight, kind: str, k: int):
    if kind == "B1":
        return ground_b1(lam, k)
    if kind == "Bn":
        return ground_bn(lam, k)
    if kind == "Ad":
        return ground_adj(lam)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class Path:
    """Normalized path: devs[k] is the factor at position k for k < tail_start."""

    lam: Weight
    kind: str
    devs: tuple = ()

    @property
    def n(self) -> int:
        return self.lam.n

    @property
    def tail_start(self) -> int:
        return len(self.devs)

    def factor(self, k: int):
        if k < len(self.devs):
            return self.devs[k]
        return ground_elem(self.lam, self.kind, k)

    def wt(self) -> Weight:
        w = self.lam
        for k, dev in enumerate(self.devs):
            w = w + dev.wt() - ground_elem(self.lam, self.kind, k).wt()
        return w

    def eps(self, i: int) -> int:
        return _eps_phi(self, i)[0]

    def phi(self, i: int) -> int:
        return _eps_phi(self, i)[1]

    def e(self, i: int):
        return path_apply("e", i, self)

    def f(self, i: int):
        return path_apply("f", i, self)

    def __str__(self) -> str:
        facs = " (x) ".join(render(self.factor(k)) for k in range(self.tail_start - 1, -1, -1))
        return f"...(x) {facs}" if facs else "ground"


def make_path(lam: Weight, kind: str, devs) -> Path:
    """Build a path, trimming deviations that already equal the ground tail."""
    devs = list(devs)
    while devs and devs[-1] == ground_elem(lam, kind, len(devs) - 1):
        devs.pop()
    return Path(lam, kind, tuple(devs))


def ground_path(lam: Weight, kind: str) -> Path:
    return Path(lam, kind, ())


def _window_factors(p: Path, w: int):
    """Window factors ordered left (highest position) to right (position 0)."""
    return [p.factor(k) for k in range(w - 1, -1, -1)]


def _apply_window(op: str, i: int, p: Path, w: int):
    facs = _window_factors(p, w)
    res = tensor_apply(op, i, facs)
    if res is None:
        return None
    idx, elem = res
    if idx == 0:
        # leftmost window factor is deep in the ground tail
        if op == "e":
            return None
        raise AssertionError("f acted on the window boundary; window too small")
    pos = w - 1 - idx
    devs = list(p.devs)
    while len(devs) <= pos:
        devs.append(ground_elem(p.lam, p.kind, len(devs)))
    devs[pos] = elem
    return make_path(p.lam, p.kind, devs), pos


def _path_apply_at(op: str, i: int, p: Path):
    """(path, position of the changed factor), or None when the operator
    annihilates the path."""
    w = p.tail_start + p.n + 2
    for _ in range(5):
        r1 = _apply_window(op, i, p, w)
        r2 = _apply_window(op, i, p, w + 3)
        if r1 == r2:
            return r1
        w *= 2  # stability self-check failed; should be unreachable
    raise AssertionError("window stability self-check keeps failing")


def path_apply(op: str, i: int, p: Path):
    """Apply e_i/f_i; None when the operator annihilates the path."""
    res = _path_apply_at(op, i, p)
    return None if res is None else res[0]


def _eps_phi(p: Path, i: int) -> tuple[int, int]:
    w = p.tail_start + p.n + 2
    minus, plus = signature(i, _window_factors(p, w))
    # minus symbols owned by the leftmost window factor belong to the
    # inaccessible tail and do not count
    return sum(1 for idx in minus if idx != 0), len(plus)


def from_word(lam: Weight, kind: str, word) -> Path:
    """Fold f-operators over the ground path; the rightmost token acts first.

    word is a sequence of (index, multiplicity) pairs in written order; an
    index outside 0..n raises WordIndexError.
    """
    word = list(word)
    for i, _ in word:
        if not 0 <= i <= lam.n:
            raise WordIndexError(f"word index {i} is outside 0..{lam.n}")
    p = ground_path(lam, kind)
    for i, mult in reversed(word):
        for _ in range(mult):
            nxt = path_apply("f", i, p)
            if nxt is None:
                raise DeadWordError(f"f_{i} annihilates the path at {p}")
            p = nxt
    return p


def raising_steps(path: Path) -> list[tuple[int, int]]:
    """Greedy raising to the ground path, lowest index first at every step.

    Each step is ``(i, pos)``: e_i acted and changed the factor at ``pos``.
    """
    steps: list[tuple[int, int]] = []
    cur = path
    while True:
        for i in range(path.n + 1):
            res = _path_apply_at("e", i, cur)
            if res is not None:
                cur, pos = res
                steps.append((i, pos))
                break
        else:
            break
    if cur != ground_path(path.lam, path.kind):
        raise InversionError(f"raising stopped at {cur} after {len(steps)} steps, "
                             "below the ground path")
    return steps


_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_word(text: str) -> tuple[tuple[int, int], ...]:
    """Parse a word string: whitespace-separated tokens ``i`` or ``i^m``."""
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        out.append((int(m.group(1)), int(m.group(2) or 1)))
    return tuple(out)


def word_alpha(n: int, word) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for i, mult in word:
        counts[i % (n + 1)] += mult
    return tuple(counts)


# ------------------------------------------------------------------- JSON

def elem_to_json(elem):
    if isinstance(elem, B1Elem):
        return {"nu": list(elem.nu)}
    if isinstance(elem, BnElem):
        return {"nubar": list(elem.nubar)}
    if isinstance(elem, AdjElem):
        return {"mbar": list(elem.mbar), "m": list(elem.m), "cap": elem.cap}
    raise TypeError(f"not a perfect-crystal element: {elem!r}")


def elem_from_json(data):
    if "nu" in data:
        return B1Elem(tuple(data["nu"]))
    if "nubar" in data:
        return BnElem(tuple(data["nubar"]))
    return AdjElem(tuple(data["mbar"]), tuple(data["m"]), data["cap"])


def path_to_json(p: Path) -> dict:
    return {
        "schema": "v1",
        "lambda": list(p.lam.a),
        "kind": p.kind,
        "deviations": [elem_to_json(d) for d in p.devs],
    }


def path_from_json(data) -> Path:
    return make_path(
        weight(data["lambda"]),
        data["kind"],
        [elem_from_json(d) for d in data["deviations"]],
    )
