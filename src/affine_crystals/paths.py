"""Highest-weight paths in a perfect crystal.

A path is the ground-state sequence of a dominant weight with finitely many
deviations at the low positions; position 0 is the rightmost tensor factor.
A Path is a ``crystal_core.Tensor``: e_i, f_i, eps_i, phi_i and its row are the
tensor rule, shared with TensorProd, on one window of T + 1 factors, the first
ground factor g_T (T = len(devs)) and the deviations.  That is exact: adjacent
ground factors satisfy phi_i(g_{k+1}) = eps_i(g_k) (KKMMNN, Duke 1992), so every
junction above the deviations cancels, and of the whole tail only the "+" symbols
of g_T survive.  Its "-" symbols are cancelled by g_{T+1}, so the record leaves
them out: no e_i lands on g_T, and an f_i that lands there appends a deviation.
A property test, not the run time, compares each operator with its value on
larger windows.  The ground state is one record per (lam.a, kind) in a bounded
cache, keyed on lam's coefficients, a tuple that hashes in C: one period of ground
factors and, for each position in it, lam minus the weights of the ground factors
before it.  A whole period's ground weights sum to 0, so position k reads entry k
mod period.  A Path caches the rest: its weight, its hash, and Tensor's window and
signature record per i.  The factors are interned perfect-crystal elements, so the
signature reads each one's row, the weight is one integer sum of cached coefficients
(the record's entry at len(devs) mod period plus each deviation's ``wa``), and the
trim of ground factors and the hash read each factor's cached hash.
A Path has one normal form: its constructor stores the deviations as a tuple and
trims the trailing ones that equal the ground factor at their position, so equal
paths are equal values with equal hashes however they were built.  An operator's
result is the Path of the deviations with one factor replaced or appended (the new
factor from the element's own e_i/f_i memo) and inherits no cache, so check_axioms
compares values computed on each side of an edge.  A lowering walk reads the
position each f_i changes off the same record, and the wall tuples replay those steps.
A Path's text (``render``, also its ``str``) and ``path_to_json`` are its deviations'
own ``render()`` and ``to_json()``, highest position first in the text.

Every isomorphism reads a B1/Bn factor off a root content by one rule,
``factor_from_content``: the weight section of wt(ground factor k) - cl(content),
which is ground factor k of the record moved by the content, in a bounded cache.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .cartan import RootVec, Weight, cl_root
from .crystal_core import Tensor
from .perfect import ground_adj, ground_b1, ground_bn

class DeadWordError(ValueError):
    """A lowering word annihilated the highest weight element."""


class WordIndexError(ValueError):
    """A lowering word names an index outside 0..n."""


class WeightSectionError(ValueError):
    """A weight outside the image of wt was handed to a section map."""


@lru_cache(maxsize=64)
def _ground(a: tuple[int, ...], kind: str) -> tuple[tuple, tuple]:
    """The ground-state record of lam = Weight(a): one period of ground factors (n + 1 for
    B1/Bn, one for Ad) and, per position k in it, the a of lam - wt(factors 0 .. k - 1)."""
    lam = Weight(a)
    if kind == "Ad":
        period = (ground_adj(lam),)
    elif kind in ("B1", "Bn"):
        ground = ground_b1 if kind == "B1" else ground_bn
        period = tuple(ground(lam, k) for k in range(lam.n + 1))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    offsets, rest = [], lam
    for g in period:
        offsets.append(rest.a)
        rest -= g.wt()
    return period, tuple(offsets)


def ground_elem(lam: Weight, kind: str, k: int):
    period = _ground(lam.a, kind)[0]
    return period[k % len(period)]


def factor_from_content(lam: Weight, kind: str, k: int, content: RootVec):
    """The B1/Bn factor at position k: the section of wt(ground_k) - cl(content).

    Read off directly: f_i moves one unit of a B1 vector from index i - 1 to i (of
    a Bn vector from i to i - 1), so ground_k's vector moved by content's
    coefficients has that weight, and it is the only vector of its level that has
    it.  Raises WeightSectionError when that vector has a negative entry."""
    if kind not in ("B1", "Bn"):
        raise ValueError(f"no weight section for kind {kind!r}")
    return _section(lam.a, kind, k % (lam.n + 1), content.k)


@lru_cache(maxsize=256)
def _section(a: tuple[int, ...], kind: str, k: int, c: tuple[int, ...]):
    """factor_from_content at 0 <= k <= n, the period of the B1/Bn ground factors."""
    g = _ground(a, kind)[0][k]
    s = 1 if kind == "B1" else -1
    vec = tuple([v + s * (x - y) for v, x, y in zip(g.nu, c, c[1:] + c[:1], strict=True)])
    if min(vec) < 0:
        raise WeightSectionError(f"{g.wt() - cl_root(RootVec(c))} is not a {kind} weight "
                                 f"at level {sum(a)}")
    return type(g)(vec)


@dataclass(frozen=True, init=False)
class Path(Tensor):
    """Path in normal form: devs[k] is the factor at position k for k < len(devs), and
    the ground factor from there on.

    The constructor takes any iterable of deviations, stores it as a tuple and trims
    trailing ground factors.  ValueError: an unknown kind, or a deviation whose interned
    ``family`` (class, rank, level) is not the ground factors'.  A Tensor on its window
    [g_T, *reversed(devs)], T = len(devs), that leaves out g_T's "-" symbols.
    wt and the hash are cached on first use; wt is the ground-state record's offset at
    len(devs) mod period plus each deviation's wa.  An operator's result holds only
    lam, kind and devs until something reads it."""

    lam: Weight
    kind: str
    devs: tuple = ()

    def __init__(self, lam: Weight, kind: str, devs=()):  # one dict update: no frozen setattr
        devs, period = tuple(devs), _ground(lam.a, kind)[0]
        family = period[0].family
        for dev in devs:
            if getattr(dev, "family", None) is not family:
                raise ValueError(f"deviation {dev!r} is not a {kind} factor of rank {lam.n} "
                                 f"and level {lam.level}")
        top = len(devs)
        while top and devs[top - 1] == period[(top - 1) % len(period)]:
            top -= 1
        vars(self).update(lam=lam, kind=kind, devs=devs[:top])

    _DROP_LEFT_MINUS = True  # g_{T+1}, beyond the window, cancels them

    @property
    def n(self) -> int:
        return self.lam.n

    def factor(self, k: int):
        if k < len(self.devs):
            return self.devs[k]
        return ground_elem(self.lam, self.kind, k)

    def _window(self) -> list:
        """Highest position first.  A list, as freed short tuples pile up in CPython's
        free lists (+1.5 MB RSS)."""
        return [ground_elem(self.lam, self.kind, len(self.devs)), *reversed(self.devs)]

    def _with(self, idx: int, elem) -> Path:
        """The path with window factor idx replaced, or with f_i(g_T) appended."""
        pos = len(self.devs) - idx
        return Path(self.lam, self.kind, self.devs[:pos] + (elem,) + self.devs[pos + 1:])

    _wt = _hash = None  # until cached by hand in the instance dict, which takes no lock

    def wt(self) -> Weight:  # strict: a deviation of another rank raises ValueError
        w = self._wt
        if w is None:
            period, offsets = _ground(self.lam.a, self.kind)
            w = vars(self)["_wt"] = Weight(tuple(map(sum, zip(
                offsets[len(self.devs) % len(period)], *(dev.wa for dev in self.devs),
                strict=True))))
        return w

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = vars(self)["_hash"] = hash((self.lam.a, self.kind, self.devs))
        return h

    def __reduce__(self):  # unpickle without caches: str hashes differ between processes
        return Path, (self.lam, self.kind, self.devs)

    def __str__(self) -> str:
        facs = " (x) ".join(dev.render() for dev in reversed(self.devs))
        return f"...(x) {facs}" if facs else "ground"

    render = __str__  # the element protocol's text, as a graph label


def ground_path(lam: Weight, kind: str) -> Path:
    return Path(lam, kind)


def path_apply(op: str, i: int, p: Path):
    """Apply e_i/f_i on the window (exact by the junction identity); None when the
    operator annihilates the path."""
    res = p._step(op, i)
    return None if res is None else p._with(*res)


def lowering_steps(lam: Weight, kind: str, word) -> tuple[Path, list[tuple[int, int]]]:
    """Fold f-operators over the ground path; the rightmost token acts first.

    word is a sequence of (index, multiplicity) pairs in written order; an
    index outside 0..n raises WordIndexError, a negative multiplicity
    ValueError.  Returns the path and its steps in the order they act:
    ``(i, pos)`` when f_i changed the factor at ``pos``, read off the f-owner
    of the signature record f_i used.
    """
    word = list(word)
    word_alpha(lam.n, word)  # raises for an index outside 0..n or a negative multiplicity
    p = ground_path(lam, kind)
    steps = []
    for i, mult in reversed(word):
        for _ in range(mult):
            nxt = path_apply("f", i, p)
            if nxt is None:
                raise DeadWordError(f"f_{i} annihilates the path at {p}")
            steps.append((i, len(p.devs) - p._record(i)[3]))
            p = nxt
    return p, steps


def from_word(lam: Weight, kind: str, word) -> Path:
    """The path of ``lowering_steps``, without its steps."""
    return lowering_steps(lam, kind, word)[0]


_TOKEN = re.compile(r"([0-9]+)(?:\^([0-9]+))?")  # ASCII digits: int() takes any script's


def parse_word(text: str) -> tuple[tuple[int, int], ...]:
    """Parse a word string: whitespace-separated tokens ``i`` or ``i^m``."""
    out = []
    for tok in text.split():
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        out.append((int(m.group(1)), int(m.group(2) or 1)))
    return tuple(out)


def word_alpha(n: int, word) -> tuple[int, ...]:
    """Letter counts per index; an index outside 0..n raises WordIndexError, a
    negative multiplicity ValueError."""
    counts = [0] * (n + 1)
    for i, mult in word:
        if not 0 <= i <= n:
            raise WordIndexError(f"word index {i} is outside 0..{n}")
        if mult < 0:
            raise ValueError(f"word multiplicity {mult} of index {i} is negative")
        counts[i] += mult
    return tuple(counts)


# ------------------------------------------------------------------- JSON

def path_to_json(p: Path) -> dict:
    return {
        "schema": "v1",
        "lambda": list(p.lam.a),
        "kind": p.kind,
        "deviations": [d.to_json() for d in p.devs],
    }
