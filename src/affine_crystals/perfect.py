"""The level-l perfect crystals of type A_n^(1) used by the path models.

Three families:

* B1Elem -- the row crystal: multiplicity vector nu over the letters 1..n+1,
  sum(nu) = l.  f_i turns a letter i into i+1 (indices cyclic, so f_0 turns
  n+1 into 1).
* BnElem -- the column crystal: multiplicity vector nubar over the barred
  letters 1~..n+1~ (i~ is the height-n column missing i).  It is the row rule
  ``_Row`` read dually: eps/phi and e/f swap and wt is negated, so f_i turns
  i+1~ into i~.  Its ground state and rendering are B1's, taken dually.
* AdjElem -- the adjoint crystal B(0) + B(theta) + ... + B(l*theta), encoded
  as the pair (mbar, m): mbar counts barred columns, m counts boxes, both of
  size k <= l, with mbar_1 * m_1 = 0 (semistandardness of the two-row
  tableau).  Its operators are the pair tensor rule (box part left, barred
  part right, matching the column reading of the tableau) in closed form,
  one rule for every i, 0 included.

Elements are interned values: every construction, operator results included,
goes through ``_intern``, which returns the one element of that value and
builds it, checked, only on a miss.  A build computes, by the class's own
rule, the element's row (``row[i]`` is (eps_i, phi_i) for i = 0..n, which the
signature rule reads), its weight coefficients ``wa`` and an ints-only hash; the
element holds the tuples its build made, with no pool shared between elements.
The e_i/f_i results are a memo filled lazily, each slot by the rule applied to
this element when first asked for; no slot is filled by inverting a
neighbour's result, so e_i(f_i b) == b stays a check.  Equality is by value,
with identity as the fast path, so the bounded table can be dropped at any
time (``_drop``) without changing any output.  Elements pickle as their value.
Each class writes its value in its own formats: ``render()`` is the text of the
CLI's ``path`` and ``graph`` output, ``to_json()`` the deviation record of
``paths.path_to_json``.

``merge_pair``/``split_adj`` realize the crystal isomorphism
B1 (x) Bn  ~~>  Adj by cancelling c = min(nu_1, nubar_1) leading pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .cartan import Weight, _integers
from .crystal_core import TensorProd, eps_weight, generate_graph, phi_weight


# -------------------------------------------------------------- interning

INTERN_CAP = 4096  # elements the table holds; a full table is dropped whole
_TABLE: dict = {}  # (class, *value) -> the one element of that value
_ASK = object()  # an e_i/f_i memo slot not asked for yet
_FAMILIES: dict = {}  # (class, rank + 1, level) -> that tuple, one object per family


def _intern(cls, *value):
    """The element of class cls with this value, built and checked on a miss.  The
    constructors pass each entry through operator.index first: a float equal to an int
    hashes as it does, so it would find, or be stored under, that int's key."""
    elem = _TABLE.get((cls, *value))
    if elem is None:
        row, wa = cls._rule_values(*value)  # raises ValueError for an invalid value
        elem = object.__new__(cls)
        for name, v in (*zip(cls._FIELDS, value, strict=True), ("row", row), ("wa", wa),
                        ("_hash", hash(value)), ("_ops", [_ASK] * (2 * len(row)))):
            object.__setattr__(elem, name, v)
        family = (cls, len(row), elem.level)
        object.__setattr__(elem, "family", _FAMILIES.setdefault(family, family))
        if len(_TABLE) >= INTERN_CAP:
            _drop()
        _TABLE[(cls, *value)] = elem
    return elem


def _drop():
    """Forget every interned element and empty its memo, so that an element held
    elsewhere keeps no other alive; equality is by value, so no output changes."""
    for elem in _TABLE.values():
        elem._ops[:] = [_ASK] * len(elem._ops)
    _TABLE.clear()


class _Elem:
    """An interned element: its value fields, and the row, wa, hash, e_i/f_i memo and
    family that ``_intern`` fills (``_ops[i]`` is e_i, ``_ops[n + 1 + i]`` is f_i; the
    family, one shared (class, n + 1, level) tuple, is what a Path checks).  Each
    class gives its rule: the classmethod ``_rule_values(*value)``, the (row, wt
    coefficients) of a value, raising ValueError for an invalid one,
    ``_apply(op, i)``, e_i/f_i or None, and its formats ``render()`` and ``to_json()``."""

    __slots__ = ("row", "wa", "_hash", "_ops", "family")
    _FIELDS: tuple[str, ...] = ()

    def _value(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._value() == other._value()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # pickles as the value: the memo and table stay behind
        return type(self), self._value()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._FIELDS, self._value()))
        return f"{type(self).__name__}({fields})"

    @property
    def n(self) -> int:
        return len(self.row) - 1

    def eps(self, i: int) -> int:
        return self.row[i % len(self.row)][0]

    def phi(self, i: int) -> int:
        return self.row[i % len(self.row)][1]

    def wt(self) -> Weight:
        return Weight(self.wa)

    def e(self, i: int):
        ops = self._ops
        j = i % len(self.row)
        out = ops[j]
        if out is _ASK:
            out = ops[j] = self._apply("e", i)
        return out

    def f(self, i: int):
        ops, m = self._ops, len(self.row)
        j = i % m + m
        out = ops[j]
        if out is _ASK:
            out = ops[j] = self._apply("f", i)
        return out


class _Row(_Elem):
    """The row rule on a multiplicity vector nu over the letters 1..n+1 (n >= 1):
    eps_i = nu_i, phi_i = nu_{i-1}, and f_i moves one unit from index i - 1 to i."""

    __slots__ = ("nu",)
    _FIELDS = ("nu",)
    _DUAL = False  # BnElem: eps/phi and e/f swapped, wt negated

    def __new__(cls, nu):
        return _intern(cls, _integers(nu))

    @property
    def level(self) -> int:
        return sum(self.nu)

    @classmethod
    def _rule_values(cls, nu):
        if len(nu) < 2 or min(nu) < 0:
            raise ValueError(f"no {cls.__name__} {nu}: needs >= 2 entries, all >= 0")
        row = [(nu[i], nu[i - 1]) for i in range(len(nu))]
        wa = [nu[j - 1] - nu[j] for j in range(len(nu))]
        if cls._DUAL:
            return tuple([(p, e) for e, p in row]), tuple([-c for c in wa])
        return tuple(row), tuple(wa)

    def _apply(self, op: str, i: int):
        """e_i/f_i by the row rule, or None when the index a unit leaves is empty."""
        m = len(self.nu)
        s, d = (i - 1, i) if (op == "f") != self._DUAL else (i, i - 1)
        s, d = s % m, d % m
        if self.nu[s] == 0:
            return None
        nu = list(self.nu)
        nu[s] -= 1
        nu[d] += 1
        return type(self)(nu)

    def render(self) -> str:
        """The letters in increasing order, e.g. "[1,3,3]"; read dually (Bn), the barred
        letters in decreasing order, e.g. "[2~,1~,1~]"."""
        order = range(self.n, -1, -1) if self._DUAL else range(self.n + 1)
        mark = "~" if self._DUAL else ""
        return "[" + ",".join(f"{t + 1}{mark}" for t in order for _ in range(self.nu[t])) + "]"

    def to_json(self) -> dict:
        return {"nubar" if self._DUAL else "nu": list(self.nu)}


class B1Elem(_Row):
    """Row-crystal element; nu[t] counts the letter t+1."""

    __slots__ = ()


class BnElem(_Row):
    """Column-crystal element; nubar[t] counts the barred letter (t+1)~.  The row
    rule on nubar read dually; not a B1Elem, so B1Elem(v) != BnElem(v)."""

    __slots__ = ()
    _DUAL = True

    @property
    def nubar(self) -> tuple[int, ...]:
        return self.nu


class AdjElem(_Elem):
    """Adjoint-crystal element as a (barred columns, boxes) multiplicity pair.

    eps_i, phi_i, e_i and f_i are the tensor rule on split_adj's pair B1(nu) (x)
    Bn(nubar), an isomorphism for every i: eps_i = nu_i + max(0, nubar_{i-1} - nu_{i-1}),
    and e_i/f_i act on B1(nu) when nu_{i-1} >= / > nubar_{i-1}.  nu, nubar are m, mbar
    with c = cap - k added at index 0, which cancels in the difference, so (indices
    mod n + 1) eps_i = m_i + [i = 0] c + max(0, mbar_{i-1} - m_{i-1}) and phi_i =
    mbar_i + [i = 0] c + max(0, m_{i-1} - mbar_{i-1})."""

    __slots__ = ("mbar", "m", "cap")
    _FIELDS = ("mbar", "m", "cap")

    def __new__(cls, mbar, m, cap):
        return _intern(cls, _integers(mbar), _integers(m), *_integers((cap,)))

    @property
    def k(self) -> int:
        return sum(self.m)

    @property
    def level(self) -> int:
        return self.cap

    @classmethod
    def _rule_values(cls, mb, m, cap):
        if (not 2 <= len(m) == len(mb) or not sum(mb) == sum(m) <= cap
                or mb[0] * m[0] or min(mb + m) < 0):
            raise ValueError(f"no adjoint element {mb}, {m}, cap {cap}: needs "
                             "equal lengths >= 2, entries >= 0, equal sums <= cap and "
                             "mbar_1 * m_1 = 0")
        c = cap - sum(m)
        row = tuple([(m[j] + max(0, mb[j - 1] - m[j - 1]), mb[j] + max(0, m[j - 1] - mb[j - 1]))
                     for j in range(len(m))])
        row = ((row[0][0] + c, row[0][1] + c),) + row[1:]
        # wt(box part) + wt(barred part), strict as Weight's sum
        wa = tuple([mp - mj + bj - bp for mp, mj, bj, bp in
                    zip(m[-1:] + m[:-1], m, mb, mb[-1:] + mb[:-1], strict=True)])
        return row, wa

    def _apply(self, op: str, i: int):
        """e_i/f_i (j = i mod n + 1) on the boxes when m_{j-1} > mbar_{j-1} (f) or >=
        (e), else on the barred columns; a move out of an empty index 0 takes one of
        the cap - k cancelled pairs, and index 0 is cancelled again after the move."""
        j = i % len(self.m)
        m, mbar = list(self.m), list(self.mbar)
        s, d = (j - 1, j) if op == "f" else (j, j - 1)
        box = m[j - 1] > mbar[j - 1] or op == "e" and m[j - 1] == mbar[j - 1]
        vec, s, d = (m, s, d) if box else (mbar, d, s)
        if not vec[s]:
            if s or self.k == self.cap:  # s in -1..n, so only s = 0 is index 0
                return None
            m[0] += 1
            mbar[0] += 1
        vec[s] -= 1
        vec[d] += 1
        c = min(m[0], mbar[0])
        return AdjElem((mbar[0] - c, *mbar[1:]), (m[0] - c, *m[1:]), self.cap)

    def render(self) -> str:
        """Row-major rendering of the two-part tableau, e.g. "rows: [1,2],[3]"."""
        n = self.n
        cols = []  # barred columns, largest letter first, then the boxes
        for t in range(n, -1, -1):
            cols.extend([[x for x in range(1, n + 2) if x != t + 1]] * self.mbar[t])
        for t, c in enumerate(self.m):
            cols.extend([[t + 1]] * c)
        rows = [",".join(str(col[r]) for col in cols if len(col) > r) for r in range(n)]
        body = ",".join(f"[{row}]" for row in rows if row)
        return f"rows: {body}" if body else "rows:"

    def to_json(self) -> dict:
        return {"mbar": list(self.mbar), "m": list(self.m), "cap": self.cap}


# ---------------------------------------------------------- merge and split

def merge_pair(b: B1Elem, bb: BnElem) -> AdjElem:
    """Pair (b, bb) -> adjoint element, cancelling min(nu_1, nubar_1) 1/1~ pairs."""
    if b.level != bb.level:
        raise ValueError(f"merge_pair needs equal levels, got {b.level} and {bb.level}")
    c = min(b.nu[0], bb.nubar[0])
    mbar = (bb.nubar[0] - c,) + bb.nubar[1:]
    m = (b.nu[0] - c,) + b.nu[1:]
    return AdjElem(mbar, m, b.level)


def split_adj(a: AdjElem) -> tuple[B1Elem, BnElem]:
    """Inverse of merge_pair: pad both first entries back up to the level."""
    c = a.cap - a.k
    return B1Elem((a.m[0] + c,) + a.m[1:]), BnElem((a.mbar[0] + c,) + a.mbar[1:])


# ------------------------------------------------------- ground-state data

def ground_b1(lam: Weight, k: int) -> B1Elem:
    """Position-k factor of the ground-state path in the row crystal."""
    m = lam.n + 1
    return B1Elem(tuple(lam.a[(j + k) % m] for j in range(1, m + 1)))


def ground_bn(lam: Weight, k: int) -> BnElem:
    """Position-k factor of the ground-state path in the column crystal: the dual
    of the row crystal's factor at position -k - 1."""
    return BnElem(ground_b1(lam, -k - 1).nu)


def ground_adj(lam: Weight) -> AdjElem:
    """The constant ground-state factor of the adjoint path model."""
    m = lam.n + 1
    vec = (0,) + tuple(lam.a[j] for j in range(1, m))
    return AdjElem(vec, vec, lam.level)


# ------------------------------------------------------------ enumeration

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def all_b1(n: int, lvl: int) -> list[B1Elem]:
    return [B1Elem(c) for c in _compositions(lvl, n + 1)]


def all_bn(n: int, lvl: int) -> list[BnElem]:
    return [BnElem(c) for c in _compositions(lvl, n + 1)]


def all_adj(n: int, lvl: int) -> list[AdjElem]:
    out = []
    for k in range(lvl + 1):
        for mbar, m in itertools.product(_compositions(k, n + 1), repeat=2):
            if mbar[0] * m[0] == 0:
                out.append(AdjElem(mbar, m, lvl))
    return out


# ------------------------------------------------------------ perfectness

def verify_perfect(elements, lvl: int) -> list[str]:
    """The failed perfectness conditions of a finite crystal, [] if it passes.

    The elements must be closed under every e_i and f_i; if one is not, the
    only failure returned names a missing element.  Verified: B (x) B is
    connected, counted as the ``generate_graph`` closures that cover its pairs
    (closed, as B is); <c, eps(b)> >= lvl for every b; for each classical
    dominant weight of level lvl there are unique elements b^L and b_L with
    eps(b^L) = L and phi(b_L) = L.  The module-theoretic conditions are out
    of scope here.
    """
    elements = list(elements)
    if not elements:
        return ["no elements: an empty crystal is not perfect"]
    n = elements[0].n
    members = set(elements)
    for b in elements:
        for i in range(n + 1):
            for out in (b.e(i), b.f(i)):
                if out is not None and out not in members:
                    return [f"not closed under e_i/f_i: {out} is missing"]
    failures: list[str] = []

    seen: set = set()
    components = 0
    for pair in (TensorProd((a, b)) for a in elements for b in elements):
        if pair not in seen:
            seen.update(generate_graph(pair, max_nodes=len(elements) ** 2).nodes)
            components += 1
    if components != 1:
        failures.append(f"B(x)B has {components} components")

    for b in elements:
        if sum(b.eps(i) for i in range(n + 1)) < lvl:
            failures.append(f"<c, eps(b)> < level at {b}")
            break

    eps_count = Counter(eps_weight(b).a for b in elements)
    phi_count = Counter(phi_weight(b).a for b in elements)
    for lam_a in _compositions(lvl, n + 1):
        if eps_count[lam_a] != 1:
            failures.append(f"eps(b) = {lam_a} hit {eps_count[lam_a]} times")
        if phi_count[lam_a] != 1:
            failures.append(f"phi(b) = {lam_a} hit {phi_count[lam_a]} times")
    return failures
