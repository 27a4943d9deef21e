"""Signature-rule tensor combinatorics and crystal-graph utilities.

Every crystal element type in this package exposes the same small interface:
its rank ``n``, its ``row`` (``row[i]`` is (eps_i, phi_i) for i = 0..n),
``wt()``, ``eps(i)``, ``phi(i)``, ``e(i)`` and ``f(i)``, where ``e``/``f``
return ``None`` when the operator is undefined.  Everything here is written
against that interface only: ``signature`` reads each factor's row, and
``eps_weight``/``phi_weight`` read its columns.  The perfect-crystal elements
compute their row once, when built.  ``Tensor`` is
the tensor rule, written once: its two kinds, TensorProd and the path of
``paths.py``, read eps_i, phi_i and the owners of e_i and f_i off one cached
signature record per i, and read their row off the same records, so each can be
a tensor factor in turn.

Tensor convention, factors listed left (first) to right (last): for b1 (x) b2,
f_i acts on b1 iff phi_i(b1) > eps_i(b2), and e_i acts on b1 iff
phi_i(b1) >= eps_i(b2).  Equivalently: write -^eps +^phi per factor, cancel
adjacent "+-" pairs, then f_i hits the owner of the leftmost surviving "+"
and e_i the owner of the rightmost surviving "-".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import Weight, cl_root, pairing, simple_root


def signature(i: int, factors) -> tuple[list[int], list[int]]:
    """Reduced signature word: (owners of surviving '-', owners of surviving '+').

    Reads each factor's ``row[i]``, so 0 <= i <= n."""
    minus: list[int] = []
    plus: list[int] = []
    for idx, b in enumerate(factors):
        e, p = b.row[i]
        if e > len(plus):  # cancel every open "+", the rest of the "-" survive
            minus += [idx] * (e - len(plus))
            plus.clear()
        elif e:
            del plus[-e:]
        plus += [idx] * p
    return minus, plus


class Tensor:
    """An element of an ordered tensor under the signature rule.  A subclass, a frozen
    dataclass whose constructor stores its factors as a tuple in one normal form, gives
    ``n``, ``_window()`` (the factors the rule reads, left to right) and ``_with(idx,
    elem)`` (its constructor's value with window factor idx replaced by elem).  The
    record of i, (eps_i, phi_i, e-owner, f-owner), is one ``signature`` call on first
    use; it and the window are cached by hand in the instance dict, as a first
    cached_property read takes a lock.  With ``_DROP_LEFT_MINUS`` the leftmost factor's
    "-" symbols count in neither eps_i nor the e-owner: the tail beyond the window
    cancels them."""

    _DROP_LEFT_MINUS = False
    _records = None  # until filled: then one record or None per i

    def _record(self, i: int) -> tuple:
        records = self._records
        if records is None:
            cache = vars(self)
            cache["_factors"] = self._window()
            records = cache["_records"] = [None] * (self.n + 1)
        i %= len(records)
        rec = records[i]
        if rec is None:
            minus, plus = signature(i, self._factors)
            eps = len(minus) - minus.count(0) if self._DROP_LEFT_MINUS else len(minus)
            rec = records[i] = (eps, len(plus), minus[-1] if eps else None, plus[0] if plus else None)
        return rec

    def _step(self, op: str, i: int):
        """(window index, the owner's e_i/f_i) or, when no symbol survives, None."""
        if op not in ("e", "f"):
            raise ValueError(f"op must be 'e' or 'f', got {op!r}")
        idx = self._record(i)[2 if op == "e" else 3]
        if idx is None:
            return None
        owner = self._factors[idx]
        out = owner.e(i) if op == "e" else owner.f(i)
        if out is None:
            raise ValueError(f"{op}_{i} does not act on {owner}, which owns a surviving symbol")
        return idx, out

    @property
    def row(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._record(i)[:2] for i in range(self.n + 1))

    def eps(self, i: int) -> int:
        return self._record(i)[0]

    def phi(self, i: int) -> int:
        return self._record(i)[1]

    def e(self, i: int):
        res = self._step("e", i)
        return None if res is None else self._with(*res)

    def f(self, i: int):
        res = self._step("f", i)
        return None if res is None else self._with(*res)


@dataclass(frozen=True)
class TensorProd(Tensor):
    """Finite ordered tensor of crystal elements of one rank, itself a crystal element.
    The constructor takes any iterable of factors and stores it as a tuple."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a tensor product needs at least one factor")
        if len({len(b.row) for b in self.factors}) > 1:
            raise ValueError(f"tensor factors of different ranks: {self.factors}")

    @property
    def n(self) -> int:
        return len(self.factors[0].row) - 1

    def _window(self) -> tuple:
        return self.factors

    def _with(self, idx: int, elem) -> TensorProd:
        return TensorProd(self.factors[:idx] + (elem,) + self.factors[idx + 1:])

    def wt(self) -> Weight:
        w = self.factors[0].wt()
        for b in self.factors[1:]:
            w = w + b.wt()
        return w


def eps_weight(b) -> Weight:
    return Weight(tuple([e for e, _ in b.row]))


def phi_weight(b) -> Weight:
    return Weight(tuple([p for _, p in b.row]))


@dataclass
class CrystalGraph:
    nodes: list
    ids: dict
    edges: list = field(default_factory=list)  # (src_id, op, i, dst_id)
    complete: bool = True


def generate_graph(seed, max_nodes: int = 2000, max_depth: int | None = None) -> CrystalGraph:
    """Breadth-first closure of a seed element under every e_i and f_i.

    Stops expanding once max_nodes is reached (or past max_depth) and flags
    the graph incomplete.
    """
    n = seed.n
    g = CrystalGraph(nodes=[seed], ids={seed: 0})
    queue: list[tuple[int, int]] = [(0, 0)]
    head = 0
    while head < len(queue):
        src, depth = queue[head]
        head += 1
        if max_depth is not None and depth >= max_depth:
            continue
        b = g.nodes[src]
        for i in range(n + 1):
            for op, out in (("e", b.e(i)), ("f", b.f(i))):
                if out is None:
                    continue
                dst = g.ids.get(out)
                if dst is None:
                    if len(g.nodes) >= max_nodes:
                        g.complete = False
                        continue
                    dst = g.ids[out] = len(g.nodes)
                    g.nodes.append(out)
                    queue.append((dst, depth + 1))
                g.edges.append((src, op, i, dst))
    return g


def check_axioms(graph: CrystalGraph) -> list[str]:
    """Verify the crystal axioms on every node and edge; returns violations.  Reads each
    node's wt and every (eps_i, phi_i) once, through its own methods; along each edge it
    compares those and recomputes e_i/f_i of the target by the target's own rule."""
    bad: list[str] = []
    n = graph.nodes[0].n if graph.nodes else -1  # an empty graph needs no roots
    roots = [cl_root(simple_root(n, i)) for i in range(n + 1)]
    wts = [b.wt() for b in graph.nodes]
    rows = [[(b.eps(i), b.phi(i)) for i in range(n + 1)] for b in graph.nodes]
    for b, w, row in zip(graph.nodes, wts, rows):
        for i, (eps, phi) in enumerate(row):
            if phi != eps + pairing(i, w):
                bad.append(f"phi/eps/wt mismatch at i={i}: {b}")
    for src, op, i, dst in graph.edges:
        b, b2 = graph.nodes[src], graph.nodes[dst]
        (eps, phi), (eps2, phi2) = rows[src][i], rows[dst][i]
        if op == "f":
            if wts[dst] != wts[src] - roots[i]:
                bad.append(f"wt(f_{i} b) != wt(b) - cl(alpha_{i}): {b}")
            if eps2 != eps + 1 or phi2 != phi - 1:
                bad.append(f"eps/phi step wrong along f_{i}: {b}")
            if b2.e(i) != b:
                bad.append(f"e_{i} does not invert f_{i}: {b}")
        else:
            if wts[dst] != wts[src] + roots[i]:
                bad.append(f"wt(e_{i} b) != wt(b) + cl(alpha_{i}): {b}")
            if eps2 != eps - 1 or phi2 != phi + 1:
                bad.append(f"eps/phi step wrong along e_{i}: {b}")
            if b2.f(i) != b:
                bad.append(f"f_{i} does not invert e_{i}: {b}")
    return bad
