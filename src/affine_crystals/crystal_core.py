"""Signature-rule tensor combinatorics and crystal-graph utilities.

Every crystal element type in this package exposes the same small interface:
``wt()``, ``eps(i)``, ``phi(i)``, ``e(i)`` and ``f(i)``, where ``e``/``f``
return ``None`` when the operator is undefined.  Everything here is written
against that interface only, except that a tensor factor also exposes its
row: ``row[i]`` is (eps_i, phi_i) for i = 0..n, which ``signature`` reads.
The perfect-crystal elements compute theirs once, when built; a TensorProd
computes its own on demand.

Tensor convention, factors listed left (first) to right (last): for b1 (x) b2,
f_i acts on b1 iff phi_i(b1) > eps_i(b2), and e_i acts on b1 iff
phi_i(b1) >= eps_i(b2).  Equivalently: write -^eps +^phi per factor, cancel
adjacent "+-" pairs, then f_i hits the owner of the leftmost surviving "+"
and e_i the owner of the rightmost surviving "-".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def eps_phi_tensor(i: int, factors) -> tuple[int, int]:
    """(eps_i, phi_i) of an ordered tensor of factors."""
    minus, plus = signature(i, factors)
    return len(minus), len(plus)


def tensor_apply(op: str, i: int, factors):
    """Apply e_i or f_i to an ordered tensor.

    Returns (factor_index, new_element) or None when no symbol survives.
    """
    minus, plus = signature(i, factors)
    if op == "f":
        if not plus:
            return None
        idx = plus[0]
        out = factors[idx].f(i)
    elif op == "e":
        if not minus:
            return None
        idx = minus[-1]
        out = factors[idx].e(i)
    else:
        raise ValueError(f"op must be 'e' or 'f', got {op!r}")
    if out is None:
        raise ValueError(f"{op}_{i} does not act on {factors[idx]}, which owns a surviving symbol")
    return idx, out


@dataclass(frozen=True)
class TensorProd:
    """Finite ordered tensor of crystal elements, itself a crystal element."""

    factors: tuple

    def wt(self) -> Weight:
        w = self.factors[0].wt()
        for b in self.factors[1:]:
            w = w + b.wt()
        return w

    @cached_property
    def row(self) -> tuple[tuple[int, int], ...]:
        return tuple(eps_phi_tensor(i, self.factors) for i in range(len(self.factors[0].row)))

    def eps(self, i: int) -> int:
        return self.row[i % len(self.row)][0]

    def phi(self, i: int) -> int:
        return self.row[i % len(self.row)][1]

    def _apply(self, op: str, i: int):
        res = tensor_apply(op, i % len(self.factors[0].row), self.factors)
        if res is None:
            return None
        idx, new = res
        facs = list(self.factors)
        facs[idx] = new
        return TensorProd(tuple(facs))

    def e(self, i: int):
        return self._apply("e", i)

    def f(self, i: int):
        return self._apply("f", i)


def eps_weight(b) -> Weight:
    n = b.wt().n
    return Weight(tuple(b.eps(i) for i in range(n + 1)))


def phi_weight(b) -> Weight:
    n = b.wt().n
    return Weight(tuple(b.phi(i) for i in range(n + 1)))


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
    n = seed.wt().n
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
                if out not in g.ids:
                    if len(g.nodes) >= max_nodes:
                        g.complete = False
                        continue
                    g.ids[out] = len(g.nodes)
                    g.nodes.append(out)
                    queue.append((g.ids[out], depth + 1))
                g.edges.append((src, op, i, g.ids[out]))
    return g


def check_axioms(graph: CrystalGraph) -> list[str]:
    """Verify the crystal axioms on every node and edge; returns violations."""
    bad: list[str] = []
    n = graph.nodes[0].wt().n if graph.nodes else -1  # an empty graph needs no roots
    roots = [cl_root(simple_root(n, i)) for i in range(n + 1)]
    for b in graph.nodes:
        w = b.wt()
        for i in range(n + 1):
            if b.phi(i) != b.eps(i) + pairing(i, w):
                bad.append(f"phi/eps/wt mismatch at i={i}: {b}")
    for src, op, i, dst in graph.edges:
        b, b2 = graph.nodes[src], graph.nodes[dst]
        if op == "f":
            if b2.wt() != b.wt() - roots[i]:
                bad.append(f"wt(f_{i} b) != wt(b) - cl(alpha_{i}): {b}")
            if b2.eps(i) != b.eps(i) + 1 or b2.phi(i) != b.phi(i) - 1:
                bad.append(f"eps/phi step wrong along f_{i}: {b}")
            if b2.e(i) != b:
                bad.append(f"e_{i} does not invert f_{i}: {b}")
        else:
            if b2.wt() != b.wt() + roots[i]:
                bad.append(f"wt(e_{i} b) != wt(b) + cl(alpha_{i}): {b}")
            if b2.eps(i) != b.eps(i) - 1 or b2.phi(i) != b.phi(i) + 1:
                bad.append(f"eps/phi step wrong along e_{i}: {b}")
            if b2.f(i) != b:
                bad.append(f"f_{i} does not invert e_{i}: {b}")
    return bad
