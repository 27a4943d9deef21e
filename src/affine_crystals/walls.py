"""Young-wall tuples for the row and column path models.

A wall is a stack of colored unit blocks over the pattern of a fundamental
weight: rows grow leftward from column 0 and may not leave free space to
their right, so a wall is just a weakly decreasing column-height sequence.
Block colors walk by one residue per step:

    color(row i, col j) = (c + SIGN * (i - 1 - j)) mod (n+1)

for charge c, rows counted from 1 at the bottom and columns from 0 at the
right.  Pn is the P1 pattern with the opposite SIGN (+1 for P1, -1 for Pn),
as are its interlacing order, column-0 charge shift and wall-map degree.

An l-tuple lives over one dominant weight lam = Lambda_{c_1} + ... +
Lambda_{c_l} of A_n^(1), charges c_1 <= ... <= c_l in 0..n (Kang, Proc. LMS
2003): a ``WallTuple`` carries n and reads ``lam`` off its charges, and a
function given a tuple or a path takes n, lam and the kind from it.
The tuple also satisfies a cyclic interlacing order between consecutive walls
and a reducedness condition (the left-end colors of the rows of any fixed
length never exhaust all residues; this is what kills the delta-direction
redundancy).

Column j of a tuple is read as path factor j (``walls_to_path``), through
``paths.factor_from_content`` with the column's content.  The
inverse ``path_to_walls`` replays the lowering steps that reached the path
from the empty tuple: each f_i adds one i-block, in the column of the factor
it changed, to the one wall where the block fits.  One block
changes one column and one row length, so the fit test (``_fits``) checks
just those; ``validate`` runs the same per-column and per-length rules over
the whole tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import RootVec, Weight, decompose, weight, zero_root
from .paths import Path, factor_from_content


class InversionError(RuntimeError):
    """A path could not be carried back to its wall tuple.

    Raised when a replayed lowering step fits no wall or more than one, or
    when the replayed tuple misses the given content or the given path.
    """


WALL_KINDS = ("P1", "Pn")
PATH_KIND = {"P1": "B1", "Pn": "Bn"}  # the path model each wall kind realizes
WALL_KIND = {"B1": "P1", "Bn": "Pn"}  # and the wall kind each path model has
SIGN = {"P1": 1, "Pn": -1}  # the direction colors walk in, down a column


@dataclass(frozen=True)
class WallTuple:
    kind: str
    n: int
    charges: tuple[int, ...]  # ascending, in 0..n
    heights: tuple[tuple[int, ...], ...]  # per wall, index = column from the right

    @property
    def lam(self) -> Weight:
        """The dominant weight: Lambda_c summed over the charges c."""
        return weight(map(self.charges.count, range(self.n + 1)))

    def n_cols(self) -> int:
        return max((len(h) for h in self.heights), default=0)

    def block_count(self) -> int:
        return sum(sum(h) for h in self.heights)

    def __str__(self) -> str:
        walls = "; ".join(f"c{c}:{list(h)}" for c, h in zip(self.charges, self.heights))
        return f"{self.kind}({walls})"


def make_walls(kind: str, n: int, charges, heights) -> WallTuple:
    """A tuple of rank n >= 1, trailing zero heights trimmed; ValueError unless
    the kind is known and one height sequence follows each ascending charge in 0..n."""
    if kind not in WALL_KINDS:
        raise ValueError(f"unknown wall kind {kind!r}")
    charges, heights = tuple(charges), tuple(heights)
    if len(heights) != len(charges):
        raise ValueError("one height sequence per charge required")
    if n < 1 or not all(0 <= c <= n for c in charges):
        raise ValueError(f"rank {n} with charges {charges}: needs n >= 1 and charges in 0..n")
    if any(charges[t] > charges[t + 1] for t in range(len(charges) - 1)):
        raise ValueError("charges must be ascending")
    trimmed = []
    for h in heights:
        h = list(h)
        while h and h[-1] == 0:
            h.pop()
        trimmed.append(tuple(h))
    return WallTuple(kind, n, charges, tuple(trimmed))


def block_color(n: int, kind: str, charge: int, row: int, col: int) -> int:
    return (charge + SIGN[kind] * (row - 1 - col)) % (n + 1)


def column_content(walls: WallTuple, j: int) -> RootVec:
    counts = [0] * (walls.n + 1)
    for charge, h in zip(walls.charges, walls.heights):
        height = h[j] if j < len(h) else 0
        for row in range(1, height + 1):
            counts[block_color(walls.n, walls.kind, charge, row, j)] += 1
    return RootVec(tuple(counts))


def total_content(walls: WallTuple) -> RootVec:
    out = zero_root(walls.n)
    for j in range(walls.n_cols()):
        out = out + column_content(walls, j)
    return out


def _interlaced(n: int, kind: str, charges, w: int, a: int, b: int) -> bool:
    """Whether wall w at height a and the next wall at height b in one column interlace
    (cyclically: the last wall against the first one period up, at charge c_0 + n + 1)."""
    v = (w + 1) % len(charges)
    return SIGN[kind] * (a - b) <= charges[v] - charges[w] + (0 if v else n + 1)


def _column_fault(n: int, kind: str, charges, heights, j: int) -> str:
    """Stacking and interlacing at column j: the first witness, or ''."""
    col = [h[j] if j < len(h) else 0 for h in heights]
    for w, (h, c) in enumerate(zip(heights, col)):
        if c < 0:
            return f"wall {w}: negative height"
        if c and j and h[j - 1] < c:  # c > 0: column j - 1 is inside h
            return f"wall {w}: free space right of column {j}"
    for w in range(len(charges)):
        v = (w + 1) % len(charges)
        if not _interlaced(n, kind, charges, w, col[w], col[v]):
            return f"interlacing fails between walls {w},{v} at column {j}"
    return ""


def _length_fault(n: int, kind: str, charges, heights, length: int) -> str:
    """Reducedness of the rows of this length: their left-end colors miss a residue."""
    colors = {block_color(n, kind, c, row, length - 1)
              for c, h in zip(charges, heights) if len(h) >= length
              for row in range((h[length] if len(h) > length else 0) + 1, h[length - 1] + 1)}
    return f"not reduced: rows of length {length} use every color" if len(colors) == n + 1 else ""


def validate(walls: WallTuple) -> tuple[bool, str]:
    """Stacking, cyclic interlacing, and reducedness; first witness on failure."""
    cols = range(walls.n_cols())
    args = (walls.n, walls.kind, walls.charges, walls.heights)
    fault = (next(filter(None, (_column_fault(*args, j) for j in cols)), "")
             or next(filter(None, (_length_fault(*args, j + 1) for j in cols)), ""))
    return (False, fault) if fault else (True, "ok")


def _add_block(h: list[int], pos: int) -> None:
    h.extend([0] * (pos + 1 - len(h)))
    h[pos] += 1


def _fits(n: int, kind: str, charges, heights: list[list[int]], w: int, pos: int) -> bool:
    """Whether the valid heights (trimmed lists) stay valid with one more block on wall w
    at column pos: only w's stacking and its interlacing with its two cyclic neighbours
    at pos, and the reducedness of rows of length pos + 1 (the one row that grows), can
    change.  heights is bumped in place for the last test and restored."""
    h = heights[w]
    top = (h[pos] if pos < len(h) else 0) + 1
    # a lone wall is its own neighbour, read one block low: a gap of 1 <= n + 1 passes
    left, right = heights[w - 1], heights[(w + 1) % len(heights)]
    if (pos and (pos > len(h) or h[pos - 1] < top)
            or not _interlaced(n, kind, charges, w - 1, left[pos] if pos < len(left) else 0, top)
            or not _interlaced(n, kind, charges, w, top, right[pos] if pos < len(right) else 0)):
        return False
    _add_block(h, pos)
    try:
        return not _length_fault(n, kind, charges, heights, pos + 1)
    finally:
        h[pos] -= 1
        while h and not h[-1]:
            h.pop()


# ------------------------------------------------------------ wall <-> path

def walls_to_path(walls: WallTuple) -> Path:
    """Factor j is factor_from_content of column j's content."""
    lam, kind = walls.lam, PATH_KIND[walls.kind]
    return Path(lam, kind, [factor_from_content(lam, kind, j, column_content(walls, j))
                            for j in range(walls.n_cols())])


def path_to_walls(path: Path, steps, alpha: RootVec) -> WallTuple:
    """Invert walls_to_path by replaying the path's lowering steps, one block each.

    The tuple takes the path's n and lam, and is P1 for a B1 path, Pn for a Bn
    path; an Ad path has none (ValueError).  steps are the (i, pos) of
    ``paths.lowering_steps``, in the order they act: f_i changed the factor at
    pos, which lowers that column's classical weight by exactly alpha_i.  So
    each step adds one i-block at column pos, and exactly one wall must take it
    and stay valid.  The steps edit one heights list per wall in place.  The
    result must be valid, have content alpha and map back to the path,
    whatever word the steps came from.
    """
    if path.kind not in WALL_KIND:
        raise ValueError(f"{path.kind} paths have no wall tuple")
    n, kind, charges = path.n, WALL_KIND[path.kind], decompose(path.lam)
    heights: list[list[int]] = [[] for _ in charges]
    for t, (i, pos) in enumerate(steps):
        fits = [w for w, h in enumerate(heights)
                if block_color(n, kind, charges[w], (h[pos] if pos < len(h) else 0) + 1, pos) == i
                and _fits(n, kind, charges, heights, w, pos)]
        if len(fits) != 1:
            raise InversionError(
                f"step {t} (f_{i} at column {pos}) fits walls {fits} "
                f"of {kind} heights {heights}"
            )
        _add_block(heights[fits[0]], pos)
    out = make_walls(kind, n, charges, heights)
    ok, msg = validate(out)
    if not ok:
        raise InversionError(f"replayed tuple {out} is not valid: {msg}")
    if total_content(out) != alpha:
        raise InversionError(f"replayed content {total_content(out)} is not alpha = {alpha}")
    if walls_to_path(out) != path:
        raise InversionError(f"replayed tuple {out} does not map back to {path}")
    return out


def strip_column0(walls: WallTuple) -> tuple[WallTuple, RootVec]:
    """Remove column 0 everywhere; charges shift by -1 (P1) or +1 (Pn).

    Walls whose charge wraps move cyclically to the other end so charges stay
    ascending; the result lives over the rotated dominant weight.
    """
    shift = -SIGN[walls.kind]
    items = sorted((((c + shift) % (walls.n + 1), h[1:])
                    for c, h in zip(walls.charges, walls.heights)), key=lambda it: it[0])
    out = make_walls(walls.kind, walls.n, [c for c, _ in items], [h for _, h in items])
    ok, msg = validate(out)
    if not ok:
        raise InversionError(f"stripping column 0 broke validity: {msg}")
    return out, column_content(walls, 0)


# ------------------------------------------------------------------- JSON

def walls_to_json(walls: WallTuple) -> dict:
    return {
        "schema": "v1",
        "kind": walls.kind,
        "charges": list(walls.charges),
        "heights": [list(h) for h in walls.heights],
    }
