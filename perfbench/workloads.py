"""The four benchmark workloads: input generation, the timed program call,
and the output check.

Inputs are generated from the workload seed with the benchmark's own
random walk over the crystal; the program only ever receives the generated
weights, words and quiver seeds.  Pipeline workloads call ``cli.main`` with
stdout captured; the ``balls`` workload calls ``crystal_core.generate_graph``
and ``crystal_core.check_axioms`` (looked up on the module at call time, so
the traced run can wrap them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
from dataclasses import dataclass

from affine_crystals import cli, crystal_core
from affine_crystals.cartan import weight
from affine_crystals.paths import ground_path, path_to_json

WORKED_EXAMPLE = ((2, 1, 0), "1^4 2^5 1^2 0^4 2 1")


@dataclass(frozen=True)
class Case:
    key: str     # canonical description of the input; reference digests use it
    args: tuple  # what the workload's ``call`` receives


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def random_dominant(n: int, lvl: int, rng: random.Random) -> tuple[int, ...]:
    cuts = sorted(rng.randrange(lvl + 1) for _ in range(n))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [lvl]))


def random_word(lam: tuple[int, ...], length: int, rng: random.Random) -> str:
    """A lowering word of at most ``length`` letters that never annihilates.

    Random walk down the row-model crystal; written order, rightmost first.
    """
    p = ground_path(weight(lam), "B1")
    seq: list[int] = []
    for _ in range(length):
        options = [i for i in range(len(lam)) if p.phi(i) > 0]
        if not options:
            break
        i = rng.choice(options)
        p = p.f(i)
        seq.append(i)
    return " ".join(str(i) for i in reversed(seq))


# ------------------------------------------------------------------ quiver

class QuiverWorkload:
    """``affine-crystals quiver`` on generated words, one CLI call per case."""

    hooks = "pipeline"

    def __init__(self, name: str, field: str, shapes, pool: int, counted: int):
        self.name = name
        self.field = field
        self.shapes = shapes      # (rng, index, tiny) -> (lam, word length)
        self.pool = pool          # generated cases; a run cycles through them
        self.counted = counted    # leading pool cases in the counted (profiled) run

    def case(self, lam, word: str, qseed: int) -> Case:
        argv = ("quiver", "--n", str(len(lam) - 1), "--lambda", ",".join(map(str, lam)),
                "--word", word, "--seed", str(qseed), "--field", self.field)
        return Case(shlex.join(argv), argv)

    def cases(self, seed: int, count: int, tiny: bool) -> list[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for t in range(count):
            lam, length = self.shapes(rng, t, tiny)
            out.append(self.case(lam, random_word(lam, length, rng), rng.randrange(10**6)))
        return out

    def warmup(self) -> Case:
        return self.case(*WORKED_EXAMPLE, 0)

    @staticmethod
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    @staticmethod
    def check(raw) -> tuple[bool, str, str]:
        rc, text = raw
        data = json.loads(text)
        if rc != 0 or data.get("ok") is not True:
            return False, digest(text), f"exit {rc}, ok={data.get('ok')}"
        return True, digest(text), ""


def _walls_deep(rng, t, tiny):
    # level-6 weights of A_2^(1), where the wall search is deepest; the two
    # shapes cost the same at this length, the seed picks the words
    return ((3, 2, 1), (2, 2, 2))[t % 2], 8 if tiny else 24


def _bridge_wide(rng, t, tiny):
    # every (n, level, length) cell once per 225 cases, in a scattered order
    # (97 is prime to 225); the seed picks the weight and the word
    cell = t * 97 % 225
    n, lvl, length = 1 + cell % 3, 1 + cell // 3 % 3, cell // 9
    return random_dominant(n, lvl, rng), length % 7 if tiny else length


def _exact_qq(rng, t, tiny):
    # level-1 weights of A_2^(1); all three have the same cost profile
    k = rng.randrange(3)
    return tuple(int(c == k) for c in range(3)), 6 if tiny else 28


# ------------------------------------------------------------------- balls

BALL_SHAPES = ((2, 0, 0), (1, 1, 0))  # the level-2 weights of A_2^(1) up to rotation
# A fixed rotation of (kind, shape) cells, so every run holds the same mix:
# B1 and Bn on both shapes, then one Ad ball, alternating its shape.  An Ad
# ball costs about twice a B1/Bn ball; at one case in five the median and
# the tail fall inside the B1/Bn cluster instead of on its edge.
BALL_CELLS = tuple(cell for ad in BALL_SHAPES
                   for cell in [(k, s) for s in BALL_SHAPES for k in ("B1", "Bn")] + [("Ad", ad)])


class BallsWorkload:
    """500-node path balls put through the crystal axioms, one ball per case."""

    name = "balls"
    hooks = "balls"
    pool = 48
    counted = 3

    def cases(self, seed: int, count: int, tiny: bool) -> list[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        nodes = 40 if tiny else 500
        out = []
        for t in range(count):
            kind, shape = BALL_CELLS[t % len(BALL_CELLS)]
            r = rng.randrange(3)  # the seed picks each weight's rotation
            lam = shape[r:] + shape[:r]
            out.append(Case(f"ball {kind} lambda={','.join(map(str, lam))} nodes={nodes}",
                            (kind, lam, nodes)))
        return out

    def warmup(self) -> Case:
        return Case("ball Ad lambda=2,1,0 nodes=30", ("Ad", (2, 1, 0), 30))

    @staticmethod
    def call(args):
        kind, lam, nodes = args
        g = crystal_core.generate_graph(ground_path(weight(lam), kind), max_nodes=nodes)
        return nodes, g, crystal_core.check_axioms(g)

    @staticmethod
    def check(raw) -> tuple[bool, str, str]:
        nodes, g, bad = raw
        text = json.dumps([[path_to_json(b) for b in g.nodes], g.edges], sort_keys=True)
        if bad:
            return False, digest(text), bad[0]
        if not g.complete and len(g.nodes) != nodes:
            return False, digest(text), f"truncated ball has {len(g.nodes)} nodes"
        return True, digest(text), ""


WORKLOADS = {
    w.name: w
    for w in (
        QuiverWorkload("walls-deep", "fp", _walls_deep, pool=160, counted=2),
        QuiverWorkload("bridge-wide", "fp", _bridge_wide, pool=800, counted=20),
        QuiverWorkload("exact-qq", "qq", _exact_qq, pool=48, counted=1),
        BallsWorkload(),
    )
}
