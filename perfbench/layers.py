"""Per-layer instrumentation installed from outside the program.

The traced run wraps the names that ``iso.run_pipeline`` and
``cli.cmd_quiver`` look up at call time (and the two ``crystal_core`` entry
points for the balls), so the program's own ``run_pipeline`` executes and no
source file changes.  Each wrapper records a span's self time (its duration
minus the time of the spans it caused) and, for some layers, a work size.

The counted run attaches the stdlib profiler and keeps only exact call
counts, plus per-module self-time shares that the profiler's own overhead
distorts.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import os
import pstats
import time
from collections import Counter

clock = time.process_time
HERE = os.path.dirname(os.path.abspath(__file__))

# (module, name looked up at call time, span)
PIPELINE_HOOKS = (
    ("cli", "run_pipeline", "iso.self"),
    ("cli", "report_to_json", "iso.to_json"),
    ("cli", "_dump", "cli.output"),
    ("quiver", "commutant_basis", "cli.extra_commutant"),  # cmd_quiver's rebuild
    ("iso", "from_word", "paths.from_word"),
    ("iso", "path_to_walls", "walls.inversion"),
    ("iso", "wall_graded_map", "quiver.wall_map"),
    ("iso", "commutant_basis", "quiver.commutant"),
    ("iso", "generic_kernel_table", "quiver.kernel_table"),
    ("iso", "b1_path_from_kernels", "iso.reconstruct"),
    ("iso", "bn_path_from_kernels", "iso.reconstruct"),
    ("iso", "adj_path_from_kernels", "iso.reconstruct"),
    ("iso", "_stable_once", "quiver.stability"),
)
BALL_HOOKS = (
    ("crystal_core", "generate_graph", "crystal_core.generate"),
    ("crystal_core", "check_axioms", "crystal_core.axioms"),
)
HOOKS = {"pipeline": PIPELINE_HOOKS, "balls": BALL_HOOKS}
SPANS = sorted({span for hooks in HOOKS.values() for _, _, span in hooks})


def _commutant_sizes(args, out):
    x = args[0]
    dims, m = x.dims, len(x.dims)
    unknowns = sum(dims[b] * dims[(b + x.shift) % m] for b in range(m))
    return {"quiver.commutant_unknowns": unknowns, "quiver.commutant_dim": len(out)}


# work sizes, computed from a span's arguments and result
SIZES = {
    "paths.from_word": lambda a, out: {"paths.f_steps": sum(m for _, m in a[2])},
    "walls.inversion": lambda a, out: {"walls.blocks": out.block_count()},
    "quiver.commutant": _commutant_sizes,
    "crystal_core.generate": lambda a, out: {"crystal_core.nodes": len(out.nodes),
                                             "crystal_core.edges": len(out.edges)},
}
WORK_SIZES = ("paths.f_steps", "walls.blocks", "quiver.commutant_unknowns",
              "quiver.commutant_dim", "crystal_core.nodes", "crystal_core.edges")


class HookError(RuntimeError):
    """A name the traced run must wrap is missing from the program."""


class Tracer:
    """Span self times and work sizes, accumulated over the traced cases."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.sizes: Counter = Counter()
        self._child: list[float] = []  # child time of each open span

    def wrap(self, span: str, fn):
        size = SIZES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[span] += dt - self._child.pop()
                if self._child:
                    self._child[-1] += dt
            if size is not None:
                self.sizes.update(size(args, out))
            return out

        return traced


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks):
    """Install the wrappers for the duration of the block; fail on a missing name."""
    modules = {m: importlib.import_module(f"affine_crystals.{m}") for m, _, _ in hooks}
    missing = [f"{m}.{name}" for m, name, _ in hooks
               if not callable(getattr(modules[m], name, None))]
    if missing:
        raise HookError(f"hooked names missing from the program: {', '.join(missing)}")
    saved = []
    try:
        for m, name, span in hooks:
            saved.append((modules[m], name, getattr(modules[m], name)))
            setattr(modules[m], name, tracer.wrap(span, saved[-1][2]))
        yield tracer
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


# ------------------------------------------------------------- counted run

# metric -> (module file, function) whose exact call count it reports
CALLS = {
    "walls.per_wall_calls": ("walls", "per_wall"),
    "paths.path_apply_calls": ("paths", "path_apply"),
    "paths.ground_elem_calls": ("paths", "ground_elem"),
    "crystal_core.signature_calls": ("crystal_core", "signature"),
    "quiver.samples_drawn": ("quiver", "kernel_table_at"),
    "linalg.rank_calls": ("linalg", "rank"),
    "linalg.nullspace_calls": ("linalg", "nullspace"),
    "linalg.gm_compose_calls": ("linalg", "gm_compose"),
}
# metric -> (numerator function, denominator function)
RATIOS = {
    "walls.per_wall_per_inversion": (("walls", "per_wall"), ("walls", "path_to_walls")),
    "paths.window_evals_per_apply": (("paths", "_apply_window"), ("paths", "path_apply")),
    "quiver.samples_per_table": (("quiver", "kernel_table_at"),
                                 ("quiver", "generic_kernel_table")),
}
MODULES = ("cartan", "perfect", "crystal_core", "paths", "walls", "linalg", "quiver",
           "iso", "suites", "cli")
COUNTS = sorted(CALLS) + sorted(RATIOS)
SHARES = [f"{m}.profiled_self_share" for m in MODULES] + ["stdlib.profiled_self_share"]


def _module_of(filename: str) -> str | None:
    head, base = os.path.split(filename)
    if os.path.basename(head) == "affine_crystals" and base.endswith(".py"):
        return base[:-3]
    return None


def profile_counts(prof: cProfile.Profile) -> dict[str, float]:
    """Exact call counts and per-module self-time shares from a profile."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        mod = _module_of(filename)
        if mod is not None:
            calls[(mod, func)] += ncalls
        elif filename.startswith(HERE):
            continue  # the benchmark's own wrappers and loop
        self_s[mod or "stdlib"] += tottime
    out: dict[str, float] = {name: calls[key] for name, key in CALLS.items()}
    for name, (num, den) in RATIOS.items():
        out[name] = calls[num] / calls[den] if calls[den] else 0.0
    total = sum(self_s.values()) or 1.0
    for name in SHARES:
        out[name] = self_s[name.split(".")[0]] / total
    return out
