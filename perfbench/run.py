"""Benchmark of the affine-crystals program.

    python3 perfbench/run.py --workload walls-deep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --ladder

A workload run sets up (import, input generation from the seed, one warm-up
case), then runs generated cases through the program's public entry points
for ``--seconds`` seconds, checking each output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs an untraced pass,
a traced pass over the same cases, and a profiled (counted) pass, and reports
the per-layer metrics.  Lines before the last state the run metadata and
each metric with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--all`` runs every workload, each in its own fresh process.  ``--ladder``
prints per-stage seconds of the ROADMAP ladder cells.  ``--record`` runs
every case of the seed's input pool once and stores the output digests in
the reference file.  Times are CPU seconds rescaled to a reference machine
speed; see NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("walls-deep", "bridge-wide", "exact-qq", "balls")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 22
SETUP_REPS = 3
MIN_CASES = 11         # the smallest run that has a case with 10 samples beyond it
TRACE_SHARE = 0.4      # share of --seconds for each of the untraced and traced passes
WALL_CAP = 1.15        # a pass stops at this multiple of its seconds of wall time
CAL_REFERENCE_S = 1e-3  # calibration loop CPU time at the reference speed
CAL_EVERY_S = 0.25     # case CPU seconds between calibrations
CAL_WINDOW = 4         # calibrations averaged into one speed factor
clock = time.process_time


def load_program():
    """Import the program from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "affine_crystals", "__init__.py")):
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import layers
    import workloads
    return workloads, layers


# ------------------------------------------------------------ calibration

def _calibration_loop():
    d: dict[int, int] = {}
    for i in range(7000):
        d[i % 500] = d.get(i % 500, 0) + i * 3


class Speed:
    """Rescales CPU seconds to the reference machine speed.

    The speed of a shared machine drifts by tens of percent within seconds
    (other tenants of the host), and CPU time does not hide that.  A fixed
    interpreter-bound loop is timed, best of three, between cases once
    ``CAL_EVERY_S`` of case CPU time has passed since the last timing; CPU
    seconds are multiplied by ``CAL_REFERENCE_S`` over the mean of the last
    ``CAL_WINDOW`` timings, which smooths the loop's own noise.
    """

    def __init__(self):
        self._times: collections.deque = collections.deque(maxlen=CAL_WINDOW)
        self._since = math.inf

    def factor(self, force: bool = False) -> float:
        if force or self._since >= CAL_EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = clock()
                _calibration_loop()
                best = min(best, clock() - t0)
            self._times.append(best)
            self._since = 0.0
        return CAL_REFERENCE_S * len(self._times) / sum(self._times)

    def spent(self, cpu_s: float):
        self._since += cpu_s


# ------------------------------------------------------------------ cases

def run_case(wl, case, reference, seen, call=None, prof=None):
    """One case: (CPU seconds, verified, detail).

    A case fails if it raises, exits non-zero, reports ok false, or its output
    digest differs from the reference (or from its own earlier run).
    """
    call = call or wl.call
    t0 = clock()
    try:
        if prof is not None:
            prof.enable()
        try:
            raw = call(case.args)
        finally:
            if prof is not None:
                prof.disable()
    except SystemExit as err:
        return clock() - t0, False, f"exit {err.code}"
    except Exception as err:  # a failing case is counted, the run goes on
        return clock() - t0, False, f"{type(err).__name__}: {err}"
    dt = clock() - t0
    try:
        ok, digest, detail = wl.check(raw)
    except ValueError as err:  # output that is not the expected JSON
        return dt, False, f"unreadable output: {err}"
    want = reference.get(case.key, seen.get(case.key))
    seen.setdefault(case.key, digest)
    if ok and want is not None and want != digest:
        ok, detail = False, "output differs from the recorded reference"
    return dt, ok, detail


class Pass:
    """Outcomes of the cases of one pass; ``times`` are rescaled seconds."""

    def __init__(self):
        self.cases = []
        self.cpu = []
        self.times = []
        self.verified = []
        self.failures = []
        self.wall = 0.0

    def run(self, wl, case, reference, seen, speed, call=None, prof=None):
        dt, ok, detail = run_case(wl, case, reference, seen, call, prof)
        speed.spent(dt)
        factor = speed.factor()
        self.cases.append(case)
        self.cpu.append(dt)
        self.times.append(dt * factor)
        if ok:
            self.verified.append(dt * factor)
        else:
            self.failures.append(f"{case.key}: {detail}")


def timed_pass(wl, cases, seconds, min_cases, reference, seen, speed, call=None):
    """Cycle through the pool until ``seconds`` of rescaled case time and
    ``min_cases`` are done; a slow machine stops it at WALL_CAP x ``seconds``.

    Bounding the rescaled time rather than the wall time keeps the number
    of cases, and with it each order statistic's rank, the same from run to
    run while the machine's speed drifts.
    """
    out = Pass()
    start = time.perf_counter()
    deadline = start + WALL_CAP * seconds
    while len(out.cases) < min_cases or (sum(out.times) < seconds
                                          and time.perf_counter() < deadline):
        out.run(wl, cases[len(out.cases) % len(cases)], reference, seen, speed, call)
    out.wall = time.perf_counter() - start
    return out


def set_up(wl, seed, tiny, reference, speed):
    """Input pool and warm-up, repeated; returns (pool, median rescaled seconds)."""
    pool, times = None, []
    for _ in range(SETUP_REPS):
        factor = speed.factor(force=True)
        t0 = clock()
        cases = wl.cases(seed, wl.pool, tiny)
        _, ok, detail = run_case(wl, wl.warmup(), reference, {})
        times.append((clock() - t0) * factor)
        if not ok:
            raise SystemExit(f"error: warm-up case failed: {detail}")
        if pool is not None and cases != pool:
            raise SystemExit("error: input generation is not deterministic")
        pool = cases
    return pool, statistics.median(times)


# ---------------------------------------------------------------- metrics

def tail(times):
    """(value, percentile, samples beyond) of the highest percentile with
    at least 10 samples beyond it, or None."""
    s = sorted(times)
    k = len(s) - 11
    if k < 0:
        return None
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def end_to_end(run: Pass, setup_s: float) -> tuple[dict, dict]:
    """Metrics as name -> (value, unit), and a note per metric for the log."""
    total, cpu = sum(run.times), sum(run.cpu)
    n = len(run.verified)
    metrics = {
        "cases_per_s": (n / total if total else 0.0, "1/s"),
        "case_s.p50": (statistics.median(run.verified) if n else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (len(run.failures) / len(run.cases), "1"),
    }
    notes = {"cases_per_s": f"{n} verified cases; unscaled {n / cpu:.4g} per CPU s, "
                            f"{n / run.wall:.4g} per wall s"}
    t = tail(run.verified)
    if t is not None:
        metrics["case_s.tail"] = (t[0], "s")
        notes["case_s.tail"] = f"p{t[1]:.1f}, {t[2]} of {n} cases beyond"
    else:
        notes["case_s.tail"] = "omitted: fewer than 11 verified cases"
    return metrics, notes


def per_layer(layers, untraced: Pass, traced: Pass, tracer, counter, prof) -> dict:
    total = sum(tracer.self_s.values())
    n = len(traced.cases)
    scale = sum(traced.times) / sum(traced.cpu)
    metrics = {}
    for span in layers.SPANS:
        metrics[f"{span}_s"] = (tracer.self_s[span] * scale / n, "s")
        metrics[f"{span}_share"] = (tracer.self_s[span] / total if total else 0.0, "1")
    metrics["trace.coverage"] = (1 - tracer.self_s["case"] / total if total else 0.0, "1")
    metrics["trace.overhead"] = (sum(traced.times) / sum(untraced.times) - 1, "1")
    metrics["trace.cases"] = (n, "count")
    for name in layers.WORK_SIZES:
        metrics[name] = (counter.sizes[name], "count")
    counts = layers.profile_counts(prof)
    for name in layers.COUNTS:
        metrics[name] = (counts[name], "1" if name in layers.RATIOS else "count")
    for name in layers.SHARES:
        metrics[name] = (counts[name], "1")
    return metrics


# ----------------------------------------------------------------- run meta

def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "affine_crystals")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": _commit(),
        "src_sha256": _src_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------- workload

def workload_main(args) -> int:
    os.environ.pop("CRYSTAL_SEED", None)  # it would silently override --seed
    workloads, layers = load_program()
    import_cpu = clock()  # CPU since process start: interpreter start-up and imports
    speed = Speed()
    import_s = import_cpu * speed.factor()
    wl = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    reference = {}
    if os.path.isfile(args.reference):
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
    pool, gen_s = set_up(wl, args.seed, args.size == "tiny", reference, speed)
    if args.record:
        return record(wl, pool, reference, args.reference)

    seen: dict = {}
    if not args.trace:
        run = timed_pass(wl, pool, args.seconds, MIN_CASES, reference, seen, speed)
        passes = [run]
        metrics, notes = end_to_end(run, import_s + gen_s)
    else:
        untraced = timed_pass(wl, pool, args.seconds * TRACE_SHARE, 1, reference, seen, speed)
        tracer, counter = layers.Tracer(), layers.Tracer()
        hooks = layers.HOOKS[wl.hooks]
        traced = Pass()
        with layers.hooked(tracer, hooks):
            call = tracer.wrap("case", wl.call)
            for case in untraced.cases:
                traced.run(wl, case, reference, seen, speed, call)
        prof = cProfile.Profile()
        counted = Pass()
        with layers.hooked(counter, hooks):
            for case in pool[:wl.counted]:
                counted.run(wl, case, reference, seen, speed, prof=prof)
        passes = [untraced, traced, counted]
        metrics = per_layer(layers, untraced, traced, tracer, counter, prof)
        notes = {name: "distorted by the profiler's overhead" for name in layers.SHARES}

    meta["loadavg_end"] = list(os.getloadavg())
    print("meta " + json.dumps(meta, sort_keys=True))
    failures = [f for p in passes for f in p.failures]
    for f in failures[:5]:
        print(f"FAILED {f}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:14.6g} {unit}{extra}")
    result = {
        "correct": not failures,
        "attempted": sum(len(p.cases) for p in passes),
        "failed": len(failures),
        # fail_ratio is 0 on a correct run, so it rides on attempted/failed
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name != "fail_ratio"},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def record(wl, pool, reference, path) -> int:
    """Run every distinct case of the pool once and store its output digest."""
    for case in dict.fromkeys(pool):
        ok, digest, detail = wl.check(wl.call(case.args))
        if not ok:
            raise SystemExit(f"error: {case.key}: {detail}")
        reference[case.key] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(pool)} cases of {wl.name} into {path}")
    return 0


# ----------------------------------------------------------------- ladder

LADDER = (((2, 1, 0), 24), ((2, 1, 0), 40), ((2, 1, 1, 1), 40))


def ladder_main(args) -> int:
    """Per-stage CPU seconds of the ROADMAP ladder cells, one generated word each."""
    workloads, layers = load_program()
    wl = workloads.QuiverWorkload("ladder", "fp", None, pool=1, counted=0)
    rng = random.Random(f"ladder:{args.seed}")
    stages = ("walls.inversion", "quiver.commutant", "cli.extra_commutant",
              "quiver.kernel_table")
    print(f"{'cell':14s} {'total':>8s} " + " ".join(f"{s:>20s}" for s in stages))
    bad = 0
    for lam, length in LADDER:
        case = wl.case(lam, workloads.random_word(lam, length, rng), args.seed)
        tracer = layers.Tracer()
        with layers.hooked(tracer, layers.PIPELINE_HOOKS):
            dt, ok, detail = run_case(wl, case, {}, {}, tracer.wrap("case", wl.call))
        bad += not ok
        cell = f"{','.join(map(str, lam))}/{length}"
        print(f"{cell:14s} {dt:8.3f} " + " ".join(f"{tracer.self_s[s]:20.3f}" for s in stages)
              + ("" if ok else f"  FAILED {detail}"))
    return 1 if bad else 0


# -------------------------------------------------------------------- all

def all_main(args) -> int:
    """Every workload in its own fresh process; prints each one's metrics."""
    env = {k: v for k, v in os.environ.items() if k != "CRYSTAL_SEED"}
    bad = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            bad += 1
            continue
        bad += not json.loads(lines[-1])["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    which.add_argument("--ladder", action="store_true",
                       help="per-stage seconds of the ROADMAP ladder cells")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--reference", default=REFERENCE, help="recorded output digests")
    ap.add_argument("--record", action="store_true",
                    help="store the digests of the whole input pool in --reference")
    args = ap.parse_args(argv)
    if args.ladder:
        return ladder_main(args)
    return all_main(args) if args.all else workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
