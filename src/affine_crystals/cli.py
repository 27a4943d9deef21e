"""Command-line front end.

Subcommands: ``path`` (run a lowering word in one path model), ``quiver``
(full geometric dump for a word), ``graph`` (DOT export of a crystal ball)
and ``verify`` (named check suites).  All output is deterministic given the
inputs and the seed; CRYSTAL_SEED overrides --seed.  JSON output is the bytes of
``json.dumps(data, sort_keys=True, indent=2)``, written by one writer (``_json``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from .cartan import weight
from .crystal_core import generate_graph
from .iso import report_to_json, run_pipeline
from .linalg import PRIME
from .paths import DeadWordError, from_word, ground_path, parse_word, path_to_json, word_alpha
from .perfect import B1Elem, BnElem, ground_adj
from .quiver import GenericityError
from .suites import SUITES, run_suite

KIND_BY_FLAG = {"b1": "B1", "bn": "Bn", "ad": "Ad"}


def _write(text: str, path: str | None):
    """Print text, or write it to the --out file; a failed write is one usage error."""
    if not path:
        print(text, flush=True)  # a closed pipe fails here, inside main, not at exit
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as err:
        _usage_error(f"--out: cannot write {path!r}: {err.strerror or err}")


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) at indent pad, without json's cyclic closures.
    A subtree other than str-keyed dicts, lists, tuples, str, int, bool and None is json's
    own text re-indented (exact: JSON text has no raw newline)."""
    t, inner = type(obj), pad + "  "
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if t is dict and all(type(k) is str for k in obj):
        items = [f"{encode_basestring_ascii(k)}: {_json(obj[k], inner)}" for k in sorted(obj)]
    elif t is list or t is tuple:
        items = (map(int.__repr__, obj) if all(type(v) is int for v in obj)
                 else [_json(v, inner) for v in obj])
    else:
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)
    ends = "{}" if t is dict else "[]"
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if obj else ends


def _dump(data, path: str | None):
    _write(_json(data), path)


def integer(text: str) -> int:
    """int() of ASCII digits only; int() alone also takes other scripts' digits and '_'."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _seed(args) -> int:
    env = os.environ.get("CRYSTAL_SEED")
    if env is None:
        return args.seed
    try:
        return integer(env)
    except ValueError:
        _usage_error(f"CRYSTAL_SEED must be an integer, got {env!r}")


def _usage_error(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        _usage_error(f"{flag} must be at least {low}, got {value}")
    return value


def _fits(flag: str, value: int) -> int:
    """value, if at most sys.maxsize: a rank or level sizes lists, which a larger int
    cannot (it ends in OverflowError)."""
    if value > sys.maxsize:
        _usage_error(f"{flag} must be at most {sys.maxsize}, got {value}")
    return value


def _n(args) -> int:
    return _fits("--n", _at_least("--n", args.n, 1))


def _lam(args):
    """The --lambda weight, checked against --n: dominant of level >= 1, n >= 1."""
    try:
        w = weight(integer(c) for c in args.lam.split(","))
    except ValueError:
        _usage_error(f"--lambda must be comma-separated integers, got {args.lam!r}")
    if w.n != _n(args):
        _usage_error(f"--lambda has {w.n + 1} coefficients but --n is {args.n}")
    if not w.is_dominant() or w.level < 1:
        _usage_error(f"--lambda must be dominant of level >= 1, got {args.lam}")
    _fits("the level of --lambda", w.level)
    return w


def _word(args, lam):
    """The --word, checked for its token syntax and for indices in 0..n."""
    try:
        word = parse_word(args.word)
        word_alpha(lam.n, word)
    except ValueError as err:
        _usage_error(f"--word: {err}")
    return word


def _failed(err: Exception) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 1


def cmd_path(args) -> int:
    lam = _lam(args)
    kind = KIND_BY_FLAG[args.kind]
    word = _word(args, lam)
    try:
        p = from_word(lam, kind, word)
    except DeadWordError as err:
        return _failed(err)
    data = path_to_json(p)
    data["rendered"] = [p.factor(k).render() for k in range(len(p.devs) + 1)]
    _dump(data, args.out)
    return 0


def cmd_quiver(args) -> int:
    lam = _lam(args)
    word, seed = _word(args, lam), _seed(args)
    p = None if args.field == "qq" else PRIME
    try:
        report = run_pipeline(lam, word, seed=seed, p=p)
    except (DeadWordError, GenericityError) as err:
        return _failed(err)
    data = report_to_json(report)
    data["sampled_xbar_blocks"] = [[list(r) for r in blk] for blk in report.xbar.blocks]
    data["seed"] = seed
    data["field"] = args.field
    _dump(data, args.out)
    return 0 if report.ok else 1


def _graph_seed_elem(args):
    if args.crystal == "path":
        if args.lam is None:
            _usage_error("--crystal path needs --lambda")
        return ground_path(_lam(args), KIND_BY_FLAG[args.kind or "b1"])
    for flag, value in (("--lambda", args.lam), ("--kind", args.kind)):
        if value is not None:
            _usage_error(f"{flag} is only for --crystal path, not --crystal {args.crystal}")
    n, lvl = _n(args), _fits("--level", _at_least("--level", args.level, 1))
    if args.crystal == "b1":
        return B1Elem((lvl,) + (0,) * n)
    if args.crystal == "bn":
        return BnElem((lvl,) + (0,) * n)
    return ground_adj(weight((lvl,) + (0,) * n))


def cmd_graph(args) -> int:
    max_nodes = _at_least("--max-nodes", args.max_nodes, 1)
    depth = None if args.depth is None else _at_least("--depth", args.depth, 0)
    g = generate_graph(_graph_seed_elem(args), max_nodes=max_nodes, max_depth=depth)
    lines = ["digraph crystal {"]
    for t, node in enumerate(g.nodes):
        lines.append(f'  n{t} [label="{node.render()}"];')
    lines.extend(f'  n{src} -> n{dst} [label="{i}"];' for src, op, i, dst in g.edges if op == "f")
    if not g.complete:
        lines.append('  meta [label="truncated", shape=box];')
    lines.append("}")
    _write("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=_seed(args))
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed", flush=True)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other usage error
        _usage_error(message)


@functools.cache  # one parser per process: in-process callers run main once per case
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="affine-crystals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("path", help="apply a lowering word in one path model")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated coefficients a0,..,an")
    p.add_argument("--kind", choices=sorted(KIND_BY_FLAG), default="b1")
    p.add_argument("--word", default="")
    p.add_argument("--out")
    p.set_defaults(func=cmd_path)

    q = sub.add_parser("quiver", help="geometric pipeline dump for a word")
    q.add_argument("--n", type=integer, required=True)
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--word", default="")
    q.add_argument("--seed", type=integer, default=0)
    q.add_argument("--field", choices=("fp", "qq"), default="fp")
    q.add_argument("--out")
    q.set_defaults(func=cmd_quiver)

    g = sub.add_parser("graph", help="DOT export of a crystal ball")
    g.add_argument("--crystal", choices=("b1", "bn", "ad", "path"), default="b1")
    g.add_argument("--n", type=integer, required=True)
    g.add_argument("--level", type=integer, default=1)
    g.add_argument("--lambda", dest="lam", help="only for --crystal path")
    g.add_argument("--kind", choices=sorted(KIND_BY_FLAG), help="only for --crystal path")
    g.add_argument("--depth", type=integer, default=None)
    g.add_argument("--max-nodes", type=integer, default=2000)
    g.add_argument("--out")
    g.set_defaults(func=cmd_graph)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("suite", choices=(*SUITES, "all"))
    v.add_argument("--seed", type=integer, default=0)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
