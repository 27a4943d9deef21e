"""Mutation probe: do the tests catch single-point faults in the lines changed since a base?

    python tools/mutation_probe.py BASE [--equivalent FILE]

For every ``src/`` Python line added or changed since the git revision BASE it makes
single-point mutants: a flipped comparison (``==``/``!=``, ``<``/``>=``, ``>``/``<=``,
``is``/``is not``, ``in``/``not in``), an integer literal moved by +1 and by -1, an
``and``/``or`` swap and a dropped ``raise`` (replaced by ``pass``).  Each mutant is
written into a copy of the working tree under a temporary directory, never into the
tree itself, and ``python -m pytest -x -q tests`` runs on it with ``PYTHONHASHSEED``
fixed at 0.  A failing run, or one that takes more than 60 s longer than the unmutated
run, counts as caught; a passing run is a survivor.  The unmutated copy must pass
first.  (A hang inside one test is also cut by the tests' own per-test limit, and then
fails.)

``--equivalent FILE`` lists the ids of mutants known to behave as the original (one
per line, ``#`` starts a comment); they are counted apart, not run.
The last line is ``caught C survived S equivalent E``; every survivor's id is printed
above it.  The exit status is 1 when a mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
        ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
SEED = "0"  # PYTHONHASHSEED of every test run
TIMEOUT_S = 60.0  # a mutant run this much longer than the unmutated run is caught


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def changed_lines(root: Path, base: str) -> dict[str, set[int]]:
    """Per src/ Python file, the line numbers (in the working tree) added or changed
    since base."""
    out: dict[str, set[int]] = {}
    current = None
    for line in git("diff", "-U0", base, "--", "src", cwd=root).splitlines():
        if line.startswith("+++ "):
            name = line[4:]
            current = name[2:] if name.startswith("b/") and name.endswith(".py") else None
        elif line.startswith("@@") and current:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            first, n = int(start), 1 if count is None else int(count)
            out.setdefault(current, set()).update(range(first, first + n))
    return out


def _scopes(tree: ast.AST) -> dict[int, str]:
    """id(node) -> the dotted names of the defs and classes around it."""
    out: dict[int, str] = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            out[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return out


def _points(tree: ast.AST, lines: set[int]) -> list[tuple[ast.AST, str, object]]:
    """(node, kind, detail) for every mutation point on the given lines, in walk order.
    Nodes inside f-strings are left out: their positions are not their text's."""
    inside = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for sub in ast.walk(node)}
    points = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in lines or id(node) in inside:
            continue
        if isinstance(node, ast.Compare):
            points += [(node, "cmp", k) for k, op in enumerate(node.ops) if type(op) in FLIP]
        elif isinstance(node, ast.BoolOp):
            points.append((node, "boolop", None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            points += [(node, "int", +1), (node, "int", -1)]
        elif isinstance(node, ast.Raise):
            points.append((node, "raise", None))
    return points


def _describe(node: ast.AST, kind: str, detail) -> str:
    if kind == "cmp":
        op = node.ops[detail]
        return f"{type(op).__name__}->{FLIP[type(op)].__name__}"
    if kind == "boolop":
        return f"{type(node.op).__name__}->{'Or' if isinstance(node.op, ast.And) else 'And'}"
    if kind == "int":
        return f"{node.value}{detail:+d}"
    return "raise->pass"


def mutants(root: Path, base: str) -> list[tuple[str, int, str, int]]:
    """(file, point index, id, line) of every mutant, in file and walk order.  The id,
    file:scope:mutation with a #count when the scope has it more than once, does not
    move when lines are added above it."""
    out = []
    for name, lines in sorted(changed_lines(root, base).items()):
        tree = ast.parse((root / name).read_text())
        scopes, seen = _scopes(tree), {}
        for k, (node, kind, detail) in enumerate(_points(tree, lines)):
            mid = f"{name}:{scopes.get(id(node)) or '<module>'}:{_describe(node, kind, detail)}"
            seen[mid] = seen.get(mid, 0) + 1
            out.append((name, k, mid if seen[mid] == 1 else f"{mid}#{seen[mid]}", node.lineno))
    return out


def mutate(source: str, lines: set[int], k: int) -> str:
    """source with mutation point k applied.  Only the node's own text is replaced (by
    ``pass`` for a raise, else the mutated node unparsed, in parentheses), so the rest
    of the file keeps its bytes and runs on every interpreter the original does."""
    node, kind, detail = _points(ast.parse(source), lines)[k]
    if kind == "cmp":
        node.ops[detail] = FLIP[type(node.ops[detail])]()
    elif kind == "boolop":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif kind == "int":
        node.value += detail
    text = "pass" if kind == "raise" else f"({ast.unparse(node)})"
    raw = source.encode()  # col_offset counts UTF-8 bytes
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    a = starts[node.lineno - 1] + node.col_offset
    b = starts[node.end_lineno - 1] + node.end_col_offset
    return (raw[:a] + text.encode() + raw[b:]).decode()


def run_tests(copy: Path, timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONHASHSEED=SEED,
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", "tests"], cwd=copy, env=env,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision the changed lines are taken against")
    ap.add_argument("--equivalent", type=Path, default=None)
    args = ap.parse_args(argv)

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())
    todo = mutants(root, args.base)
    known = set()
    if args.equivalent:
        known = {line.split("#")[0].strip() for line in args.equivalent.read_text().splitlines()}
        known.discard("")

    lines = changed_lines(root, args.base)
    caught = survived = equivalent = 0
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp) / "tree"
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                    cwd=root).split("\0")
        for name in filter(None, files):
            if (root / name).is_file():
                (copy / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(root / name, copy / name)
        start = time.monotonic()
        if run_tests(copy, None) != "passed":
            print("the unmutated tests do not pass", file=sys.stderr)
            return 2
        base_s = time.monotonic() - start
        print(f"unmutated run: {base_s:.1f} s, {len(todo)} mutants", flush=True)
        for name, k, mid, line in todo:
            if mid in known:
                equivalent += 1
                continue
            (copy / name).write_text(mutate((root / name).read_text(), lines[name], k))
            try:
                verdict = run_tests(copy, base_s + TIMEOUT_S)
            finally:
                (copy / name).write_text((root / name).read_text())
            if verdict == "passed":
                survived += 1
                print("SURVIVED", mid, f"(line {line})", flush=True)
            else:
                caught += 1
                print(verdict, mid, f"(line {line})", flush=True)
    print(f"caught {caught} survived {survived} equivalent {equivalent}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
