"""Mutation sweep: which small edits of the package does no test notice?

Usage::

    python tools/mutants.py [MODULE ...]

Each mutant is one small edit of one module of ``src/smba`` (default: every
module; ``MODULE`` is a name such as ``cones``).  The catalogue:

* a ``raise`` statement replaced by ``pass``;
* a comparison flipped, ``<`` and ``<=``, ``>`` and ``>=``;
* a ``not`` dropped;
* an ``if`` test or a ternary test forced to ``True``, or to ``False``;
* one operand of an ``and`` or ``or`` dropped;
* a statement in a function body deleted (replaced by ``pass``);
* a ``float(v)``, ``int(v)`` or ``asarray(v, ...)`` call replaced by ``v``;
* a named tolerance (``TOLERANCES``) scaled by 10, and by 0.1.

A mutant is killed when a test fails on it.  Each one runs first the test
file of its own module (``tests/test_<module>.py``, where there is one),
then the whole suite, both with ``pytest -x`` and one BLAS thread; a run
that outlasts ``TIMEOUT_FACTOR`` times the unmutated suite's time, plus
10 s, counts as killed.  The sweep never edits the checkout: it copies it
once per worker into a temporary directory (``tempfile``, so ``TMPDIR``
places it) and mutates the copies, with ``os.cpu_count()`` workers.  It
first runs the unmutated suite in one copy and stops with status 2 if that
fails.  Progress goes to stderr; stdout gets one ``survived
<module>.py:<line>:<col> <edit>`` line per new surviving mutant, in file
order, then the totals with the count of known survivors.  A new survivor
is a test that is missing, or code that no caller needs.

Known survivors are equivalent mutants whose reasons have been recorded:
``known_survivors.json`` beside this script lists each by its module, the
text of the line it edits (stripped) and its edit, not by line number,
which edits elsewhere shift.  A key listed ``k`` times covers ``k``
survivors, so a second surviving edit of the same kind on a known line is
still reported as new.  A listed key of a swept module that names no
mutant (its line has changed) gets a ``stale <module>.py <edit>: <line>``
line before the totals, to be mended or dropped from the list.
"""

from __future__ import annotations

import argparse
import ast
import collections
import concurrent.futures
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "smba"
KNOWN = ROOT / "tools" / "known_survivors.json"
TOLERANCES = ("SECANT_GUARD", "FEASIBILITY_SLACK", "PHI_TOL", "SYMMETRY_TOL", "MU_FLOOR",
              "DIVERGENCE_NORM")
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
DROPPED_CALLS = ("float", "int", "asarray")
DELETED = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return, ast.Delete,
           ast.Assert)
TIMEOUT_FACTOR = 5
COPY_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                      "*.egg-info")


class Mutant(NamedTuple):
    """One edit of ``module``: ``text`` replaces the source from ``start`` to
    ``end``, byte offsets into its UTF-8 encoding; ``code`` is the stripped
    text of the line ``line`` that the edit starts on."""

    module: str
    line: int
    col: int
    what: str
    start: int
    end: int
    text: str
    code: str

    def label(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col} {self.what}"

    def key(self) -> tuple:
        """What a known survivor is listed by: ``(module, code, edit)``."""
        return self.module, self.code, self.what

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode() + source[self.end:]


def _parents(tree: ast.AST) -> dict:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _inside(node, parents, kinds) -> bool:
    """Whether an ancestor of ``node`` is an instance of ``kinds``."""
    while node in parents:
        node = parents[node]
        if isinstance(node, kinds):
            return True
    return False


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _edits(tree: ast.AST, parents: dict):
    """``(node, what, text)`` for each edit of the catalogue: ``text``
    replaces ``node``'s source."""
    for node in ast.walk(tree):
        if _inside(node, parents, ast.JoinedStr):  # f-string positions are unreliable
            continue
        if isinstance(node, ast.Raise):
            yield node, "raise -> pass", "pass"
        elif (isinstance(node, DELETED) and not _is_docstring(node)
              and _inside(node, parents, (ast.FunctionDef, ast.AsyncFunctionDef))):
            yield node, f"delete {type(node).__name__.lower()}", "pass"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    ops = list(node.ops)
                    ops[i] = FLIPS[type(op)]()
                    flipped = ast.Compare(node.left, ops, node.comparators)
                    yield (node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(ops[i])]}",
                           f"({ast.unparse(flipped)})")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, "drop not", f"({ast.unparse(node.operand)})"
        elif isinstance(node, ast.BoolOp):
            name = type(node.op).__name__.lower()
            for i in range(len(node.values)):
                rest = node.values[:i] + node.values[i + 1:]
                kept = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
                yield node, f"drop {name} operand {i + 1}", f"({ast.unparse(kept)})"
        elif isinstance(node, ast.Call) and node.args and not isinstance(
                node.args[0], ast.Starred):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in DROPPED_CALLS:
                yield node, f"drop {name}()", f"({ast.unparse(node.args[0])})"
        if isinstance(node, (ast.If, ast.IfExp)):
            kind = "if" if isinstance(node, ast.If) else "ternary"
            for value in (True, False):
                yield node.test, f"{kind} test -> {value}", str(value)
        if (isinstance(node, ast.Assign) and parents.get(node) is tree
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TOLERANCES):
            for factor in ("10", "0.1"):
                yield (node.value, f"{node.targets[0].id} * {factor}",
                       f"({ast.unparse(node.value)} * {factor})")


def mutants(module: str, source: bytes) -> List[Mutant]:
    """Every mutant of the module ``module`` whose source is ``source``, in
    file order; an edit whose result does not parse is left out."""
    tree = ast.parse(source)
    parents, unedited = _parents(tree), ast.dump(tree)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    found = []
    for node, what, text in _edits(tree, parents):
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        mutant = Mutant(module, node.lineno, node.col_offset, what, start, end, text,
                        lines[node.lineno - 1].decode().strip())
        edited = mutant.apply(source)
        try:
            if ast.dump(ast.parse(edited)) == unedited:
                continue
        except SyntaxError:
            continue
        found.append(mutant)
    return sorted(found, key=lambda m: (m.start, m.end, m.what))


def _pytest(copy: Path, args, timeout: float) -> bool:
    """Whether ``pytest -x args`` passes in ``copy`` within ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _survives(copy: Path, package: str, mutant: Mutant, source: bytes, timeout: float) -> bool:
    """Whether ``mutant`` of a module of ``package`` passes the tests in
    ``copy``; the copy's module is restored afterwards."""
    path = copy / "src" / package / f"{mutant.module}.py"
    own = copy / "tests" / f"test_{mutant.module}.py"
    path.write_bytes(mutant.apply(source))
    try:
        if own.exists() and not _pytest(copy, [str(own)], timeout):
            return False
        return _pytest(copy, [], timeout)
    finally:
        path.write_bytes(source)


def load_known(path: Path) -> List[tuple]:
    """The keys (``Mutant.key``) of the known survivors listed in ``path``."""
    return [(e["module"], e["line"], e["edit"]) for e in json.loads(path.read_text())]


def sweep(root: Path, modules=None, package=PACKAGE, known=()) -> List[Mutant]:
    """The new survivors among the mutants of ``modules`` (default: every
    module) of ``root/src/<package>``, whose tests ``pytest`` finds from
    ``root``: those that the keys ``known`` do not cover.  Prints them and
    the totals.  Raises RuntimeError for a module that does not exist and
    when the unmutated suite fails."""
    folder = root / "src" / package
    names = modules or sorted(p.stem for p in folder.glob("*.py"))
    missing = [name for name in names if not (folder / f"{name}.py").is_file()]
    if missing:
        raise RuntimeError(f"no module {', '.join(missing)} in {folder}")
    sources = {name: (folder / f"{name}.py").read_bytes() for name in names}
    todo = [m for name in names for m in mutants(name, sources[name])]
    workers = max(1, min(os.cpu_count() or 1, len(todo)))
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = queue.Queue()
        for w in range(workers):
            copy = Path(scratch) / f"w{w}"
            shutil.copytree(root, copy, ignore=COPY_IGNORED)
            copies.put(copy)
        t0 = time.perf_counter()
        if not _pytest(Path(scratch) / "w0", [], timeout=None):
            raise RuntimeError("the unmutated test suite fails")
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - t0) + 10.0

        def verdict(mutant):
            copy = copies.get()
            try:
                return _survives(copy, package, mutant, sources[mutant.module], timeout)
            finally:
                copies.put(copy)

        survivors = []
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            for n, (mutant, alive) in enumerate(zip(todo, pool.map(verdict, todo)), 1):
                print(f"[{n}/{len(todo)}] {'SURVIVED' if alive else 'killed'} {mutant.label()}",
                      file=sys.stderr, flush=True)
                if alive:
                    survivors.append(mutant)
    unused = collections.Counter(known)
    new = []
    for mutant in survivors:
        if unused[mutant.key()] > 0:
            unused[mutant.key()] -= 1
        else:
            new.append(mutant)
            print(f"survived {mutant.label()}")
    keys = {m.key() for m in todo}
    for module, code, what in dict.fromkeys(known):
        if module in names and (module, code, what) not in keys:
            print(f"stale {module}.py {what}: {code}")
    print(f"total {len(todo)} mutants, {len(todo) - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - len(new)} known, {len(new)} new)")
    return new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="module names (default: every module)")
    args = parser.parse_args(argv)
    try:
        sweep(ROOT, args.modules, known=load_known(KNOWN))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
