"""List the ``src/repro`` functions that no real traffic reaches.

Runs, in this process and under :func:`sys.setprofile`:

* every perfbench workload for one (verify) round at ``--scale``
  (default 0.3);
* the five ``examples/`` scripts, output discarded;
* every registered bench table, computed with
  :func:`repro.bench.report.run_table` -- never written to ``results/``.

Then prints each ``def`` under ``src/repro`` that was never called,
grouped by module with its line count.  An unreached function is a
question, not a verdict: it may be reached only by tests, by an error
path, or not at all.

When every part runs (the default, and what CI runs) the audit is a
gate: it exits 1 unless every unreached function is covered by an
entry of ``scripts/traffic_allow.txt`` and every pattern of an entry
matches a ``def`` under ``src/repro``.  An entry is one reason: a line
naming tier-1 tests of its code (comma separated, no spaces; checked
only to exist, not to reach the patterns) and why no traffic should,
then one indented ``module:qualname`` pattern per line::

    tests/<file>.py::<test>[,...]   why no traffic reaches this code
        repro.pkg.module:function
        repro.pkg.module:Class.*

``module:Class.*`` covers every method of ``Class``, and a plain
qualname also covers the functions nested in it.  A pattern whose
functions traffic does reach is reported, not failed (a timeout path
may fire on a slow host).  Usage::

    python scripts/traffic_audit.py                  # the gate
    python scripts/traffic_audit.py --parts examples # one part, list only

Takes about a minute (the bench tables dominate).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

PARTS = ("perfbench", "examples", "tables")
ALLOW = ROOT / "scripts" / "traffic_allow.txt"

Key = Tuple[str, int]                  # (real path, first line)


def defined_functions() -> Dict[Key, Tuple[str, str, int]]:
    """``{(path, first line): (module, qualname, lines)}`` for every
    ``def`` under ``src/repro``.  The first line is the first
    decorator's, which is what ``co_firstlineno`` reports."""
    out: Dict[Key, Tuple[str, str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("")
                          .parts)
        real = os.path.realpath(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    out[(real, first)] = (module, name,
                                          child.end_lineno - first + 1)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


class Pattern(NamedTuple):
    """``module:qualname``, or ``module:Class.*`` for a whole class."""

    module: str
    qualname: str

    def covers(self, module: str, qualname: str) -> bool:
        if module != self.module:
            return False
        if self.qualname.endswith(".*"):
            return qualname.startswith(self.qualname[:-1])
        return (qualname == self.qualname
                or qualname.startswith(self.qualname + ".<locals>."))

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


class Entry(NamedTuple):
    """One allow-list reason: the tests, why, and what it covers."""

    tests: List[str]           # ``tests/<file>.py::<test function>``
    why: str
    patterns: List[Pattern]


def load_allow(path: Path = ALLOW) -> List[Entry]:
    """Parse the allow-list (``#`` starts a comment line)."""
    entries: List[Entry] = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line[0].isspace():
            module, _, qualname = line.strip().partition(":")
            if not entries or not qualname or " " in line.strip():
                raise ValueError(f"{path.name}:{n}: expected an indented "
                                 f"'module:qualname' under an entry")
            entries[-1].patterns.append(Pattern(module, qualname))
            continue
        tests, _, why = line.partition(" ")
        tests = tests.split(",")
        if not all("::" in t for t in tests) or not why.strip():
            raise ValueError(f"{path.name}:{n}: expected "
                             f"'tests/<file>.py::<test>[,...] why'")
        entries.append(Entry(tests, why.strip(), []))
    return entries


def judge(defined: Iterable[Tuple[str, str]],
          unreached: Iterable[Tuple[str, str]], entries: List[Entry]
          ) -> Tuple[List[Tuple[str, str]], List[Pattern], List[Pattern]]:
    """``(uncovered, stale, idle)``: the unreached ``(module,
    qualname)`` pairs no pattern covers, the patterns that match no
    defined function, and the patterns that match only reached ones."""
    defined, unreached = list(defined), set(unreached)
    patterns = [p for e in entries for p in e.patterns]
    uncovered = sorted(f for f in unreached
                       if not any(p.covers(*f) for p in patterns))
    stale = [p for p in patterns if not any(p.covers(*f) for f in defined)]
    idle = [p for p in patterns if p not in stale
            and not any(p.covers(*f) for f in unreached)]
    return uncovered, stale, idle


def run_perfbench(scale: float) -> None:
    from perfbench.harness import Harness
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"audit-{name}-")
        try:
            harness = Harness(name, 7, scale, workdir)
            harness.setup(1)
            harness.verify()
            harness.finish()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"  perfbench {name}: {harness.failed} failed",
              file=sys.stderr)


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
        print(f"  example {path.name}: ok", file=sys.stderr)


def run_tables() -> None:
    from repro.bench.experiments import TABLES
    from repro.bench.report import database_cache, run_table

    db_of = database_cache()
    for name in TABLES:
        run_table(name, db_of)
        print(f"  table {name}: ok", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", type=float, default=0.3,
                    help="perfbench row/statement scale (default 0.3)")
    ap.add_argument("--parts", nargs="+", choices=PARTS, default=PARTS,
                    help=f"which traffic to run (default: all, and "
                         f"only then is {ALLOW.name} checked)")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    defined = defined_functions()
    called: Set[Key] = set()           # as the interpreter names them

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename,
                        frame.f_code.co_firstlineno))

    runners = {"perfbench": lambda: run_perfbench(args.scale),
               "examples": run_examples, "tables": run_tables}
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for part in args.parts:
            runners[part]()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(os.path.realpath(path), line) for path, line in called}
    unreached: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for key, (module, name, lines) in defined.items():
        if key not in reached:
            unreached[module].append((name, lines))
    total = sum(n for fns in unreached.values() for _, n in fns)
    count = sum(len(fns) for fns in unreached.values())
    print(f"{count} of {len(defined)} functions under src/repro unreached "
          f"({total} lines) by: {', '.join(args.parts)}")
    for module in sorted(unreached):
        fns = unreached[module]
        print(f"\n{module}  ({len(fns)} functions, "
              f"{sum(n for _, n in fns)} lines)")
        for name, lines in fns:
            print(f"  {name:60s} {lines:5d}")
    if set(args.parts) != set(PARTS):
        return 0

    entries = load_allow()
    uncovered, stale, idle = judge(
        [(module, name) for module, name, _ in defined.values()],
        [(module, name) for module, fns in unreached.items()
         for name, _ in fns], entries)
    print(f"\n{ALLOW.name}: {len(entries)} entries, "
          f"{sum(len(e.patterns) for e in entries)} patterns")
    for pattern in idle:
        print(f"  reached by traffic (pattern may go): {pattern}")
    for pattern in stale:
        print(f"FAIL stale pattern, no such def: {pattern}")
    for module, name in uncovered:
        print(f"FAIL unreached and not allow-listed: {module}:{name}")
    return 1 if stale or uncovered else 0


if __name__ == "__main__":
    raise SystemExit(main())
