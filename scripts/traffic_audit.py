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
path, or not at all.  Usage::

    python scripts/traffic_audit.py                  # everything
    python scripts/traffic_audit.py --parts examples # one part

Takes a few minutes (the bench tables dominate).
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
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

PARTS = ("perfbench", "examples", "tables")

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
    from repro.bench.experiments import DATABASES, TABLES
    from repro.bench.report import run_table

    databases: Dict[str, object] = {}

    def db_of(kind: str):
        if kind not in databases:
            databases[kind] = DATABASES[kind]()
        return databases[kind]

    for name in TABLES:
        run_table(name, db_of)
        print(f"  table {name}: ok", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", type=float, default=0.3,
                    help="perfbench row/statement scale (default 0.3)")
    ap.add_argument("--parts", nargs="+", choices=PARTS, default=PARTS,
                    help="which traffic to run (default: all)")
    args = ap.parse_args()

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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
