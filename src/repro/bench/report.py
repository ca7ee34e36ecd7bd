"""The golden tables under ``results/`` and their one writer.

Every table of the evaluation reports *simulated* seconds, a
deterministic function of ``src/``, so the committed files are golden:
the ``benchmarks/`` tests recompute each table and compare it byte for
byte (:func:`check_golden`); this module is the only thing that writes
them::

    python -m repro.bench.report                      # all tables
    python -m repro.bench.report fig10_pre_vs_post    # a subset

A change that *intends* to move a simulated number regenerates the
affected tables with this command and commits the diff.
"""

from __future__ import annotations

import difflib
import json
import pathlib
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import DATABASES, TABLES, format_table

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "results"


def run_table(name: str, db_of: Callable[[str], object]
              ) -> Tuple[List[Dict], Dict[str, str]]:
    """Compute one registered table: its rows, and the text of every
    file it owns (``<name>.txt``, plus ``<name>.json`` if it has one).
    ``db_of`` hands out the shared databases by ``DATABASES`` kind."""
    spec = TABLES[name]
    rows = spec.runner(*(db_of(kind) for kind in spec.needs))
    files = {f"{name}.txt": format_table(rows, spec.title) + "\n"}
    if spec.json_of is not None:
        files[f"{name}.json"] = json.dumps(spec.json_of(rows),
                                           indent=2) + "\n"
    return rows, files


def check_golden(name: str, files: Dict[str, str],
                 results_dir: pathlib.Path = RESULTS_DIR) -> None:
    """Fail unless every file of table ``name`` matches its committed
    bytes; a missing golden file fails too, it is never created here."""
    for filename, text in files.items():
        path = results_dir / filename
        golden = path.read_text() if path.exists() else None
        if golden == text:
            continue
        state = "is missing" if golden is None else "drifted"
        diff = "".join(difflib.unified_diff(
            (golden or "").splitlines(keepends=True),
            text.splitlines(keepends=True),
            f"{path} (committed)", f"{filename} (computed)"))
        raise AssertionError(
            f"golden table {filename} {state}:\n{diff}\n"
            f"If the change is meant to move this number, regenerate "
            f"with\n    python -m repro.bench.report {name}\n"
            f"and commit the diff; otherwise it is a reproduction bug.")


def regenerate(names: Optional[Sequence[str]] = None,
               results_dir: pathlib.Path = RESULTS_DIR) -> None:
    """(Re)write the named tables -- all of them by default."""
    databases: Dict[str, object] = {}

    def db_of(kind: str):
        if kind not in databases:
            print(f"[building the {kind} database ...]")
            databases[kind] = DATABASES[kind]()
        return databases[kind]

    results_dir.mkdir(exist_ok=True)
    for name in names or TABLES:
        _, files = run_table(name, db_of)
        for filename, text in files.items():
            (results_dir / filename).write_text(text)
        print("\n" + files[f"{name}.txt"], end="")


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.bench.report [table ...]``."""
    names = sys.argv[1:] if argv is None else argv
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        print(f"unknown tables: {unknown}; available: {list(TABLES)}")
        return 2
    regenerate(names)
    print(f"\ntables written under {RESULTS_DIR}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
