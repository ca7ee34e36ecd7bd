#!/usr/bin/env python
"""Docs CI gate: links resolve, named API exists, state, the operator
table, the simulated clock, the Vis request and the outbound channel
have one owner each, the library reads no environment and runs on one
thread, examples run.

Ten checks, all simple on purpose:

* every relative link target in a tracked ``*.md`` file (README.md,
  docs/, CHANGES.md, ...) must exist on disk -- links to headings
  (``path#anchor``) are checked for the file part;
* every ``GhostDB.name``, ``ShardedGhostDB.name``, ``Session.name``,
  ``PreparedStatement.name``, ``PlanCache.name``, ``GhostServer.name``,
  ``AdmissionController.name``, ``SecureRam.name``, ``db.name(`` and
  ``fleet.name(`` written in an inline code span of README.md /
  docs/ARCHITECTURE.md must be an attribute of that class (or one its
  methods assign on ``self``), so the docs cannot describe a removed
  method;
* no module under ``src/repro`` may read or assign a ``_private``
  attribute that another module defines, on anything but ``self`` /
  ``cls``.  The ownership unit is the module: a class may touch the
  privates of classes defined in its own file (a store walking its
  files' page lists, an allocation reporting to its allocator), never
  another file's -- what a structure offers its
  callers is written down in its own class as public names;
* inside ``src/repro`` only the predicate module, the SQL lexer and
  parser, and the test oracle may compare anything with the operator
  names ``"between"`` or ``"<="``: every spelled-out operator table has
  those two branches, so a second copy of what ``col op constant``
  means cannot grow back beside ``repro/predicate.py`` unnoticed;
* the simulated clock has one owner, ``flash/stats.py``: no other
  module under ``src/repro`` -- the planner's estimator and the fleet's
  gather pricing included -- may do arithmetic on a unit price (the
  Table-1 ``READ_PRICE`` / ``WRITE_PRICE`` / ``ERASE_PRICE`` tuples of
  ``flash/constants.py``, or a channel's ``throughput_mbps``) or name
  a ``read_time_us`` / ``write_time_us``,
  and no call of a method named ``charge`` may pass a float literal:
  charge sites and estimates hand the ledger counts, so a second
  pricing path cannot grow back unnoticed;
* nothing under ``src/repro`` may read the process environment
  (``os.environ`` / ``os.getenv``, however imported): the library is a
  function of its arguments, and a behaviour switch has to be an
  argument someone can see in a call;
* inside ``src/repro`` only ``core/operators.py`` may construct a
  ``VisRequest``: what Secure asks Untrusted is ``vis_request``'s
  function of the statement, and a second request shape -- one that
  could depend on a plan or on hidden data -- cannot grow back beside
  it unnoticed; and only ``untrusted/server.py`` may call
  ``to_untrusted``: every message Secure sends (announcement, Vis
  request, visible row push) is one ``VisServer`` method;
* no module under ``src/repro`` may import ``threading`` or
  ``concurrent.futures``, or call ``run_in_executor`` or
  ``asyncio.to_thread``: the token serves one statement at a time, and
  the service runs each statement's token work inline on its event
  loop, so a second execution context for token work cannot come back
  unnoticed;
* inside ``src/repro`` only ``sql/``, ``core/ghostdb.py`` and
  ``schema/`` may import or call ``parse`` / ``tokenize``, and only
  ``core/session.py`` may call ``normalize_sql``: a statement text is
  lexed once for its cache key and parsed only on a miss (or, not
  being a SELECT, once by the front end), so a second place that turns
  text into tokens or a statement -- a server classifying a frame --
  cannot grow back unnoticed;
* with ``--run-examples``, every script under ``examples/`` is executed
  with ``PYTHONPATH=src`` and must exit 0.

Usage::

    PYTHONPATH=src python scripts/check_docs.py [--run-examples]

Exits non-zero listing every broken link / stale name / failing example.
"""

from __future__ import annotations

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent

#: markdown inline links: [text](target); images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: targets that are not repo files
_EXTERNAL = ("http://", "https://", "mailto:", "#")

#: the docs whose inline code spans may name the public API
_API_DOCS = ("README.md", "docs/ARCHITECTURE.md")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_SPAN = re.compile(r"`([^`\n]+)`")
_API_NAME = re.compile(r"(?<![\w.])(?:(GhostDB|ShardedGhostDB|Session|"
                       r"PreparedStatement|PlanCache|GhostServer|"
                       r"AdmissionController|SecureRam)"
                       r"\.([A-Za-z_]\w*)|(db|fleet)\.([A-Za-z_]\w*)\()")


#: spellings of a process-environment read
_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


#: the modules that may spell out the seven-operator table
_OPERATOR_OWNERS = ("src/repro/predicate.py", "src/repro/sql/lexer.py",
                    "src/repro/sql/parser.py", "src/repro/core/reference.py")


#: the one module that turns counts into simulated time (the ledger's
#: derivation, which prices measurements and estimates alike), and the
#: prices and time helpers nobody else may compute with
_CLOCK_OWNERS = ("src/repro/flash/stats.py",)
_TIME_METHODS = ("read_time_us", "write_time_us")
_PRICES = ("READ_PRICE", "WRITE_PRICE", "ERASE_PRICE", "throughput_mbps")


#: the one module that may call each boundary-crossing name: the
#: statement's Vis request set, and the outbound channel itself
_BOUNDARY_OWNERS = {"VisRequest": "src/repro/core/operators.py",
                    "to_untrusted": "src/repro/untrusted/server.py"}


#: who may lex or parse SQL text: the SQL package, the statement front
#: end (it parses what is not a SELECT), the DDL helpers -- and the
#: plan cache's key, the one caller of ``normalize_sql``
_PARSE_OWNERS = ("src/repro/sql/", "src/repro/core/ghostdb.py",
                 "src/repro/schema/")
_SQL_TEXT_OWNERS = {"parse": _PARSE_OWNERS, "tokenize": _PARSE_OWNERS,
                    "normalize_sql": ("src/repro/core/session.py",)}


#: what would run code on a second thread: modules, and calls by name
_THREAD_MODULES = ("threading", "concurrent.futures")
_THREAD_CALLS = ("run_in_executor", "to_thread")


def iter_markdown_files() -> list:
    """All tracked markdown files (skip caches and virtualenvs)."""
    out = []
    for path in sorted(REPO.rglob("*.md")):
        parts = path.relative_to(REPO).parts
        if any(p.startswith(".") or p in ("__pycache__", "node_modules")
               for p in parts[:-1]):
            continue
        out.append(path)
    return out


def broken_links() -> list:
    """Every (file, target) whose relative link resolves nowhere."""
    broken = []
    for md in iter_markdown_files():
        text = md.read_text()
        # fenced code blocks routinely contain (parenthesised) pseudo
        # links; strip them before matching
        text = _FENCE.sub("", text)
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            if not (md.parent / file_part).exists():
                broken.append((md.relative_to(REPO), target))
    return broken


def _attributes(cls) -> set:
    """What an instance of ``cls`` has: its class attributes plus every
    ``self.name`` its methods assign (instance state set in
    ``__init__``, say)."""
    names = set(dir(cls))
    for klass in cls.__mro__[:-1]:
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and _own(node)
                     and isinstance(node.ctx, ast.Store))
    return names


def stale_api_names() -> list:
    """Every (file, line, span) naming an attribute its class lacks."""
    from repro.core.ghostdb import GhostDB
    from repro.core.session import PlanCache, PreparedStatement, Session
    from repro.hardware.ram import SecureRam
    from repro.service.admission import AdmissionController
    from repro.service.server import GhostServer
    from repro.shard.fleet import ShardedGhostDB
    classes = {"GhostDB": GhostDB, "Session": Session, "db": GhostDB,
               "PreparedStatement": PreparedStatement,
               "PlanCache": PlanCache,
               "ShardedGhostDB": ShardedGhostDB, "fleet": ShardedGhostDB,
               "GhostServer": GhostServer,
               "AdmissionController": AdmissionController,
               "SecureRam": SecureRam}
    attributes = {name: _attributes(cls) for name, cls in classes.items()}
    stale = []
    for doc in _API_DOCS:
        # blank the fenced blocks but keep their newlines (line numbers)
        text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                          (REPO / doc).read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in _SPAN.findall(line):
                for cls, attr, var, var_attr in _API_NAME.findall(span):
                    if (attr or var_attr) not in attributes[cls or var]:
                        stale.append((doc, lineno, span))
    return stale


def src_modules() -> list:
    """``(repo-relative path, parsed AST)`` of every module in ``src/``."""
    return [(str(path.relative_to(REPO)), ast.parse(path.read_text()))
            for path in sorted((REPO / "src").rglob("*.py"))]


def _own(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) \
        and node.value.id in ("self", "cls")


def foreign_private_accesses() -> list:
    """Every ``(module, line, expr)`` in ``src/`` that touches, on a
    receiver other than self / cls, a single-underscore attribute the
    module does not define itself: as a method or class-level name
    of one of its classes, or by assigning it on self / cls.  (By
    name -- nothing here infers the receiver's type.)"""
    found = []
    for module, tree in src_modules():
        owned = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                owned.update(
                    leaf.id for leaf in ast.walk(stmt)
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and isinstance(leaf, ast.Name)
                    and isinstance(leaf.ctx, ast.Store))
            for node in ast.walk(cls):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owned.add(node.name)
                elif isinstance(node, ast.Attribute) and _own(node) \
                        and isinstance(node.ctx, ast.Store):
                    owned.add(node.attr)
        found += sorted(
            (module, node.lineno, ast.unparse(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and not _own(node) and node.attr not in owned
        )
    return found


def foreign_operator_chains() -> list:
    """Every ``(module, line, expr)`` outside the operator table's
    owners where a comparison involves ``"between"`` or ``"<="``,
    directly or inside an ``in (...)`` tuple."""
    found = []
    for module, tree in src_modules():
        if module in _OPERATOR_OWNERS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(leaf, ast.Constant)
                    and leaf.value in ("between", "<=")
                    for side in (node.left, *node.comparators)
                    for leaf in ast.walk(side)):
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def _mentions(node: ast.AST, names: tuple) -> bool:
    """``node`` reads one of ``names``, as an attribute or a variable."""
    return any(isinstance(leaf, ast.Attribute) and leaf.attr in names
               or isinstance(leaf, ast.Name) and leaf.id in names
               for leaf in ast.walk(node))


def foreign_clock_arithmetic() -> list:
    """Every ``(module, line, expr)`` where simulated time is computed
    outside the clock's owners, or a ``charge`` call is handed a float
    literal (a time) instead of counts."""
    found = []
    for module, tree in src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "charge":
                bad = any(isinstance(leaf, ast.Constant)
                          and isinstance(leaf.value, float)
                          for arg in (*node.args, *node.keywords)
                          for leaf in ast.walk(arg))
            elif module in _CLOCK_OWNERS:
                continue
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                bad = _mentions(node, _PRICES)
            else:
                bad = isinstance(node, ast.Attribute) \
                    and node.attr in _TIME_METHODS
            if bad:
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def environment_reads() -> list:
    """Every ``(module, line, expr)`` in ``src/`` that reaches for the
    process environment, as an attribute (``os.environ``, ``os.getenv``)
    or through ``from os import ...``."""
    found = []
    for module, tree in src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                bad = node.attr in _ENVIRONMENT
            else:
                bad = isinstance(node, ast.ImportFrom) \
                    and node.module == "os" \
                    and any(a.name in _ENVIRONMENT for a in node.names)
            if bad:
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def foreign_boundary_calls() -> list:
    """Every ``(module, line, expr)`` that calls ``VisRequest(...)`` or
    ``....to_untrusted(...)``, by bare or dotted name, outside that
    name's owner (:data:`_BOUNDARY_OWNERS`)."""
    found = []
    for module, tree in src_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) \
                or getattr(node.func, "attr", None)
            owner = _BOUNDARY_OWNERS.get(name)
            if owner is not None and module != owner:
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def _thread_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".")
               for m in _THREAD_MODULES)


def second_threads() -> list:
    """Every ``(module, line, expr)`` in ``src/`` that imports a thread
    module (:data:`_THREAD_MODULES`, however spelled) or calls, or
    imports by name, one of :data:`_THREAD_CALLS`."""
    found = []
    for module, tree in src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bad = any(_thread_module(a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = any(_thread_module(f"{node.module}.{a.name}")
                          or a.name in _THREAD_CALLS for a in node.names)
            elif isinstance(node, ast.Call):
                bad = (getattr(node.func, "id", None)
                       or getattr(node.func, "attr", None)) in _THREAD_CALLS
            else:
                bad = False
            if bad:
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def foreign_sql_parsing() -> list:
    """Every ``(module, line, expr)`` that imports or calls, by bare or
    dotted name, one of :data:`_SQL_TEXT_OWNERS` outside its owners."""
    found = []
    for module, tree in src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id", None)
                         or getattr(node.func, "attr", None)]
            else:
                continue
            if any(name in _SQL_TEXT_OWNERS
                   and not module.startswith(_SQL_TEXT_OWNERS[name])
                   for name in names):
                found.append((module, node.lineno, ast.unparse(node)))
    return found


def run_examples() -> list:
    """Run every examples/ script; returns the ones that failed."""
    failed = []
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for script in sorted((REPO / "examples").glob("*.py")):
        print(f"running {script.relative_to(REPO)} ...", flush=True)
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, cwd=REPO,
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            failed.append((script.relative_to(REPO), proc.stderr[-2000:]))
    return failed


def main(argv: list) -> int:
    ok = True
    broken = broken_links()
    for md, target in broken:
        print(f"BROKEN LINK {md}: ({target})")
        ok = False
    if not broken:
        print(f"links ok across {len(iter_markdown_files())} markdown "
              f"file(s)")
    for doc, lineno, span in stale_api_names():
        print(f"STALE API NAME {doc}:{lineno}: `{span}`")
        ok = False
    for module, lineno, expr in foreign_private_accesses():
        print(f"FOREIGN PRIVATE ACCESS {module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in foreign_operator_chains():
        print(f"OPERATOR CHAIN OUTSIDE repro/predicate.py "
              f"{module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in foreign_clock_arithmetic():
        print(f"SIMULATED TIME COMPUTED OUTSIDE flash/stats.py "
              f"{module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in environment_reads():
        print(f"ENVIRONMENT READ IN src/ {module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in foreign_boundary_calls():
        print(f"TRUST-BOUNDARY CALL OUTSIDE ITS OWNER "
              f"{module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in second_threads():
        print(f"SECOND THREAD IN src/ {module}:{lineno}: {expr}")
        ok = False
    for module, lineno, expr in foreign_sql_parsing():
        print(f"SQL TEXT LEXED OR PARSED OUTSIDE ITS OWNERS "
              f"{module}:{lineno}: {expr}")
        ok = False
    if "--run-examples" in argv:
        for script, stderr in run_examples():
            print(f"EXAMPLE FAILED {script}:\n{stderr}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
