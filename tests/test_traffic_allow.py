"""The traffic gate's logic, without running the traffic.

``scripts/traffic_audit.py`` runs every perfbench workload, example
and bench table, then compares the unreached functions with
``scripts/traffic_allow.txt``.  Checked here: the matcher on synthetic
sets, and that every committed entry still names real code and tier-1
tests that exist (not that they reach the code).
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "traffic_audit", ROOT / "scripts" / "traffic_audit.py")
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)

#: the committed list stays short: an entry is a reason, not a function
MAX_ENTRIES = 40


def entry(*patterns):
    return audit.Entry(["tests/t.py::test_t"], "why", [
        audit.Pattern(*p.split(":")) for p in patterns])


DEFINED = [("m", "f"), ("m", "f.<locals>.g"), ("m", "C.a"), ("m", "C.b"),
           ("m", "D.a"), ("n", "f")]


def test_an_unreached_function_no_pattern_covers_fails():
    uncovered, stale, idle = audit.judge(
        DEFINED, [("m", "f"), ("n", "f")], [entry("m:f")])
    assert uncovered == [("n", "f")]
    assert stale == [] and idle == []


def test_a_pattern_that_matches_no_def_is_stale():
    uncovered, stale, _ = audit.judge(
        DEFINED, [("m", "f")], [entry("m:f", "m:gone", "m:E.*")])
    assert uncovered == []
    assert [str(p) for p in stale] == ["m:gone", "m:E.*"]


def test_a_class_prefix_covers_its_methods_and_a_name_its_locals():
    unreached = [("m", "C.a"), ("m", "C.b"), ("m", "f"),
                 ("m", "f.<locals>.g")]
    uncovered, stale, idle = audit.judge(
        DEFINED, unreached, [entry("m:C.*", "m:f")])
    assert uncovered == [] and stale == [] and idle == []
    # ``C.*`` is not ``D``'s, and ``f`` is no other module's
    uncovered, _, _ = audit.judge(
        DEFINED, [("m", "D.a"), ("n", "f")], [entry("m:C.*", "m:f")])
    assert uncovered == [("m", "D.a"), ("n", "f")]


def test_a_pattern_whose_code_traffic_reaches_is_reported_not_failed():
    uncovered, stale, idle = audit.judge(DEFINED, [], [entry("m:f")])
    assert uncovered == [] and stale == []
    assert [str(p) for p in idle] == ["m:f"]


def test_malformed_lines_are_rejected(tmp_path):
    path = tmp_path / "allow.txt"
    for text in ("    m:f\n",                       # pattern, no entry
                 "tests/t.py::test_t\n",           # no why
                 "tests/t.py::test_t,t.py why\n",  # a test without ::
                 "m:f tests/t.py::test_t why\n"):  # one-line form
        path.write_text(text)
        with pytest.raises(ValueError):
            audit.load_allow(path)


@pytest.fixture(scope="module")
def committed():
    return audit.load_allow()


def test_every_committed_pattern_resolves_to_a_def(committed):
    defined = [(module, name) for module, name, _ in
               audit.defined_functions().values()]
    _, stale, _ = audit.judge(defined, [], committed)
    assert stale == []
    assert 0 < len(committed) <= MAX_ENTRIES
    assert all(e.patterns for e in committed)


def test_every_committed_entry_names_existing_tier1_tests(committed):
    for test in (t for e in committed for t in e.tests):
        path, _, name = test.partition("::")
        assert path.split("/")[0] in ("tests", "benchmarks"), test
        source = ROOT / path
        assert source.is_file(), test
        tree = ast.parse(source.read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert name.startswith("test_") and name in defined, test
