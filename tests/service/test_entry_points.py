"""One way in for SQL text: what each entry point lexes and parses,
and prepared ids that belong to the session's cached statement.

A statement text is lexed in full once per request (its cache key),
and parsed only when no cached statement has it or when it is not a
SELECT; the first-token probe that routes it is not a full lex.  A
wire ``prepare`` answers the id its session's LRU gave the statement,
so one text keeps one id, and an evicted statement's id is refused.
"""

import sys

import pytest

from repro.service.client import GhostClient, ServiceError
from repro.sql import lexer, parser

from harness import serving

SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"
TEMPLATE = ("SELECT T0.id, T1.id, T12.id, T1.v1 "
            "FROM T0, T1, T12 "
            "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
            "AND T1.v1 < ? AND T12.h2 = ?")
INSERT_T0 = "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)"


def count_lexes_and_parses(monkeypatch):
    """Count full lexes (``tokenize`` / ``normalize_sql``) and parses
    from here on, wherever a module imported them by name; a call made
    inside another counted call of its kind is not counted again."""
    counts = {"lex": 0, "parse": 0}
    depth = dict.fromkeys(counts, 0)

    def counting(fn, kind):
        def wrapper(*args, **kwargs):
            counts[kind] += depth[kind] == 0
            depth[kind] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[kind] -= 1
        return wrapper

    for module, name, kind in ((lexer, "tokenize", "lex"),
                               (lexer, "normalize_sql", "lex"),
                               (parser, "parse", "parse")):
        original = getattr(module, name)
        wrapped = counting(original, kind)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    return counts


def capture_sessions(db, monkeypatch, capacity=None):
    """The sessions ``db`` hands out from here on (one per wire
    connection), their statement caches cut to ``capacity``."""
    made = []
    make = db.session

    def session():
        made.append(make())
        if capacity is not None:
            made[-1].plan_cache.capacity = capacity
        return made[-1]

    monkeypatch.setattr(db, "session", session)
    return made


def test_each_entry_point_lexes_once_and_parses_only_what_it_must(
        fresh_db, monkeypatch):
    counts = count_lexes_and_parses(monkeypatch)

    def measure(run):
        counts.update(lex=0, parse=0)
        run()
        return counts["lex"], counts["parse"]

    table = {}
    fresh_db.execute(SELECT_T0)                       # cache the statement
    table["db.execute SELECT (hit)"] = measure(
        lambda: fresh_db.execute(SELECT_T0))
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            client.prepare(TEMPLATE)
            table["wire prepare (hit)"] = measure(
                lambda: client.prepare(TEMPLATE))
            client.execute(SELECT_T0)
            table["wire execute SELECT (hit)"] = measure(
                lambda: client.execute(SELECT_T0))
            table["wire execute INSERT"] = measure(
                lambda: client.execute(INSERT_T0))
    table["db.execute INSERT"] = measure(lambda: fresh_db.execute(INSERT_T0))
    assert table == {
        "db.execute SELECT (hit)": (1, 0),
        "wire prepare (hit)": (1, 0),
        "wire execute SELECT (hit)": (1, 0),
        "wire execute INSERT": (1, 1),
        "db.execute INSERT": (1, 1),
    }


def test_prepares_of_one_text_share_one_id(db, monkeypatch):
    sessions = capture_sessions(db, monkeypatch)
    with serving(db) as server:
        with GhostClient(server.host, server.port) as client:
            ids = {client.prepare(TEMPLATE) for _ in range(300)}
            assert len(ids) == 1
            # a text that normalizes alike is the same statement
            variant = "  " + TEMPLATE.replace("SELECT", "select") + " ;"
            assert client.prepare(variant) in ids
            cache = sessions[0].plan_cache
            assert len(cache) == 1
            for v in range(cache.capacity + 6):
                client.prepare(f"SELECT T0.id FROM T0 WHERE T0.v1 < {v}")
            # everything the connection holds lives in its one LRU
            assert len(cache) == cache.capacity


def test_an_evicted_statement_id_asks_to_prepare_again(db, monkeypatch):
    capture_sessions(db, monkeypatch, capacity=2)
    texts = [f"SELECT T0.id FROM T0 WHERE T0.v1 < {v}" for v in (1, 2, 3)]
    with serving(db) as server:
        with GhostClient(server.host, server.port) as client:
            ids = [client.prepare(sql) for sql in texts]
            assert len(set(ids)) == 3
            with pytest.raises(ServiceError) as exc:
                client.exec_stmt(ids[0])
            assert exc.value.error_type == "GhostDBError"
            assert "prepare it again" in str(exc.value)
            # the connection stays usable, and the statement comes back
            # under a new id
            again = client.prepare(texts[0])
            assert again not in ids
            assert sorted(client.exec_stmt(again).rows) == \
                sorted(db.reference_query(texts[0])[1])
            assert client.ping()
