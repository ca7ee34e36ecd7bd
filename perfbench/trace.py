"""Outside-in span tracer for the traced benchmark run.

Installed in ``--trace 1`` runs only, and purely from this file: it
wraps a fixed table of each layer's *public* callables with timing
closures (nothing under ``src/`` knows it exists) and removes them
again when the run ends.  Every call becomes a span ``(id, parent,
statement, name, start, end)``; the parent and the statement id travel
in :mod:`contextvars`, which asyncio tasks and ``asyncio.to_thread``
workers both inherit, so the service workload's spans nest exactly
like the in-process ones.

Leaves that a statement calls hundreds of times (a flash page read,
one set operation, one codec call) are *folded*: all calls under the
same parent become one counted span, so the trace stays small and the
wrapper stays cheap.  While a folded leaf runs, nested wrapped calls
are not recorded (their time already belongs to the leaf).

A layer's **self time** is its span's duration minus the part its child
spans cover; summed over one statement's tree it equals the statement
span's duration, which :func:`summarize` checks per statement.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_CUR: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None)
_STMT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_stmt", default=None)

#: parent marker set while a folded leaf runs
_LEAF = -1

#: wire key the client-side ``encode_frame`` wrapper adds to requests so
#: the server-side ``decode_frame`` wrapper can attach the server's
#: spans to the client's statement (the server ignores unknown keys)
_WIRE_KEY = "trace"

PLAIN, FOLD, ENCODE, DECODE = "plain", "fold", "encode", "decode"

#: (span name, module, qualified name, how to wrap).  The span name's
#: prefix is the ``src/repro/`` layer the time is charged to.
TABLE: Tuple[Tuple[str, str, str, str], ...] = (
    ("sql.parse", "repro.sql.parser", "parse", PLAIN),
    ("sql.bind", "repro.sql.binder", "Binder.bind", PLAIN),
    ("sql.bind", "repro.sql.binder", "Binder.bind_sql", PLAIN),
    ("sql.bind", "repro.sql.binder", "Binder.bind_insert", PLAIN),
    ("sql.bind", "repro.sql.binder", "Binder.bind_delete", PLAIN),
    ("core.plan_for", "repro.core.session",
     "PreparedStatement.plan_for", PLAIN),
    ("core.plan", "repro.core.planner", "Planner.plan", PLAIN),
    ("core.execute_plan", "repro.core.ghostdb",
     "GhostDB.execute_plan", PLAIN),
    ("core.execute_fragment", "repro.core.ghostdb",
     "GhostDB.execute_fragment", PLAIN),
    ("core.qepsj", "repro.core.executor", "QepSjExecutor.execute", PLAIN),
    ("core.project", "repro.core.project",
     "ProjectionExecutor.execute", PLAIN),
    ("core.sort", "repro.core.sort", "OrderByExecutor.execute", PLAIN),
    ("core.dml", "repro.core.dml", "DmlExecutor.insert", PLAIN),
    ("core.dml", "repro.core.dml", "DmlExecutor.delete", PLAIN),
    ("core.compact", "repro.core.ghostdb", "GhostDB.compact", PLAIN),
    ("persist.snapshot", "repro.core.ghostdb", "GhostDB.snapshot", PLAIN),
    ("persist.restore", "repro.core.ghostdb", "GhostDB.restore", PLAIN),
    ("index.lookup", "repro.index.climbing", "ClimbingIndex.lookup", PLAIN),
    ("index.lookup", "repro.index.climbing",
     "ClimbingIndex.lookup_all", PLAIN),
    ("index.bloom", "repro.index.bloom", "BloomFilter.add_many", FOLD),
    ("index.bloom", "repro.index.bloom", "BloomFilter.contains_many", FOLD),
    ("storage.setops", "repro.storage.runs", "intersect_sorted", FOLD),
    ("storage.setops", "repro.storage.runs", "union_sorted", FOLD),
    ("storage.setops", "repro.storage.runs", "difference_sorted", FOLD),
    ("storage.setops", "repro.storage.runs", "intersect_sorted_many", FOLD),
    ("storage.setops", "repro.storage.runs", "union_sorted_many", FOLD),
    ("storage.setops", "repro.storage.runs",
     "difference_sorted_many", FOLD),
    ("storage.setops", "repro.storage.runs", "dedupe_sorted", FOLD),
    ("storage.codec", "repro.storage.runs", "decode_words", FOLD),
    ("storage.codec", "repro.storage.runs", "encode_words", FOLD),
    ("storage.codec", "repro.storage.codec", "RowCodec.pack", FOLD),
    ("storage.codec", "repro.storage.codec", "RowCodec.unpack", FOLD),
    ("storage.codec", "repro.storage.codec", "RowCodec.unpack_columns", FOLD),
    ("storage.codec", "repro.storage.codec", "RowCodec.pack_rows", FOLD),
    ("storage.codec", "repro.storage.codec", "RowCodec.unpack_rows", FOLD),
    ("storage.codec", "repro.storage.codec",
     "RowCodec.unpack_rows_columns", FOLD),
    ("flash.read_page", "repro.flash.store", "FlashFile.read_page", FOLD),
    ("flash.append_page", "repro.flash.store", "FlashFile.append_page", FOLD),
    ("flash.write_page", "repro.flash.store", "FlashFile.write_page", FOLD),
    ("untrusted.vis", "repro.untrusted.server", "VisServer.vis", PLAIN),
    ("untrusted.vis", "repro.untrusted.server", "VisServer.vis_batch", PLAIN),
    ("untrusted.push_rows", "repro.untrusted.server",
     "VisServer.push_rows", PLAIN),
    ("service.encode_frame", "repro.service.protocol",
     "encode_frame", ENCODE),
    ("service.decode_frame", "repro.service.protocol",
     "decode_frame", DECODE),
    ("service.admit", "repro.service.admission",
     "AdmissionController.admit", PLAIN),
    ("service.execute_pinned", "repro.core.session",
     "Session.execute_pinned", PLAIN),
    ("shard.execute", "repro.shard.fleet",
     "FleetPreparedStatement.execute", PLAIN),
    ("shard.plan_for", "repro.shard.fleet",
     "FleetPreparedStatement.plan_for", PLAIN),
    ("shard.gather", "repro.shard.gather", "translate_rows", PLAIN),
    ("shard.gather", "repro.shard.gather", "merge_by_anchor", PLAIN),
    ("shard.gather", "repro.shard.gather", "merge_ordered", PLAIN),
    ("shard.gather", "repro.shard.gather", "finish_order", PLAIN),
    ("shard.gather", "repro.shard.gather", "window", PLAIN),
    ("shard.gather", "repro.shard.gather", "merge_cost_s", PLAIN),
    ("shard.compact", "repro.shard.fleet", "ShardedGhostDB.compact", PLAIN),
    ("persist.snapshot", "repro.shard.fleet",
     "ShardedGhostDB.snapshot", PLAIN),
)

#: span name of the per-statement root the harness opens
ROOT = "client.stmt"


class _Statement:
    """Context manager opening one statement's root span."""

    __slots__ = ("tracer", "stmt", "sid", "t0", "tokens")

    def __init__(self, tracer: "Tracer", stmt: int):
        self.tracer = tracer
        self.stmt = stmt

    def __enter__(self) -> "_Statement":
        self.sid = next(self.tracer._ids)
        self.tokens = (_CUR.set(self.sid), _STMT.set(self.stmt))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        _CUR.reset(self.tokens[0])
        _STMT.reset(self.tokens[1])
        self.tracer.spans.append(
            (self.sid, None, self.stmt, ROOT, self.t0, t1))


class Tracer:
    """Installs the wrappers, collects spans, writes them out."""

    def __init__(self) -> None:
        #: ``(id, parent, stmt, name, start, end)`` per recorded call
        self.spans: List[Tuple] = []
        #: ``(parent, name) -> [calls, total_s, first_start, stmt]``
        self.folded: Dict[Tuple, List] = {}
        #: bytes of every frame body encoded while tracing
        self.wire_bytes = 0
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def statement(self, stmt: int) -> _Statement:
        """Root span of benchmark statement number ``stmt``."""
        return _Statement(self, stmt)

    def install(self) -> None:
        """Wrap every callable of :data:`TABLE`."""
        for name, module, qualname, how in TABLE:
            importlib.import_module(module)
        # the modules that import table entries by name must be loaded
        # before their bindings can be redirected
        for module in ("repro.core.ghostdb", "repro.core.merge",
                       "repro.service.server", "repro.service.client",
                       "repro.shard.fleet", "repro.persist.image"):
            importlib.import_module(module)
        for name, module, qualname, how in TABLE:
            self._wrap(name, sys.modules[module], qualname, how)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, module, qualname: str, how: str) -> None:
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self._make(name, raw.__func__, how))
            else:
                wrapped = self._make(name, raw, how)
            setattr(cls, attr, wrapped)
            self._undo.append(lambda: setattr(cls, attr, raw))
            return
        original = getattr(module, attr)
        wrapped = self._make(name, original, how)
        # ``from x import f`` copies: redirect every repro module's
        # binding of the same function object
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(
                    "repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(
                        lambda m=mod, k=key: setattr(m, k, original))

    def _make(self, name: str, fn: Callable, how: str) -> Callable:
        spans_append = self.spans.append
        folded = self.folded
        ids = self._ids
        clock = time.perf_counter
        cur, stmt = _CUR, _STMT

        if inspect.iscoroutinefunction(fn):
            async def async_wrapper(*args, **kwargs):
                parent = cur.get()
                sid = next(ids)
                token = cur.set(sid)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    cur.reset(token)
                    spans_append((sid, parent, stmt.get(), name, t0, t1))
            return async_wrapper

        if how == FOLD:
            def fold_wrapper(*args, **kwargs):
                parent = cur.get()
                if parent == _LEAF:
                    return fn(*args, **kwargs)
                token = cur.set(_LEAF)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    cur.reset(token)
                    acc = folded.get((parent, name))
                    if acc is None:
                        folded[(parent, name)] = [1, dt, t0, stmt.get()]
                    else:
                        acc[0] += 1
                        acc[1] += dt
            return fold_wrapper

        if how == ENCODE:
            def encode_wrapper(payload):
                parent = cur.get()
                if "op" in payload and stmt.get() is not None:
                    payload = dict(payload)
                    payload[_WIRE_KEY] = [stmt.get(), parent]
                sid = next(ids)
                t0 = clock()
                try:
                    frame = fn(payload)
                    self.wire_bytes += len(frame)
                    return frame
                finally:
                    spans_append((sid, parent, stmt.get(), name, t0,
                                  clock()))
            return encode_wrapper

        if how == DECODE:
            def decode_wrapper(body):
                sid = next(ids)
                t0 = clock()
                payload = fn(body)
                t1 = clock()
                self.wire_bytes += len(body) + 4
                link = payload.pop(_WIRE_KEY, None) \
                    if isinstance(payload, dict) else None
                # left set on purpose: the server's connection task
                # spawns the request task next, which copies this
                # context and so inherits the client's statement
                stmt.set(link[0] if link else None)
                cur.set(link[1] if link else None)
                spans_append((sid, link[1] if link else None,
                              link[0] if link else None, name, t0, t1))
                return payload
            return decode_wrapper

        def wrapper(*args, **kwargs):
            parent = cur.get()
            if parent == _LEAF:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = cur.set(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                cur.reset(token)
                spans_append((sid, parent, stmt.get(), name, t0, t1))
        return wrapper

    # ------------------------------------------------------------------
    def all_spans(self) -> List[Tuple]:
        """Recorded spans plus one counted span per folded leaf group:
        ``(id, parent, stmt, name, start, end, calls)``."""
        out = [span + (1,) for span in self.spans]
        for (parent, name), (calls, total, t0, stmt) in self.folded.items():
            out.append((next(self._ids), parent, stmt, name, t0,
                        t0 + total, calls))
        return out

    def dump(self, path, header: Dict[str, Any]) -> None:
        """Write the span file: a header plus one row per span."""
        doc = dict(header)
        doc["columns"] = ["id", "parent", "stmt", "name", "start_s",
                          "end_s", "calls"]
        doc["spans"] = self.all_spans()
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NameTotals:
    """Per span name: calls, inclusive seconds, self seconds."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def summarize(spans: List[Tuple]) -> Dict[str, Any]:
    """Fold a span list into per-name totals and per-statement checks.

    Returns ``{"names": {name: NameTotals}, "layers": {layer: self_s},
    "statements": number of statement roots, "worst_self_gap": max over
    statements of |sum of self times - root duration| / root duration,
    "children": {(parent name, child name): calls}}``.  Only spans that
    belong to a statement are counted in ``layers``.
    """
    child_s: Dict[int, float] = {}
    by_id: Dict[int, Tuple] = {}
    for span in spans:
        by_id[span[0]] = span
        if span[1] is not None:
            child_s[span[1]] = child_s.get(span[1], 0.0) + (span[5] - span[4])
    names: Dict[str, NameTotals] = {}
    layers: Dict[str, float] = {}
    per_stmt_self: Dict[int, float] = {}
    roots: Dict[int, float] = {}
    children: Dict[Tuple[str, str], int] = {}
    for sid, parent, stmt, name, t0, t1, calls in spans:
        dur = t1 - t0
        own = dur - child_s.get(sid, 0.0)
        tot = names.get(name)
        if tot is None:
            tot = names[name] = NameTotals()
        tot.calls += calls
        tot.total_s += dur
        tot.self_s += own
        if parent is not None and parent in by_id:
            edge = (by_id[parent][3], name)
            children[edge] = children.get(edge, 0) + calls
        if stmt is None:
            continue
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
        per_stmt_self[stmt] = per_stmt_self.get(stmt, 0.0) + own
        if name == ROOT:
            roots[stmt] = dur
    worst = 0.0
    for stmt, dur in roots.items():
        if dur > 0:
            worst = max(worst, abs(per_stmt_self[stmt] - dur) / dur)
    return {"names": names, "layers": layers, "statements": len(roots),
            "worst_self_gap": worst, "children": children}
