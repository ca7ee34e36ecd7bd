"""Server behavior over the wire: ops, errors, isolation bookkeeping."""

import asyncio

import pytest

from repro.core.plan import SortMethod
from repro.errors import BindError
from repro.faults import FlashFaults
from repro.service.client import AsyncGhostClient, ServiceError
from repro.sql.binder import Binder
from repro.workloads.queries import query_q
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from harness import connected

SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"
TEMPLATE = ("SELECT T0.id, T1.id, T12.id, T1.v1 "
            "FROM T0, T1, T12 "
            "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
            "AND T1.v1 < ? AND T12.h2 = ?")


def test_ping_execute_and_oracle_parity(fresh_db):
    expected = sorted(fresh_db.reference_query(query_q(0.1))[1])

    async def run():
        async with connected(fresh_db) as (_, client):
            assert await client.ping()
            result = await client.execute(query_q(0.1))
            assert result.kind == "rows"
            assert result.columns == ["T0.id", "T1.id", "T12.id", "T1.v1"]
            assert sorted(result.rows) == expected
            # the pinned generations of every touched table ride along
            assert set(result.generations) == {"T0", "T1", "T12"}
            assert result.stats["ram_peak"] > 0
            # a turn holds the whole token: the claim is its RAM
            assert result.stats["ram_claim"] == fresh_db.ram_capacity

    asyncio.run(run())


def test_writes_carry_seq_and_generations(fresh_db):
    async def run():
        async with connected(fresh_db) as (_, client):
            before = (await client.execute(SELECT_T0)).generations["T0"]
            ins = await client.execute(
                "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)")
            assert ins.kind == "dml"
            assert ins.writer_seq == 1
            assert ins.rows_affected == 1
            assert ins.generations["T0"][0] == before[0] + 1
            dele = await client.execute("DELETE FROM T0 WHERE T0.v1 = 1")
            assert dele.writer_seq == 2
            assert dele.rows_affected >= 1
            assert dele.generations["T0"][0] == before[0] + 2
            # readers pin the post-write generations now
            after = await client.execute(SELECT_T0)
            assert tuple(after.generations["T0"]) == \
                tuple(dele.generations["T0"])

    asyncio.run(run())


def test_prepare_exec_stmt_and_plan_reuse(fresh_db):
    async def run():
        async with connected(fresh_db) as (_, client):
            stmt = await client.prepare(TEMPLATE)
            first = await client.exec_stmt(stmt, (100, 2))
            second = await client.exec_stmt(stmt, (10, 2))
            assert len(first.rows) >= len(second.rows)
            stats = await client.server_stats()
            assert stats["plan_cache"]["hits"] >= 1

    asyncio.run(run())


def count_binds(monkeypatch):
    """Count ``Binder.bind`` calls from here on (the list's length)."""
    calls = []
    bind = Binder.bind

    def counting(self, *args, **kwargs):
        calls.append(args)
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(Binder, "bind", counting)
    return calls


def test_a_connection_binds_each_select_text_once(db, monkeypatch):
    """Two ``execute`` frames with one SELECT text, then two
    ``prepare``s of another: each text is bound once, because the
    connection's session hands out its cached statement."""
    async def run():
        async with connected(db) as (_, client):
            binds = count_binds(monkeypatch)
            first = await client.execute(SELECT_T0)
            again = await client.execute(SELECT_T0)
            assert again.rows == first.rows
            assert len(binds) == 1
            a = await client.prepare(TEMPLATE)
            b = await client.prepare(TEMPLATE)
            assert len(binds) == 2
            assert (await client.exec_stmt(a, (10, 2))).rows == \
                (await client.exec_stmt(b, (10, 2))).rows
            stats = await client.server_stats()
            assert stats["plan_cache"]["hits"] == 2
            assert stats["plan_cache"]["entries"] == 2
        return binds

    assert len(asyncio.run(run())) == 2


def test_compact_over_the_wire(fresh_db):
    async def run():
        async with connected(fresh_db) as (_, client):
            await client.execute("INSERT INTO T0 VALUES (1, 1, 2, 2, 3)")
            await client.execute("DELETE FROM T0 WHERE T0.v1 = 2")
            result = await client.compact("T0")
            assert result.kind == "compacted"
            assert result.raw["done"]
            assert result.writer_seq == 3
            # post-compaction reads still agree with the oracle
            rows = (await client.execute(SELECT_T0)).rows
            assert sorted(rows) == sorted(
                fresh_db.reference_query(SELECT_T0)[1])

    asyncio.run(run())


def test_error_responses_keep_connection_alive(db):
    async def run():
        async with connected(db) as (_, client):
            with pytest.raises(ServiceError) as exc:
                await client.execute("SELEKT nonsense")
            assert exc.value.error_type == "SqlSyntaxError"
            with pytest.raises(ServiceError) as exc:
                await client.prepare(
                    "INSERT INTO T0 VALUES (0, 0, 1, 1, 1)")
            assert "SELECT" in str(exc.value)
            with pytest.raises(ServiceError):
                await client.exec_stmt(999, ())
            with pytest.raises(ServiceError) as exc:
                await client._call({"op": "frobnicate"})
            assert "unknown op" in str(exc.value)
            assert await client.ping()    # connection survived it all
            stats = await client.server_stats()
            assert stats["service"]["errors_total"] == 4

    asyncio.run(run())


@pytest.mark.parametrize("request_, field", [
    ({"op": "execute", "sql": None}, "sql"),
    ({"op": "execute"}, "sql"),
    ({"op": "execute", "sql": SELECT_T0, "params": 5}, "params"),
    ({"op": "prepare", "sql": 5}, "sql"),
    ({"op": "compact", "table": "T0", "max_steps": "x"}, "max_steps"),
    ({"op": "compact", "table": "T0", "max_steps": True}, "max_steps"),
    ({"op": "compact", "table": "T0", "pages_per_step": 1.5},
     "pages_per_step"),
    ({"op": "compact", "table": "T0", "max_steps": 0}, "max_steps"),
    ({"op": "compact", "table": ["T0"]}, "table"),
    ({"op": "snapshot", "path": 5}, "path"),
], ids=["sql-null", "sql-missing", "params-int", "prepare-sql-int",
        "max-steps-str", "max-steps-bool", "pages-float", "max-steps-0",
        "table-list", "path-int"])
def test_a_malformed_request_is_an_error_naming_its_field(db, request_,
                                                          field):
    """Ill-typed fields used to escape as ``internal: TypeError`` /
    ``ValueError`` / ``AttributeError``; each is now the engine's own
    error naming the field, and the connection keeps serving."""
    async def run():
        async with connected(db) as (_, client):
            with pytest.raises(ServiceError) as exc:
                await client._call(request_)
            assert not str(exc.value).startswith("internal")
            assert field in str(exc.value)
            assert await client.ping()

    asyncio.run(run())


def test_a_missing_parameter_is_one_error_on_token_fleet_and_wire(fresh_db):
    """SELECT / INSERT / DELETE with an unbound ``?``: the same
    ``BindError`` text from one token, from a fleet and over the wire,
    raised before anything leaves a token."""
    statements = ("SELECT T0.id FROM T0 WHERE T0.v1 < ?",
                  "INSERT INTO T0 VALUES (0, 0, ?, 1, 5)",
                  "DELETE FROM T0 WHERE T0.v1 = ?")
    fleet = build_synthetic(SyntheticConfig(scale=0.0005), shards=2)
    channels = [db.token.channel for db in (fresh_db, *fleet.shards)]
    sent = [len(ch.audit_outbound()) for ch in channels]
    texts = set()
    for db in (fresh_db, fleet):
        for sql in statements:
            with pytest.raises(BindError) as exc:
                db.execute(sql)
            texts.add(str(exc.value))

    async def run():
        async with connected(fresh_db) as (_, client):
            for sql in statements:
                with pytest.raises(ServiceError) as exc:
                    await client.execute(sql)
                assert exc.value.error_type == "BindError"
                texts.add(str(exc.value))

    asyncio.run(run())
    assert texts == {"statement has 1 unbound ? placeholder(s): "
                     "pass params"}
    assert [len(ch.audit_outbound()) for ch in channels] == sent


def test_ill_typed_statements_are_error_responses_not_an_outage(fresh_db):
    """One bad INSERT over the wire used to half-apply (the server
    recovers on PowerLoss only) and take the table out of service."""
    import repro.errors
    read = "SELECT T0.id FROM T0 WHERE T0.v1 < 40"
    expected = fresh_db.reference_query(read)[1]

    async def run():
        async with connected(fresh_db) as (_, client):
            stmt = await client.prepare(
                "SELECT T1.id FROM T1 WHERE T1.h1 = ?")
            for call in (
                    lambda: client.execute(
                        "INSERT INTO T0 VALUES (0, 0, 'oops', 1, 5)"),
                    lambda: client.execute(
                        "INSERT INTO T0 VALUES (0, 0, 1, 1, 'x')"),
                    lambda: client.execute(
                        "DELETE FROM T0 WHERE h3 < 1.5"),
                    lambda: client.execute(
                        "SELECT T1.id FROM T1 WHERE T1.v1 < 'abc'"),
                    lambda: client.exec_stmt(stmt, (None,))):
                with pytest.raises(ServiceError) as exc:
                    await call()
                assert issubclass(
                    getattr(repro.errors, exc.value.error_type),
                    repro.errors.GhostDBError)
            stats = await client.server_stats()
            assert stats["service"]["errors_total"] == 5
            # no recover() ran, none is needed: the same table reads on
            assert (await client.execute(read)).rows == expected
            stats = await client.server_stats()
            assert stats["service"]["recoveries"] == 0

    asyncio.run(run())


def test_order_by_statements_over_the_wire(db):
    """ORDER BY through the server: the turn's claim (the whole RAM)
    covers the ordering step's measured and priced peaks."""
    external = ("SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
                "AND T1.v1 < 500 ORDER BY T1.v1, T0.id")
    top_k = ("SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 40 "
             "ORDER BY T0.v1 DESC, T0.id LIMIT 5")
    keyless = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 40 LIMIT 7"
    methods = [db.plan_query(q).order.method
               for q in (external, top_k, keyless)]
    assert methods == [SortMethod.EXTERNAL, SortMethod.TOP_K,
                       SortMethod.TRUNCATE]

    async def run():
        async with connected(db) as (_, client):
            for sql in (external, top_k, keyless):
                result = await client.execute(sql)
                assert result.rows == db.reference_query(sql)[1]
                assert result.stats["ram_peak"] <= result.stats["ram_claim"]
                if sql is external:
                    chosen = db.plan_query(sql).order.report.chosen
                    assert chosen.n_runs > 1       # a spilling sort
                    assert result.stats["ram_claim"] >= chosen.ram_peak

    asyncio.run(run())


def test_async_pipelining_many_concurrent_requests(db):
    expected = sorted(db.reference_query(query_q(0.01))[1])

    async def run():
        async with connected(db) as (_, client):
            stmt = await client.prepare(TEMPLATE)
            results = await asyncio.gather(*[
                client.exec_stmt(stmt, (10, 2)) for _ in range(16)
            ])
            stats = await client.server_stats()
        return results, stats

    results, stats = asyncio.run(run())
    for result in results:
        assert sorted(result.rows) == expected
    assert stats["admission"]["admitted"] >= 16
    assert stats["admission"]["peak_reserved"] <= \
        stats["admission"]["capacity"]


def test_reported_ram_peak_matches_solo_run(fresh_db):
    """Concurrent responses report per-query peaks, not a smeared one."""
    plan = fresh_db.plan_query(query_q(0.1))
    solo_peak = fresh_db.execute_plan(plan).stats.ram_peak

    async def run():
        async with connected(fresh_db) as (_, client):
            return await asyncio.gather(*[
                client.execute(query_q(0.1)) for _ in range(6)
            ])

    results = asyncio.run(run())
    for result in results:
        assert result.stats["ram_peak"] == solo_peak


#: a read that spills: its ORDER BY writes sort runs to flash
SPILL = ("SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
         "AND T1.v1 < 500 ORDER BY T1.v1, T0.id")


def test_a_read_cut_by_power_loss_is_recovered_in_its_turn(fresh_db):
    """The turn that dies on ``PowerLoss`` recovers the token, a read's
    as much as a write's: the next read answers, and the cut read's
    temporaries are gone."""
    token = fresh_db.token
    before = (token.store.n_files, token.ftl.mapped_pages())
    expected = sorted(fresh_db.reference_query(SPILL)[1])

    async def run():
        async with connected(fresh_db) as (_, client):
            faults = FlashFaults(token.nand, seed=1, cut_at_program=2)
            faults.attach()
            with pytest.raises(ServiceError) as exc:
                await client.execute(SPILL)
            faults.detach()
            assert exc.value.error_type == "PowerLoss"
            assert sorted((await client.execute(SPILL)).rows) == expected
            stats = await client.server_stats()
            assert stats["service"]["recoveries"] == 1

    asyncio.run(run())
    assert (token.store.n_files, token.ftl.mapped_pages()) == before


def test_every_execute_carries_an_ikey_and_a_select_is_never_replayed(
        fresh_db, monkeypatch):
    """The client keys every ``execute`` without sniffing its text; the
    server records only DML responses, so a SELECT resent under one key
    is answered afresh."""
    sent = []
    call = AsyncGhostClient._call_with_retries

    async def spy(self, payload):
        sent.append(payload)
        return await call(self, payload)

    monkeypatch.setattr(AsyncGhostClient, "_call_with_retries", spy)

    async def run():
        async with connected(fresh_db) as (_, client):
            await client.execute(SELECT_T0)
            await client.execute("INSERT INTO T0 VALUES (0, 0, 1, 1, 5)")
            assert all(p.get("ikey") for p in sent)
            assert len({p["ikey"] for p in sent}) == 2
            frame = {"op": "execute", "sql": SELECT_T0, "ikey": "k"}
            first = await client._call(frame)
            await client.execute("INSERT INTO T0 VALUES (0, 0, 1, 1, 2)")
            return first, await client._call(frame)

    first, second = asyncio.run(run())
    assert not first.get("replayed") and not second.get("replayed")
    assert len(second["rows"]) == len(first["rows"]) + 1
    assert second["generations"]["T0"] != first["generations"]["T0"]
