"""Targeted tests for QEPSJ executor internals: Vis caching, pipeline
labelling, Store materialization and the SJoin page-skip accounting."""

from math import fsum

import pytest

from repro.workloads.queries import query_q


def test_vis_cache_avoids_duplicate_transfers(db):
    """Cross-Post needs the T1 Vis IDs twice (intersection + Bloom);
    the paper notes the redundant lookup 'can be easily avoided'.
    Verify a single ids-only request per table per query."""
    db.token.channel.stats.outbound_log.clear()
    db.execute(query_q(0.05), vis_strategy="post", cross=True)
    vis_requests = [m for m in db.audit_outbound()
                    if m.kind == "vis_request"]
    t1_requests = [m for m in vis_requests if "T1" in m.description]
    # one selection-phase (ids) + one projection-phase (ids+values)
    assert len(t1_requests) <= 2


def test_decomposition_labels_cover_total(db):
    result = db.execute(query_q(0.05))
    known = {"Vis", "CI", "Merge", "SJoin", "Bloom", "Store", "Project",
             "Plan"}
    assert set(result.stats.by_operator) <= known
    assert fsum(result.stats.by_operator.values()) == result.stats.total_s


def test_pre_plan_spends_on_ci_post_plan_on_sjoin(db):
    pre = db.execute(query_q(0.2), vis_strategy="pre", cross=False).stats
    post = db.execute(query_q(0.2), vis_strategy="post", cross=False).stats
    # Pre pays per-id climbs; Post pays full SKT passes
    assert pre.operator_s("CI") > post.operator_s("CI")
    assert post.operator_s("SJoin") >= pre.operator_s("SJoin") * 0.99


def test_store_appears_only_when_materializing(db):
    # anchor-only projection with pre strategy: anchor id list is the
    # only materialization
    sql = "SELECT T0.id FROM T0 WHERE T0.h3 = 3"
    result = db.execute(sql)
    assert result.stats.operator_s("Store") >= 0
    assert result.stats.operator_s("SJoin") == 0  # no other table needed


def test_comm_bytes_grow_with_projected_visible_width(db):
    narrow = db.execute(
        "SELECT T12.id FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    wide = db.execute(
        "SELECT T12.id, T12.v1, T12.v2 FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    assert wide > narrow


def test_hidden_projection_costs_no_communication(db):
    """Hidden values are read from flash, never from the channel."""
    base = db.execute(
        "SELECT T12.id FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    with_hidden = db.execute(
        "SELECT T12.id, T12.h1 FROM T12 WHERE T12.h2 = 1"
    ).stats.bytes_to_secure
    assert with_hidden == base


def test_empty_hidden_selection_short_circuits(db):
    result = db.execute(query_q(0.1).replace("T12.h2 = 2", "T12.h2 = 777"))
    assert result.rows == []
    assert result.stats.operator_s("SJoin") == pytest.approx(0.0, abs=1e-4)
