"""The Vis result cache: id-only requests ride cached supersets.

A ``columns=()`` Vis request asks for exactly the sorted id list that
any previously downloaded result of the same table (same visible
predicates -- they are query-derived) already carries, so it must be
served locally instead of paying a second channel round trip.
"""

from repro.core.operators import ExecContext, op_vis


def make_ctx(db, sql):
    bound = db.bind(sql)
    return ExecContext(db.token, db.catalog, db.vis_server, bound)


SQL = ("SELECT T1.id, T1.v2 FROM T1 WHERE T1.v1 < 500")


def test_id_only_request_served_from_cached_superset(db):
    ctx = make_ctx(db, SQL)
    served_before = db.vis_server.requests_served
    with_cols = op_vis(ctx, "T1", ("v2",))
    assert db.vis_server.requests_served == served_before + 1

    bytes_in = db.token.channel.stats.bytes_to_secure
    bytes_out = db.token.channel.stats.bytes_to_untrusted
    ids_only = op_vis(ctx, "T1")
    # no second exchange happened, in either direction
    assert db.vis_server.requests_served == served_before + 1
    assert db.token.channel.stats.bytes_to_secure == bytes_in
    assert db.token.channel.stats.bytes_to_untrusted == bytes_out
    assert ids_only.ids == with_cols.ids
    assert ids_only.rows == [(i,) for i in with_cols.ids]


def test_id_only_request_still_fetches_without_a_superset(db):
    ctx = make_ctx(db, SQL)
    served_before = db.vis_server.requests_served
    ids_only = op_vis(ctx, "T1")
    assert db.vis_server.requests_served == served_before + 1
    assert ids_only.ids == sorted(ids_only.ids)
    # and the result is cached for repeats
    op_vis(ctx, "T1")
    assert db.vis_server.requests_served == served_before + 1
