"""Property suite: snapshot/restore under random DML x compaction.

Drives identical random operation streams into two independently built
twins, snapshots one at a quiescent point (refusal is asserted whenever
a bounded compaction job is mid-flight), restores it, and then keeps
driving the *restored* database and the never-snapshotted twin with the
same continued stream: every probe must match the reference oracle and
the final states must be bit-identical -- statistics, storage report,
audited channel, simulated time and per-query costs.
"""

import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ghostdb import GhostDB
from repro.errors import PersistError

from test_compaction_property import (PROBES, apply_random_op, assert_oracle,
                                      build_random_db,
                                      finish_all_compactions)
from test_persist import assert_twins_identical


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
# a 1-step job on C that a later compact("P") overtakes and leaves clean
@example(78286)
def test_property_snapshot_restore_continues_like_the_live_twin(seed):
    rng = random.Random(seed)
    db = build_random_db(random.Random(seed))
    twin = build_random_db(random.Random(seed))

    # identical random histories on both sides (twin rng streams)
    rng_a, rng_b = random.Random(seed + 1), random.Random(seed + 1)
    for _ in range(rng.randint(4, 9)):
        apply_random_op(db, rng_a)
        apply_random_op(twin, rng_b)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.img")
        if db.compactions_in_flight():
            # a bounded job is mid-flight: this is NOT a quiescent
            # point and the snapshot must refuse to run
            with pytest.raises(PersistError):
                db.snapshot(path)
            finish_all_compactions(db)
            finish_all_compactions(twin)
        # every table clean means no job (and none of its shadow
        # files) is left behind
        assert not db.compactions_in_flight()
        db.snapshot(path)
        restored = GhostDB.restore(path, verify=True)

        # the restored image continues exactly like the live twin
        rng_a, rng_b = random.Random(seed + 2), random.Random(seed + 2)
        for _ in range(rng.randint(2, 5)):
            apply_random_op(restored, rng_a)
            apply_random_op(twin, rng_b)
            sql = rng.choice(PROBES)
            assert_oracle(restored, sql)
            assert_oracle(twin, sql)

        finish_all_compactions(restored)
        finish_all_compactions(twin)
        assert_twins_identical(restored, twin)
        restored.token.ram.assert_all_freed()
