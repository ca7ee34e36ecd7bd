"""The paper's synthetic data set (section 6.2).

Schema is Figure 3's tree -- ``T0 -> {T1 -> {T11, T12}, T2}`` -- with
paper cardinalities ``|T0| = 10M, |T1| = |T2| = 1M, |T11| = |T12| =
100K`` scaled by a configurable factor (default 1/100).  Data is
uniform; selection attributes are generated so selectivities are
*exact*:

* ``v1`` cycles over ``0..999``: the predicate ``v1 < k`` has
  selectivity exactly ``k / 1000`` (the experiments' x-axis);
* ``h1``/``h2``/``h3`` cycle over ``0..9``: an equality predicate has
  selectivity exactly 0.1 (the paper fixes sH = 0.1).

Foreign keys are drawn uniformly with a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.core.ghostdb import GhostDB
from repro.hardware.token import TokenConfig
from repro.shard.fleet import ShardedGhostDB

#: paper cardinalities before scaling
PAPER_CARDINALITIES = {
    "T0": 10_000_000,
    "T1": 1_000_000,
    "T2": 1_000_000,
    "T11": 100_000,
    "T12": 100_000,
}

V_DOMAIN = 1000   # v1 < k  ->  sV = k / 1000
H_DOMAIN = 10     # h  = k  ->  sH = 0.1

DDL = [
    """CREATE TABLE T0 (id int,
        fk1 int HIDDEN REFERENCES T1,
        fk2 int HIDDEN REFERENCES T2,
        v1 int, v2 int, h3 int HIDDEN)""",
    """CREATE TABLE T1 (id int,
        fk11 int HIDDEN REFERENCES T11,
        fk12 int HIDDEN REFERENCES T12,
        v1 int, v2 int, h1 int HIDDEN)""",
    "CREATE TABLE T2 (id int, v1 int, h1 int HIDDEN)",
    "CREATE TABLE T11 (id int, v1 int, h1 int HIDDEN)",
    "CREATE TABLE T12 (id int, v1 int, v2 int, h1 int HIDDEN, h2 int HIDDEN)",
]

#: indexes the experiment queries need (keeps builds fast); pass
#: ``full_indexing=True`` to index every hidden attribute instead
EXPERIMENT_INDEXES: Dict[str, Sequence[str]] = {
    "T0": ("h3",),
    "T1": ("h1",),
    "T12": ("h1", "h2"),
}

FULL_INDEXES: Dict[str, Sequence[str]] = {
    "T0": ("h3",),
    "T1": ("h1",),
    "T2": ("h1",),
    "T11": ("h1",),
    "T12": ("h1", "h2"),
}


@dataclass(frozen=True)
class SyntheticConfig:
    """Scaling and determinism knobs for the synthetic workload."""

    scale: float = 0.01
    seed: int = 42
    full_indexing: bool = False

    def cardinality(self, table: str) -> int:
        return max(5, int(PAPER_CARDINALITIES[table] * self.scale))


def build_synthetic(config: Optional[SyntheticConfig] = None,
                    token_config: Optional[TokenConfig] = None,
                    shards: int = 1) -> Union[GhostDB, ShardedGhostDB]:
    """Create, load and build a GhostDB over the synthetic data set.

    ``shards > 1`` builds the same data set on a hash-partitioned
    fleet (``ShardedGhostDB(shards)``) instead of a single token.
    """
    cfg = config or SyntheticConfig()
    rng = random.Random(cfg.seed)
    indexes = FULL_INDEXES if cfg.full_indexing else EXPERIMENT_INDEXES
    if shards == 1:
        db = GhostDB(config=token_config, indexed_columns=dict(indexes))
    else:   # the fleet refuses a size below 2
        db = ShardedGhostDB(shards, config=token_config,
                            indexed_columns=dict(indexes))
    for ddl in DDL:
        db.execute(ddl)

    n = {t: cfg.cardinality(t) for t in PAPER_CARDINALITIES}
    db.load("T11", [(i % V_DOMAIN, i % H_DOMAIN)
                    for i in range(n["T11"])])
    db.load("T12", [(i % V_DOMAIN, (i * 3) % V_DOMAIN, i % H_DOMAIN,
                     (i * 7 + 3) % H_DOMAIN)
                    for i in range(n["T12"])])
    db.load("T2", [(i % V_DOMAIN, i % H_DOMAIN) for i in range(n["T2"])])
    db.load("T1", [
        (rng.randrange(n["T11"]), rng.randrange(n["T12"]),
         i % V_DOMAIN, (i * 13) % V_DOMAIN, i % H_DOMAIN)
        for i in range(n["T1"])
    ])
    db.load("T0", [
        (rng.randrange(n["T1"]), rng.randrange(n["T2"]),
         i % V_DOMAIN, (i * 17) % V_DOMAIN, i % H_DOMAIN)
        for i in range(n["T0"])
    ])
    db.build()
    return db


def sv_to_v1_bound(selectivity: float) -> int:
    """The ``v1 < k`` bound realizing a wanted Visible selectivity."""
    return max(1, round(selectivity * V_DOMAIN))
