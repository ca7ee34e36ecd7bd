"""Shared constants for the shard suite (uniquely named: test files
across directories share one flat import namespace under pytest)."""

#: one scale for the whole suite: large enough that every shard of a
#: 5-way fleet holds root rows, small enough to stay fast
SCALE = 0.001

#: every fleet size the suite builds (1 is the plain single token)
SHARD_COUNTS = (1, 2, 3, 4, 5)
