"""Unit and property tests for Bloom filters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RamExhausted
from repro.hardware.ram import SecureRam
from repro.index.bloom import BloomFilter, false_positive_rate


def ram(capacity=65536):
    return SecureRam(capacity=capacity)


def test_no_false_negatives():
    r = ram()
    with BloomFilter(r, 1000) as bf:
        bf.add_all(range(0, 2000, 2))
        for x in range(0, 2000, 2):
            assert x in bf


def test_false_positive_rate_near_paper_value():
    """Paper: m = 8n with 4 hashes gives fp rate 0.024."""
    r = ram(capacity=1 << 20)
    n = 20000
    with BloomFilter(r, n) as bf:
        bf.add_all(range(n))
        fps = sum(1 for x in range(n, 5 * n) if x in bf)
        rate = fps / (4 * n)
    assert 0.01 < rate < 0.05
    assert false_positive_rate(8, 4) == pytest.approx(0.024, abs=0.002)


def test_degraded_ratio_matches_paper():
    """Paper: m = 6n gives fp rate 0.055."""
    assert false_positive_rate(6, 4) == pytest.approx(0.055, abs=0.003)


def test_ram_is_charged_and_freed():
    r = ram()
    bf = BloomFilter(r, 1000)  # 8*1000 bits = 1000 bytes
    assert r.used == 1000
    assert bf.nbytes == 1000
    bf.free()
    assert r.used == 0


def test_size_is_quarter_of_id_list():
    """A Bloom over n IDs is 4x smaller than the 4-byte-ID list itself."""
    bf = BloomFilter(ram(), 5000)
    assert bf.nbytes * 4 == 5000 * 4


def test_cap_degrades_smoothly():
    r = ram()
    bf = BloomFilter(r, 100_000, max_bytes=32768)
    assert bf.nbytes == 32768
    assert bf.bits_per_item < 8
    assert bf.expected_fp_rate > false_positive_rate(8, 4)
    bf.free()


def test_free_ram_caps_vector():
    r = ram(capacity=4096)
    r.alloc(2048)
    bf = BloomFilter(r, 100_000)
    assert bf.nbytes == 2048
    bf.free()


def test_no_ram_at_all_raises():
    r = ram(capacity=2048)
    r.alloc(2048)
    with pytest.raises(RamExhausted):
        BloomFilter(r, 10)


def test_deterministic_across_instances():
    a = BloomFilter(ram(), 100)
    b = BloomFilter(ram(), 100)
    a.add_all(range(50))
    b.add_all(range(50))
    probes = range(0, 1000)
    assert [x in a for x in probes] == [x in b for x in probes]


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**32 - 1),
               min_size=1, max_size=500))
def test_property_membership_superset(members):
    """Everything added must test positive (no false negatives, ever)."""
    r = SecureRam(capacity=1 << 20)
    with BloomFilter(r, len(members)) as bf:
        bf.add_all(members)
        assert all(x in bf for x in members)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_property_expected_fp_monotone_in_budget(n):
    """Smaller bit budgets never improve the theoretical fp rate."""
    assert (false_positive_rate(4, 4)
            >= false_positive_rate(6, 4)
            >= false_positive_rate(8, 4)
            >= false_positive_rate(12, 4))


# ---------------------------------------------------------------------------
# the bulk lane kernel against its specification: scalar add / in
# ---------------------------------------------------------------------------

#: around the scalar cut-over, around one page of lanes, several pages
BATCH_LENGTHS = (0, 1, 2, 7, 8, 9, 511, 512, 513, 1300)
#: lane-packer edge cases: the u32 range ends, and index keys read as
#: integers that exceed one 64-bit lane (the scalar mixer masks them)
EDGE_IDS = (0, 1, 2**32 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**80 - 1)


def random_ids(rng, n):
    width = rng.choice((16, 32, 32, 32, 90))
    ids = [rng.randrange(1 << width) for _ in range(n)]
    for i in rng.sample(range(n), min(n, 3)):
        ids[i] = rng.choice(EDGE_IDS)
    return ids


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       lengths=st.lists(st.sampled_from(BATCH_LENGTHS),
                        min_size=1, max_size=3),
       # odd byte caps: m_bits is a multiple of 8 but not of 64
       cap=st.sampled_from((None, 1, 9, 13, 77, 1001)),
       n_hashes=st.sampled_from((1, 4, 4, 7)))
def test_property_bulk_kernel_equals_scalar_spec(seed, lengths, cap,
                                                 n_hashes):
    """add -> probe -> add -> probe: after every bulk add the bit vector
    equals a scalar ``add`` loop's byte for byte, and every bulk probe
    equals ``x in bf`` element-wise (so the flag cache is dropped by
    each add)."""
    rng = random.Random(seed)
    n_items = max(1, sum(lengths))
    spec = BloomFilter(None, n_items, max_bytes=cap, n_hashes=n_hashes)
    bulk = BloomFilter(None, n_items, max_bytes=cap, n_hashes=n_hashes)
    assert bulk.m_bits == spec.m_bits
    seen = []
    for n in lengths:
        batch = random_ids(rng, n)
        for item in batch:
            spec.add(item)
        if rng.random() < 0.5:
            bulk.add_many(batch)
        else:
            bulk.add_all(iter(batch))
        assert bulk._bits == spec._bits
        assert bulk.count_added == spec.count_added
        seen += batch
        n_probes = rng.choice(BATCH_LENGTHS)
        n_members = min(len(seen), int(n_probes * rng.choice((0, .2, 1))))
        probes = (rng.sample(seen, n_members)
                  + random_ids(rng, n_probes - n_members))
        rng.shuffle(probes)
        keep = bulk.contains_many(probes)
        assert isinstance(keep, bytes)
        assert list(keep) == [item in spec for item in probes]


def test_bulk_probe_of_only_members_and_only_strangers():
    """Both ends of the early exit: no lane ever leaves, every lane
    leaves in the first round."""
    members = list(range(0, 4000, 2))
    bf = BloomFilter(None, len(members), bits_per_item=64)
    bf.add_many(members)
    assert bf.contains_many(members) == b"\1" * len(members)
    strangers = [x for x in range(1, 4000, 2) if x not in bf]
    assert len(strangers) > 1900
    assert bf.contains_many(strangers) == bytes(len(strangers))
