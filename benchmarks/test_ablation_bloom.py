"""Ablation: Bloom filter accuracy vs RAM budget.

This isolates the mechanism behind the paper's Cross-Post gains at
paper scale: once the Vis ID list outgrows the RAM, the m/n ratio
degrades and false positives inflate the post-filtered result.  (At our
1/100 data scale a 64 KB RAM never saturates, so the effect is
demonstrated here directly rather than inside Figure 8.)
"""

import pytest


def test_ablation_bloom_degradation(golden_table):
    rows = golden_table("ablation_bloom")
    # paper's two anchor points: 0.024 at m=8n, 0.055 at m=6n
    by = {r["bits_per_item"]: r for r in rows}
    assert by[8]["measured_fp"] == pytest.approx(0.024, abs=0.015)
    assert by[6]["measured_fp"] == pytest.approx(0.055, abs=0.02)
    # degradation is smooth and monotone
    fps = [r["measured_fp"] for r in rows]
    assert fps == sorted(fps)


def test_ablation_post_filter_under_ram_pressure(golden_table):
    """End-to-end: a Post-Filter query on a RAM-starved token stores
    more Bloom false positives than on the paper's 64 KB token."""
    rows = golden_table("ablation_post_ram")
    assert rows[0]["rows"] == rows[1]["rows"]  # correctness unaffected
    assert rows[1]["time_s"] >= rows[0]["time_s"] * 0.99
