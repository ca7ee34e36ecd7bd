"""Tier-1 smoke test of the benchmark itself.

Runs all four workloads at a tiny scale (traced, one round each) and
checks the contract the driver and later PRs rely on: exactly the
declared metrics are emitted, simulated numbers repeat between two
runs, nothing fails -- and a wrong answer *is* counted as a failure.
"""

import pytest

from perfbench.harness import RAM_BUDGET, Harness, same_exact
from perfbench.run import WALL_METRICS, load_spec

SPEC = load_spec()
SCALE = 0.07
SEED = 7


def run(workload: str, workdir, traced: bool) -> Harness:
    harness = Harness(workload, SEED, SCALE, str(workdir))
    harness.setup(1)
    harness.verify()
    if traced:
        harness.measure_traced()
    else:
        harness.measure(seconds=0, rounds=1)
    harness.finish()
    return harness


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics_and_repeats(workload, tmp_path):
    first = run(workload, tmp_path / "a", traced=True)
    second = run(workload, tmp_path / "b", traced=False)
    end_to_end, layers = first.end_to_end(), first.per_layer()

    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert first.failure_messages() == []
    assert second.failure_messages() == []
    assert end_to_end["correct_share"] == 1.0
    assert 0 < end_to_end["ram_peak_max_bytes"] <= RAM_BUDGET
    assert layers["perfbench.trace_self_gap"] < 0.05

    # simulated numbers and exact counts repeat in a second run
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    again = second.end_to_end()
    for name in set(end_to_end) - set(WALL_METRICS):
        assert same_exact(end_to_end[name], again[name], units[name]), name
    counters, counters_again = (h.rounds[0].counters for h in (first, second))
    for key, value in counters.items():
        if first.wl.concurrent and key.startswith(("cache_", "plan_")):
            continue        # depend on how 8 statements interleaved
        unit = "sim_s" if key.startswith("sim_s.") else "count"
        assert same_exact(value, counters_again[key], unit), key


def test_wrong_answer_counts_as_failure(tmp_path):
    harness = Harness("write_churn", SEED, SCALE, str(tmp_path))
    harness.setup(1)
    harness.verify()
    key = next(iter(harness.verifier.expected))
    count, crc = harness.verifier.expected[key]
    harness.verifier.expected[key] = (count, crc ^ 1)
    harness.measure(seconds=0, rounds=1)
    harness.finish()
    assert harness.failed > 0
    assert harness.end_to_end()["correct_share"] < 1.0
    assert any("wrong rows" in m for m in harness.failure_messages())
