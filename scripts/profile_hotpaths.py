#!/usr/bin/env python
"""Profile four figure drivers and print cProfile top-N.

Usage::

    PYTHONPATH=src python scripts/profile_hotpaths.py [-n 20]
        [--bench fig10] [--scalar] [--sort tottime|cumulative]

Runs each benchmark driver (fig10 pre-vs-post, fig14 throughput,
sort_topk, compaction churn) once under ``cProfile`` against freshly
built databases and reports wall-clock plus the top-N hottest
functions -- the evidence behind the vectorized-execution PR and the
tool for finding the next interpretation-tax hot spot.  ``--scalar``
profiles the scalar reference engine (``REPRO_SCALAR_EXEC=1``) for
before/after contrast.  The churn profile also prints the database's
``compaction_status()`` before and after the driver, so leftover debt
(or a stuck advisor verdict) is visible next to the hot functions.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import time


def profile_one(name: str, fn, args: tuple, top_n: int,
                sort: str) -> float:
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    fn(*args)
    profiler.disable()
    wall = time.perf_counter() - start
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top_n)
    print(f"\n=== {name}: {wall:.3f}s wall ===")
    body = stream.getvalue().splitlines()
    # skip pstats' preamble, keep the header + top-N rows
    for line in body[4:4 + top_n + 3]:
        print(line)
    return wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--top", type=int, default=20,
                        help="functions to print per benchmark")
    parser.add_argument("--bench",
                        choices=("fig10", "fig14", "sort_topk", "churn"),
                        action="append",
                        help="benchmark(s) to profile (default: all)")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumulative"),
                        help="cProfile sort key")
    parser.add_argument("--scalar", action="store_true",
                        help="profile the scalar reference engine "
                             "(REPRO_SCALAR_EXEC=1)")
    opts = parser.parse_args()

    if opts.scalar:
        os.environ["REPRO_SCALAR_EXEC"] = "1"
        print("engine: scalar reference (REPRO_SCALAR_EXEC=1)")
    else:
        os.environ.pop("REPRO_SCALAR_EXEC", None)
        print("engine: vectorized (batch)")

    # imported after the env decision so nothing caches the mode
    from repro.bench.experiments import (
        build_bench_churn,
        build_bench_medical,
        build_bench_synthetic,
        compaction_churn,
        fig10_pre_vs_post,
        fig14_throughput,
        sort_topk,
    )

    def print_compaction_status(db, when: str) -> None:
        print(f"compaction status ({when}):")
        for status in db.compaction_status().values():
            print(f"  {status.describe()}")

    wanted = opts.bench or ["fig10", "fig14", "sort_topk", "churn"]
    walls = {}
    if "fig10" in wanted or "fig14" in wanted:
        t0 = time.perf_counter()
        syn = build_bench_synthetic()
        print(f"synthetic build: {time.perf_counter() - t0:.3f}s")
        if "fig10" in wanted:
            walls["fig10"] = profile_one(
                "fig10_pre_vs_post", fig10_pre_vs_post, (syn,),
                opts.top, opts.sort)
        if "fig14" in wanted:
            walls["fig14"] = profile_one(
                "fig14_throughput", fig14_throughput, (syn,),
                opts.top, opts.sort)
    if "sort_topk" in wanted:
        t0 = time.perf_counter()
        med = build_bench_medical()
        print(f"medical build: {time.perf_counter() - t0:.3f}s")
        walls["sort_topk"] = profile_one(
            "sort_topk", sort_topk, (med,), opts.top, opts.sort)
    if "churn" in wanted:
        t0 = time.perf_counter()
        churn_db = build_bench_churn()
        print(f"churn build: {time.perf_counter() - t0:.3f}s")
        print_compaction_status(churn_db, "before churn")
        walls["churn"] = profile_one(
            "compaction_churn", compaction_churn, (churn_db,),
            opts.top, opts.sort)
        print_compaction_status(churn_db, "after churn")

    print("\nwall-clock summary:")
    for name, wall in walls.items():
        print(f"  {name:10s} {wall:8.3f}s")


if __name__ == "__main__":
    main()
