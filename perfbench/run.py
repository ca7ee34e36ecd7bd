"""perfbench: the two-clock benchmark of the GhostDB reproduction.

One workload, in this process (what the driver runs; the last line of
standard output is the result object)::

    python3 perfbench/run.py --workload select_heavy --seed 7 \
        --seconds 12 --trace 0

Every workload, each in its own fresh subprocess, as one table::

    python3 perfbench/run.py [--seed S] [--seconds N | --rounds R] [--trace]

Two complete sets on the same code, compared (the A/A check)::

    python3 perfbench/run.py --check-repeat

Metric names, units, better-directions and regression bounds live in
``BENCHMARK.json`` at the repository root; this program emits exactly
the declared metrics and fails if it cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

DEFAULT_SEED = 7        # 11 is held out for future performance claims
WORK_DIR = ROOT / "perfbench" / ".work"
OUT_DIR = ROOT / "perfbench" / "out"
#: end-to-end metrics on the wall/host clock; the others must repeat
#: exactly for a given seed
WALL_METRICS = ("setup_s", "stmt_per_s", "wall_ms_p50", "wall_ms_p95",
                "host_rss_mb")
#: per-layer counts that depend on how concurrent statements happened
#: to interleave (so only single-caller workloads repeat them exactly)
INTERLEAVING_COUNTS = ("service.queued_share", "service.max_coadmitted",
                       "service.snapshot_retries", "service.claim_underruns",
                       "service.wire_bytes_per_stmt",
                       "flash.page_cache_hit_ratio",
                       "core.plan_cache_hit_ratio")
#: per-layer values that come from the host, not from the simulator
HOST_VALUES = ("service.tax_ratio", "perfbench.trace_overhead_ratio",
               "perfbench.trace_self_gap",
               # a pickled, compressed image: its size moves by a byte
               # or two with the process's hash seed
               "persist.image_bytes")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def exact_layer_metrics(spec: Dict[str, Any], concurrent: bool) -> List[str]:
    """The per-layer metrics that must be bit-equal between two runs of
    the same code and seed: everything not measured on the wall clock."""
    skip = set(HOST_VALUES) | (set(INTERLEAVING_COUNTS) if concurrent
                               else set())
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] not in ("ms", "us", "s") and m["name"] not in skip]


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what this run happened, so a runner swap shows in
    the data instead of reading as a regression."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": _git_sha(), "seed": seed}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    from perfbench.harness import Harness, quartiles

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    harness = Harness(args.workload, args.seed, args.scale, str(workdir))
    try:
        harness.setup(1 if args.trace or args.rounds else 3)
        harness.verify()
        if args.trace:
            harness.measure_traced()
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            trace_file = OUT_DIR / (
                f"trace_{args.workload}_seed{args.seed}.json")
            harness.tracer.dump(trace_file, {
                "workload": args.workload, **provenance(args.seed)})
        else:
            harness.measure(args.seconds, args.rounds)
        harness.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = harness.per_layer() if args.trace else harness.end_to_end()
    if set(values) != set(units):
        raise SystemExit(
            "emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, undeclared "
            f"{sorted(set(values) - set(units))}")

    info = provenance(args.seed)
    info.update(rounds=len(harness.rounds), calib_ms=harness.calib_ms,
                measured_s=harness.measured_s, workload=args.workload,
                trace=args.trace, **harness.sizes)
    samples = {} if args.trace else harness.wall_samples()
    samples["setup_s"] = harness.setup_s
    info["samples"] = samples
    info["concurrent"] = harness.wl.concurrent
    print("provenance " + json.dumps(info))
    for name in units:
        line = f"  {name:42s} {values[name]:>16.6g} {units[name]}"
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = quartiles(samples[name])
            line += (f"   (per round: q1 {q1:.6g}, q3 {q3:.6g}, "
                     f"n={len(samples[name])})")
        print(line)
    if args.trace:
        print(f"  trace file: {trace_file.relative_to(ROOT)}")
    for message in harness.failure_messages()[:20]:
        print("FAILED " + message)
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if harness.failed == 0 else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def _spawn(args, workload: str, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", str(args.scale)]
    if args.rounds:
        cmd += ["--rounds", str(args.rounds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["provenance"] = json.loads(
            next(l for l in lines if l.startswith("provenance "))[11:])
    except (IndexError, ValueError, StopIteration):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) produced no result")
    result["returncode"] = proc.returncode
    for line in lines:
        if line.startswith("FAILED "):
            print(f"{workload}: {line}")
    return result


def run_set(args, spec) -> Dict[str, Dict[str, Any]]:
    """``{workload: {"end_to_end": result, "per_layer": result}}``."""
    out: Dict[str, Dict[str, Any]] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        out[workload] = {"end_to_end": _spawn(args, workload, 0)}
        if args.trace:
            out[workload]["per_layer"] = _spawn(args, workload, 1)
    return out


def print_set(results, spec) -> None:
    workloads = list(results)
    first = results[workloads[0]]["end_to_end"]["provenance"]
    print("provenance " + json.dumps(
        {k: first[k] for k in ("cpu", "nproc", "python", "git_sha", "seed")}))
    for workload in workloads:
        p = results[workload]["end_to_end"]["provenance"]
        print(f"{workload}: scale {p['scale']:g}, T0 {p['t0_rows']} rows, "
              f"{p['tokens']} token(s), flash pages/token "
              f"{p['flash_pages_per_token']} vs page cache "
              f"{p['page_cache_capacity']}, {p['statements_per_round']} "
              f"stmts/round x {p['rounds']} rounds, clients x slots "
              f"{p['clients_x_slots']}, calib {p['calib_ms']:.2f} ms")
    for section in ("end_to_end", "per_layer"):
        if section not in results[workloads[0]]:
            continue
        print(f"\n{section:44s}" + "".join(f"{w:>16s}" for w in workloads))
        for metric in spec[section]:
            name = metric["name"]
            cells = "".join(
                f"{results[w][section]['metrics'][name]['value']:>16.6g}"
                for w in workloads)
            print(f"{name + ' [' + metric['unit'] + ']':44s}{cells}")


def failed_total(results) -> int:
    return sum(r["failed"] for per in results.values() for r in per.values())


def _noisy(first, second, workload: str, name: str, bound: float) -> bool:
    """Whether either set's per-round values of a wall metric spread
    (inter-quartile, as a share of the median) wider than its bound."""
    from perfbench.harness import quartiles
    for results in (first, second):
        values = results[workload]["end_to_end"]["provenance"][
            "samples"].get(name, [])
        if len(values) > 1:
            q1, q2, q3 = quartiles(values)
            if q2 and (q3 - q1) / q2 > bound:
                return True
    return False


def check_repeat(args, spec) -> int:
    """Two complete sets on the same code: simulated and count metrics
    must be bit-equal, wall medians must agree within their bound."""
    from perfbench.harness import same_exact

    args.trace = 1
    first, second = run_set(args, spec), run_set(args, spec)
    print_set(first, spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bad = 0
    print("\nA/A: two sets of runs of the same code")
    print(f"{'workload':15s}{'metric':22s}{'A':>14s}{'B':>14s}"
          f"{'worse by':>10s}{'bound':>8s}  verdict")
    for workload in first:
        a = first[workload]["end_to_end"]["metrics"]
        b = second[workload]["end_to_end"]["metrics"]
        for name in bounds:
            va, vb = a[name]["value"], b[name]["value"]
            if name in WALL_METRICS:
                worse = (vb - va) / va if better[name] == "lower" \
                    else (va - vb) / va
                ok = abs(worse) <= bounds[name]
                verdict = "ok" if ok else "DISAGREE"
                if _noisy(first, second, workload, name, bounds[name]):
                    verdict += " (unresolved: per-round spread > bound)"
            else:
                ok = same_exact(va, vb, a[name]["unit"])
                worse = 0.0 if ok else float("nan")
                verdict = "exact" if ok else "NOT EQUAL"
            bad += 0 if ok else 1
            print(f"{workload:15s}{name:22s}{va:>14.6g}{vb:>14.6g}"
                  f"{worse:>10.2%}{bounds[name]:>8.0%}  {verdict}")
        la = first[workload]["per_layer"]["metrics"]
        lb = second[workload]["per_layer"]["metrics"]
        exact_layers = exact_layer_metrics(
            spec, first[workload]["per_layer"]["provenance"]["concurrent"])
        drift = [n for n in exact_layers if not same_exact(
            la[n]["value"], lb[n]["value"], la[n]["unit"])]
        for name in drift:
            print(f"{workload:15s}{name}: {la[name]['value']!r} != "
                  f"{lb[name]['value']!r}  NOT EQUAL")
        bad += len(drift)
        print(f"{workload:15s}{len(exact_layers) - len(drift)} of "
              f"{len(exact_layers)} exact per-layer counts bit-equal")
    bad += failed_total(first) + failed_total(second)
    print("A/A " + ("passed" if bad == 0 else f"FAILED ({bad} problems)"))
    return 0 if bad == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run this one workload in this process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measure whole rounds until this much time passed")
    ap.add_argument("--rounds", type=int, default=None,
                    help="measure exactly this many rounds instead")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also (or, with --workload, "
                    "instead) run the traced per-layer pass")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies row counts and statement counts")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run two complete sets and compare them")
    args = ap.parse_args(argv)
    if args.workload:
        return run_one(args)
    if args.check_repeat:
        return check_repeat(args, spec)
    results = run_set(args, spec)
    print_set(results, spec)
    bad = failed_total(results)
    print(f"\nfailed operations: {bad}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
