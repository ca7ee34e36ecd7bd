"""Set-up, verification, timed rounds and metric assembly.

Protocol, per workload (one fresh process per run):

1. set-up, repeated ``SETUPS`` times (``setup_s`` is the median);
2. one untimed verify pass: the whole statement list runs once, every
   distinct read is compared with ``db.reference_query()`` and its
   ``(row count, crc32)`` is recorded;
3. timed rounds with tracing off (``gc.collect()`` before each, GC left
   on) until ``--seconds`` have passed, at least ``MIN_ROUNDS``; every
   statement must reproduce the recorded signature.  A wall metric is
   the **median over rounds of the per-round value**; a simulated
   metric is taken from round 1 and must be equal in every round;
4. with tracing on, instead of (3): one untimed round, then one traced
   round -- the per-layer numbers and the tracing overhead;
5. leak audit, secure-RAM and admission-ledger checks; each violation
   counts as one failed operation.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RamExhausted
from repro.hardware.channel import UsbChannel

from perfbench import trace as tracing
from perfbench.workloads import (T0_ROW_BYTES, WORKLOADS, Op, Outcome,
                                 Workload)

SETUPS = 3
MIN_ROUNDS = 5
RAM_BUDGET = 65536
#: tolerances for "equal" simulated seconds: the cost ledger
#: accumulates floats, so the same statements summed from a different
#: running total -- a later round, or another interleaving of 8
#: outstanding statements -- differ in the last bits
SIM_RTOL, SIM_ATOL = 1e-9, 1e-12
SIM_LABELS = ("Vis", "CI", "Merge", "SJoin", "Bloom", "Store", "Project",
              "Sort", "Dml", "Compact")
LAYERS = ("sql", "core", "index", "storage", "flash", "untrusted",
          "service", "persist", "shard", "client")


# ----------------------------------------------------------------------
# small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate() -> float:
    """Milliseconds a fixed pure-Python kernel takes on this runner
    (best of five): dict/list/int work shaped like the engine's."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(60000):
            table[i & 1023] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        sorted(table.values())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def same_exact(a: float, b: float, unit: str) -> bool:
    """Whether two runs' values of a simulated or count metric agree:
    counts bit for bit, simulated seconds to the last few bits."""
    if unit == "sim_s":
        return math.isclose(a, b, rel_tol=SIM_RTOL, abs_tol=SIM_ATOL)
    return a == b


def signature(rows: Sequence[Tuple]) -> Tuple[int, int]:
    return len(rows), zlib.crc32(repr(rows).encode())


# ----------------------------------------------------------------------
# output verification
# ----------------------------------------------------------------------
class Verifier:
    """Learns each read's signature in the verify pass (checking it
    against the oracle), then holds every later execution to it."""

    def __init__(self) -> None:
        self.expected: Dict[Tuple, Tuple[int, int]] = {}
        self.learning = True
        self._pending: Dict[Tuple, Tuple[Op, List[Tuple]]] = {}

    def check(self, op: Op, rows: List[Tuple],
              reference: Optional[Callable[[Op], List[Tuple]]]) -> bool:
        """Whether ``rows`` is the right answer to ``op``."""
        sig = signature(rows)
        known = self.expected.get(op.key)
        if known is not None:
            return sig == known
        if not self.learning:
            return False
        self.expected[op.key] = sig
        if reference is None:
            self._pending[op.key] = (op, rows)
            return True
        return _same_rows(rows, reference(op), op.ordered)

    def resolve(self, reference: Callable[[Op], List[Tuple]]) -> int:
        """Oracle-check the reads whose check was deferred (the service
        workload: no oracle access while the server runs); returns the
        number of wrong answers."""
        wrong = sum(
            0 if _same_rows(rows, reference(op), op.ordered) else 1
            for op, rows in self._pending.values())
        self._pending = {}
        return wrong


def _same_rows(rows, expected, ordered: bool) -> bool:
    rows = [tuple(r) for r in rows]
    expected = [tuple(r) for r in expected]
    return rows == expected if ordered else sorted(rows) == sorted(expected)


# ----------------------------------------------------------------------
# one round's measurements
# ----------------------------------------------------------------------
class RoundLog:
    """Per-statement measurements of one pass over the statement list."""

    def __init__(self, n_ops: int) -> None:
        self.latency_s: List[Optional[float]] = [None] * n_ops
        self.outcomes: List[Optional[Outcome]] = [None] * n_ops
        self.failures: List[str] = []
        self.wall_s = 0.0
        self.counters: Dict[str, float] = {}
        #: the service workload's server-side counters after the round
        self.server: Dict[str, Any] = {}
        #: flash pages holding data on all tokens as the round ended
        self.flash_pages = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    @property
    def correct(self) -> int:
        return self.attempted - len(self.failures)

    def good_latencies_ms(self) -> List[float]:
        return [s * 1e3 for s in self.latency_s if s is not None]

    def sim_total_s(self) -> float:
        return sum(o.sim_s for o in self.outcomes if o is not None)

    def ram_peak_max(self) -> int:
        return max((o.ram_peak for o in self.outcomes if o is not None),
                   default=0)


def _counters(wl: Workload) -> Dict[str, float]:
    """Exact counters of every layer, summed over the tokens."""
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for token in wl.tokens():
        for label, seconds in token.ledger.by_label_s().items():
            add("sim_s." + label, seconds)
        for key in ("pages_read", "pages_written", "blocks_erased",
                    "bytes_to_ram"):
            add(key, token.ledger.counters.get(key, 0))
        ch = token.channel.stats
        add("bytes_to_secure", ch.bytes_to_secure)
        add("bytes_to_untrusted", ch.bytes_to_untrusted)
        add("msgs_to_untrusted", ch.messages_to_untrusted)
        cache = token.store.cache_stats()
        add("cache_hits", cache["hits"])
        add("cache_misses", cache["misses"])
        add("mapped_pages", token.ftl.mapped_pages())
        add("gc_pages_moved", token.ftl.gc_pages_moved)
        add("read_retries", token.nand.read_retries)
    hits, misses = wl.plan_cache_counts()
    out["plan_hits"], out["plan_misses"] = hits, misses
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Harness:
    """One workload's run, in stages a test can drive one at a time."""

    def __init__(self, workload: str, seed: int, scale: float,
                 workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.wl: Workload = WORKLOADS[workload](seed, scale, workdir)
        self.verifier = Verifier()
        self.setup_s: List[float] = []
        self.rounds: List[RoundLog] = []
        self.traced: Optional[RoundLog] = None
        self.direct: Optional[RoundLog] = None
        self.tracer: Optional[tracing.Tracer] = None
        self.violations: List[str] = []
        self.calib_ms = calibrate()
        self.measured_s = 0.0

    # -- stages ----------------------------------------------------------
    def setup(self, times: int = SETUPS) -> None:
        for _ in range(times):
            gc.collect()
            t0 = time.perf_counter()
            self.wl.setup()
            self.setup_s.append(time.perf_counter() - t0)

    def verify(self) -> RoundLog:
        """The untimed verify / warm-up pass."""
        log = self._round()
        self.verifier.learning = False
        for failure in log.failures:
            self.violations.append("verify pass: " + failure)
        return log

    def measure(self, seconds: float, rounds: Optional[int] = None) -> None:
        """Timed rounds, tracing off."""
        start = time.perf_counter()
        while True:
            gc.collect()
            self.rounds.append(self._round())
            self.measured_s = time.perf_counter() - start
            if rounds is not None:
                if len(self.rounds) >= rounds:
                    break
            elif (self.measured_s >= seconds
                  and len(self.rounds) >= MIN_ROUNDS):
                break
        self._check_rounds_equal()

    def measure_traced(self) -> None:
        """One plain round, one traced round and, for the service
        workload, one in-process replay of the same list."""
        gc.collect()
        self.rounds.append(self._round())
        self.tracer = tracing.Tracer()
        self.tracer.install()
        try:
            gc.collect()
            self.traced = self._round(tracer=self.tracer)
        finally:
            self.tracer.uninstall()
        if self.wl.concurrent:
            gc.collect()
            self.direct = self._round(direct=True)
        self._check_rounds_equal()

    def finish(self) -> None:
        """Audit, RAM and ledger checks; then drop the database."""
        wl = self.wl
        for i, token in enumerate(wl.tokens()):
            kinds = {m.kind for m in token.channel.audit_outbound()}
            extra = kinds - UsbChannel.SAFE_OUTBOUND_KINDS
            if extra:
                self.violations.append(
                    f"token {i}: unsafe outbound kinds {sorted(extra)}")
            try:
                token.ram.assert_all_freed()
            except RamExhausted as exc:
                self.violations.append(f"token {i}: {exc}")
        for log in self._all_rounds():
            admission = log.server.get("admission")
            if admission and (admission["reserved_now"]
                              or admission["queue_depth"]):
                self.violations.append(
                    f"admission ledger unbalanced: {admission}")
        peak = max((r.ram_peak_max() for r in self._all_rounds()), default=0)
        if peak > RAM_BUDGET:
            self.violations.append(
                f"ram_peak {peak} exceeds the {RAM_BUDGET}-byte budget")
        self.sizes = wl.describe()
        self.image_bytes = wl.image_bytes()
        wl.finish()

    # -- one pass ----------------------------------------------------------
    def _round(self, tracer=None, direct: bool = False) -> RoundLog:
        wl = self.wl
        wl.begin_round()
        log = RoundLog(len(wl.ops))
        inline = direct or not wl.concurrent
        reference = wl.reference_rows if inline else None

        def record(i: int, op: Op, dt: float, outcome: Optional[Outcome],
                   error: Optional[Exception]) -> None:
            if error is not None:
                log.failures.append(
                    f"#{i} {op.kind}: {type(error).__name__}: {error}")
                return
            log.outcomes[i] = outcome
            if op.key is not None and not self.verifier.check(
                    op, outcome.rows, reference):
                log.failures.append(
                    f"#{i} {op.template}{op.params}: wrong rows "
                    f"{signature(outcome.rows)}")
                return
            log.latency_s[i] = dt

        before = _counters(wl) if not direct else {}
        if direct:
            log.wall_s = wl.run_round_direct(record)
        else:
            log.wall_s = wl.run_round(record, tracer)
        if not inline:
            wrong = self.verifier.resolve(wl.reference_rows)
            log.failures += ["deferred oracle check: wrong rows"] * wrong
        if not direct:
            log.counters = _delta(_counters(wl), before)
            log.server = dict(getattr(wl, "server_stats", {}))
            log.flash_pages = sum(t.ftl.mapped_pages() for t in wl.tokens())
        return log

    def _all_rounds(self) -> List[RoundLog]:
        extra = [r for r in (self.traced,) if r is not None]
        return self.rounds + extra

    def _check_rounds_equal(self) -> None:
        """Simulated numbers must not depend on the round."""
        logs = self._all_rounds()
        first = logs[0]
        for n, log in enumerate(logs[1:], start=2):
            if not math.isclose(log.sim_total_s(), first.sim_total_s(),
                                rel_tol=SIM_RTOL):
                self.violations.append(
                    f"round {n}: simulated seconds {log.sim_total_s()!r} "
                    f"differ from round 1 {first.sim_total_s()!r}")
            if self.wl.mutating and log.flash_pages != first.flash_pages:
                self.violations.append(
                    f"round {n}: {log.flash_pages} flash pages in use, "
                    f"round 1 ended with {first.flash_pages}")
            if log.ram_peak_max() != first.ram_peak_max():
                self.violations.append(
                    f"round {n}: ram_peak {log.ram_peak_max()} differs "
                    f"from round 1 {first.ram_peak_max()}")

    # -- results -----------------------------------------------------------
    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self._all_rounds())

    @property
    def failed(self) -> int:
        return (sum(len(r.failures) for r in self._all_rounds())
                + len(self.violations))

    def failure_messages(self) -> List[str]:
        out = list(self.violations)
        for n, log in enumerate(self._all_rounds(), start=1):
            out += [f"round {n}: {f}" for f in log.failures]
        return out

    def wall_samples(self) -> Dict[str, List[float]]:
        """Per-round values of the wall metrics (printed with their
        quartiles; the reported values are denoised, see below)."""
        rounds = self.rounds
        return {
            "stmt_per_s": [r.correct / r.wall_s for r in rounds],
            "wall_ms_p50": [percentile(r.good_latencies_ms(), 0.50)
                            for r in rounds],
            "wall_ms_p95": [percentile(r.good_latencies_ms(), 0.95)
                            for r in rounds],
        }

    def best_latencies_ms(self) -> List[float]:
        """Per list position, the fastest execution of that statement.

        The sandbox's speed swings by tens of percent over seconds, and
        such noise only ever adds time: the minimum is the steadiest
        estimate of what a statement costs (README, "Why the minimum").
        A read whose answer does not depend on the writes around it is
        the same statement wherever it stands in the list, so all its
        executions -- every repetition in every round -- share one
        minimum; any other statement has one execution per round."""
        ops = self.wl.ops
        classes = [op.key if op.key is not None else i
                   for i, op in enumerate(ops)]
        best: Dict[Any, float] = {}
        for log in self.rounds:
            for cls, latency in zip(classes, log.latency_s):
                if latency is not None and latency < best.get(cls, math.inf):
                    best[cls] = latency
        return [best[cls] * 1e3 for cls in classes if cls in best]

    def end_to_end(self) -> Dict[str, float]:
        first = self.rounds[0]
        samples = self.wall_samples()
        if self.wl.concurrent:
            # overlapping statements: what one costs depends on what it
            # queued behind, so there is no per-statement minimum to
            # take.  Latencies are the median over rounds of the
            # per-round percentile; throughput is the rounds' upper
            # quartile, which discounts slow stretches without resting
            # on one lucky interleaving.
            stmt_per_s = quartiles(samples["stmt_per_s"])[2]
            p50 = statistics.median(samples["wall_ms_p50"])
            p95 = statistics.median(samples["wall_ms_p95"])
        else:
            # one closed-loop caller: a round's wall is its latencies' sum
            best = self.best_latencies_ms()
            stmt_per_s = len(best) / (sum(best) / 1e3)
            p50, p95 = percentile(best, 0.50), percentile(best, 0.95)
        return {
            "setup_s": statistics.median(self.setup_s),
            "stmt_per_s": stmt_per_s,
            "wall_ms_p50": p50,
            "wall_ms_p95": p95,
            "sim_s_per_stmt": first.sim_total_s() / first.attempted,
            "ram_peak_max_bytes": float(first.ram_peak_max()),
            # after round 1, not the last: a round that leaves pages
            # behind would otherwise make this depend on how many
            # rounds fit into the measured time
            "flash_pages_used": float(first.flash_pages),
            "host_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_share": 1.0 - self.failed / max(1, self.attempted),
        }

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric: exact counts from the untraced
        round's counter deltas, wall self-times from the traced one."""
        wl = self.wl
        plain, traced = self.rounds[0], self.traced
        n = plain.attempted
        c = plain.counters
        summary = tracing.summarize(self.tracer.all_spans())
        names = summary["names"]
        stmts = max(1, summary["statements"])

        def total_ms(*keys: str) -> float:
            return sum(names[k].total_s for k in keys if k in names) * 1e3

        def self_ms(*keys: str) -> float:
            return sum(names[k].self_s for k in keys if k in names) * 1e3

        def calls(*keys: str) -> int:
            return sum(names[k].calls for k in keys if k in names)

        def per_call_us(*keys: str) -> float:
            return total_ms(*keys) * 1e3 / max(1, calls(*keys))

        outcomes = [o for o in plain.outcomes if o is not None]
        reads = [o for o in outcomes if o.rows is not None]
        dml = [op for op in wl.ops if op.kind in ("insert", "delete")]
        inserts = sum(1 for op in wl.ops if op.kind == "insert")
        progress = [o.progress for o in outcomes if o.progress is not None]
        steps = sum(p.steps_run for p in progress)
        waits_ms = [o.admission_wait_s * 1e3 for o in outcomes
                    if o.admission_wait_s is not None]
        claims = [o.ram_claim / o.ram_peak for o in reads
                  if o.ram_claim and o.ram_peak]
        scattered = [o for o in outcomes if len(o.shard_total_s) > 1]
        admission = plain.server.get("admission", {})
        service = plain.server.get("service", {})
        fragments_ms = total_ms("core.execute_fragment") + (
            total_ms("core.execute_plan") if wl.shards > 1 else 0.0)
        lookups = max(1, calls("index.lookup"))
        plan_lookups = c["plan_hits"] + c["plan_misses"]

        m: Dict[str, float] = {
            "sql.parse_us_per_stmt": total_ms("sql.parse") * 1e3 / stmts,
            "sql.bind_us_per_stmt": self_ms("sql.bind") * 1e3 / stmts,
            "core.plan_us_per_stmt": total_ms(
                "core.plan_for", "shard.plan_for") * 1e3 / stmts,
            "core.plan_cache_hit_ratio":
                c["plan_hits"] / plan_lookups if plan_lookups else 0.0,
            "core.exec_ms_per_stmt": total_ms(
                "core.execute_plan", "core.execute_fragment") / stmts,
            "core.qepsj_ms_per_stmt": self_ms("core.qepsj") / stmts,
            "core.project_ms_per_stmt": self_ms("core.project") / stmts,
            "core.sort_ms_per_stmt": self_ms("core.sort") / stmts,
            "core.dml_ms_per_stmt": total_ms("core.dml") / max(1, len(dml)),
            "core.compact_ms_per_step": total_ms(
                "core.compact", "shard.compact") / max(1, steps),
            "core.compact_max_pause_sim_s": max(
                (p.max_step_us for p in progress), default=0.0) / 1e6,
            "core.compaction_restarts": float(max(
                (p.restarts for p in progress), default=0)),
            "core.compaction_pages_rewritten": float(max(
                (p.pages_rewritten for p in progress), default=0)),
            "index.lookup_us_per_call": per_call_us("index.lookup"),
            "index.lookups_per_stmt": calls("index.lookup") / stmts,
            "index.pages_read_per_lookup": summary["children"].get(
                ("index.lookup", "flash.read_page"), 0) / lookups,
            "index.bloom_us_per_stmt": total_ms("index.bloom") * 1e3 / stmts,
            "storage.setops_ms_per_stmt": total_ms("storage.setops") / stmts,
            "storage.codec_ms_per_stmt": total_ms("storage.codec") / stmts,
            "storage.bytes_to_ram_per_result_row": c["bytes_to_ram"] / max(
                1, sum(o.result_rows for o in reads)),
            "flash.read_page_us_per_call": per_call_us("flash.read_page"),
            "flash.read_page_calls_per_stmt":
                (c["cache_hits"] + c["cache_misses"]) / n,
            "flash.pages_read_per_stmt": c["pages_read"] / n,
            "flash.pages_written_per_stmt": c["pages_written"] / n,
            "flash.blocks_erased_per_stmt": c["blocks_erased"] / n,
            "flash.pages_grown_per_stmt": c["mapped_pages"] / n,
            "flash.gc_pages_moved": c["gc_pages_moved"],
            "flash.read_retries": c["read_retries"],
            "flash.page_cache_hit_ratio": c["cache_hits"] / max(
                1, c["cache_hits"] + c["cache_misses"]),
            "flash.write_amp":
                c["pages_written"] * self.sizes["page_bytes"] / (
                    inserts * T0_ROW_BYTES) if inserts else 0.0,
            "hardware.bytes_to_secure_per_stmt": c["bytes_to_secure"] / n,
            "hardware.bytes_to_untrusted_per_stmt":
                c["bytes_to_untrusted"] / n,
            "hardware.msgs_to_untrusted_per_stmt":
                c["msgs_to_untrusted"] / n,
            "hardware.ram_peak_p50_bytes": statistics.median(
                o.ram_peak for o in outcomes),
            "untrusted.vis_us_per_call": per_call_us("untrusted.vis"),
            "untrusted.vis_calls_per_stmt": calls("untrusted.vis") / stmts,
            "service.admission_wait_ms_p50": percentile(waits_ms, 0.50),
            "service.admission_wait_ms_p95": percentile(waits_ms, 0.95),
            "service.queued_share": admission.get("queued_total", 0) / max(
                1, admission.get("admitted", 0)),
            "service.max_coadmitted": float(
                admission.get("max_coadmitted", 0)),
            "service.claim_underruns": float(
                service.get("claim_underruns", 0)),
            "service.ram_claim_over_peak_p50": percentile(claims, 0.50),
            "service.snapshot_retries": float(
                service.get("snapshot_retries", 0)),
            "service.frame_codec_us_per_stmt": total_ms(
                "service.encode_frame", "service.decode_frame") * 1e3 / stmts,
            "service.wire_bytes_per_stmt":
                self.tracer.wire_bytes / stmts,
            "service.tax_ratio": (
                percentile(plain.good_latencies_ms(), 0.50)
                / percentile(self.direct.good_latencies_ms(), 0.50)
            ) if self.direct is not None else 0.0,
            "persist.snapshot_s": wl.snapshot_s,
            "persist.restore_ms": statistics.median(
                wl.restore_s) * 1e3 if wl.restore_s else 0.0,
            "persist.first_stmt_after_restore_ms": statistics.median(
                r.latency_s[0] * 1e3 for r in self.rounds
                if r.latency_s[0] is not None) if wl.mutating else 0.0,
            "persist.image_bytes": float(self.image_bytes),
            "shard.fragment_ms_per_stmt":
                fragments_ms / stmts if wl.shards > 1 else 0.0,
            "shard.gather_ms_per_stmt": total_ms("shard.gather") / stmts,
            "shard.fleet_self_ms_per_stmt": self_ms("shard.execute") / stmts,
            "shard.makespan_skew": statistics.fmean(
                max(o.shard_total_s) / statistics.fmean(o.shard_total_s)
                for o in scattered) if scattered else 0.0,
            "shard.gather_sim_s_per_stmt":
                sum(o.gather_sim_s for o in outcomes) / n,
            "perfbench.calib_ms": self.calib_ms,
            "perfbench.trace_overhead_ratio": traced.wall_s / plain.wall_s,
            "perfbench.trace_self_gap": summary["worst_self_gap"],
        }
        labelled = 0.0
        for label in SIM_LABELS:
            value = c.get("sim_s." + label, 0.0) / n
            m["core.sim_s." + label] = value
            labelled += value
        total = sum(v for k, v in c.items() if k.startswith("sim_s.")) / n
        m["core.sim_s.other"] = max(0.0, total - labelled)
        for layer in LAYERS:
            m["self_ms_per_stmt." + layer] = \
                summary["layers"].get(layer, 0.0) * 1e3 / stmts
        return m
