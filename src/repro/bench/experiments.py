"""Experiment drivers: one function per paper table/figure.

Every function returns a list of plain dict rows (one per plotted
point) so benchmarks, tests and scripts can consume them uniformly.
``format_table`` renders them the way the paper's figures are read.

Reported times are *simulated* device times derived from I/O and
communication counts (exactly the paper's methodology -- its simulator
was I/O-accurate, not cycle-accurate).  The default data scale is 1/100
of the paper's synthetic set (T0 = 100K tuples) and 1/10 of the medical
set; shapes, orderings and crossover points are preserved.
"""

from __future__ import annotations

from math import fsum
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.core.ghostdb import GhostDB
from repro.core.merge import MergeOperator
from repro.errors import PlanError
from repro.flash.constants import PAGE_SIZE
from repro.hardware.ram import SecureRam
from repro.hardware.token import SecureToken, TokenConfig
from repro.index.bloom import BloomFilter, false_positive_rate
from repro.index.sizing import IndexSizingModel, TableSpec
from repro.storage.runs import IdRun, write_u32s
from repro.workloads.medical import (
    MedicalConfig,
    PAPER_CARDINALITIES as MEDICAL_CARDS,
    build_medical,
    top_k_bmi_query,
)
from repro.workloads.queries import (
    medical_query_q,
    query_q,
    query_q_projections,
    query_q_with_hidden_projection,
)
from repro.workloads.synthetic import (
    H_DOMAIN,
    PAPER_CARDINALITIES as SYN_CARDS,
    SyntheticConfig,
    V_DOMAIN,
    build_synthetic,
)

#: figures sweep the Visible selectivity on a log axis (paper x-axis)
SV_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5)

#: both data sets are scaled by 1/100 so the paper's
#: root-table ratio (10M vs 1.3M tuples) -- and with it Figure 16's
#: "roughly 1/10 of the synthetic time" observation -- is preserved
SYN_SCALE = 0.01
MED_SCALE = 0.01


class Table(NamedTuple):
    """One golden table under ``results/``: what computes it, from what."""

    title: str
    runner: Callable[..., List[Dict]]
    needs: Tuple[str, ...]      # shared DATABASES it takes, in argument order
    json_of: Optional[Callable[[List[Dict]], Dict]]     # rows -> <name>.json


#: table name (= file stem under ``results/``) -> its :class:`Table`;
#: ``repro.bench.report`` writes from it, ``benchmarks/`` compares by it
TABLES: Dict[str, Table] = {}


def table(name: str, title: str, needs: Tuple[str, ...] = (), json_of=None):
    """Register the decorated driver as the runner of ``results/<name>``."""
    def register(runner):
        TABLES[name] = Table(title, runner, needs, json_of)
        return runner
    return register


def build_bench_synthetic() -> GhostDB:
    """The synthetic data set at the benchmark scale."""
    return build_synthetic(SyntheticConfig(scale=SYN_SCALE))


def build_bench_medical() -> GhostDB:
    """The medical data set at the benchmark scale."""
    return build_medical(MedicalConfig(scale=MED_SCALE))


#: the read-only databases the figure drivers share, built once per run
DATABASES: Dict[str, Callable[[], GhostDB]] = {
    "syn": build_bench_synthetic,
    "med": build_bench_medical,
}


def format_table(rows: Sequence[Dict], title: str = "") -> str:
    """Render experiment rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    keys = list(rows[0].keys())
    widths = {
        k: max(len(str(k)),
               *(len(_fmt(r.get(k))) for r in rows))
        for k in keys
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(k)).ljust(widths[k])
                               for k in keys))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _timed(db: GhostDB, sql: str, **kwargs) -> float:
    return db.execute(sql, **kwargs).stats.total_s


# ---------------------------------------------------------------------------
# Figure 7 + section 6.3: index storage cost
# ---------------------------------------------------------------------------

def synthetic_sizing_model() -> IndexSizingModel:
    """Paper-scale synthetic schema for the analytic sizing model."""
    return IndexSizingModel([
        TableSpec("T0", SYN_CARDS["T0"], None, [10] * 5, [10] * 5),
        TableSpec("T1", SYN_CARDS["T1"], "T0", [10] * 5, [10] * 5),
        TableSpec("T2", SYN_CARDS["T2"], "T0", [10] * 5, [10] * 5),
        TableSpec("T11", SYN_CARDS["T11"], "T1", [10] * 5, [10] * 5),
        TableSpec("T12", SYN_CARDS["T12"], "T1", [10] * 5, [10] * 5),
    ])


def real_sizing_model() -> IndexSizingModel:
    """Paper-scale medical schema for the analytic sizing model."""
    return IndexSizingModel([
        TableSpec("Measurements", MEDICAL_CARDS["Measurements"], None,
                  [10, 10, 100], []),
        TableSpec("Patients", MEDICAL_CARDS["Patients"], "Measurements",
                  [20, 2, 2, 20, 6], [20, 10, 50, 10, 4]),
        TableSpec("Drugs", MEDICAL_CARDS["Drugs"], "Measurements",
                  [60], [100]),
        TableSpec("Doctors", MEDICAL_CARDS["Doctors"], "Patients",
                  [20, 60], [20, 20]),
    ], attr_distinct=100_000)


@table("fig07_index_size", "Figure 7: index storage cost (MB), paper scale")
def fig7_index_size() -> List[Dict]:
    """Storage cost (MB) of the four indexation schemes vs #attrs."""
    return synthetic_sizing_model().figure7_rows(range(6))


def section63_real_sizes() -> Dict[str, float]:
    """Section 6.3's real-data index sizes (MB)."""
    return real_sizing_model().real_dataset_sizes(
        {"Patients": 5, "Doctors": 2, "Drugs": 1, "Measurements": 0}
    )


#: the magnitudes section 6.3 reports for the real data set (MB)
PAPER_REAL_SIZES_MB = {"FullIndex": 57, "BasicIndex": 56, "StarIndex": 36,
                       "JoinIndex": 26, "DBSize": 169}


@table("section63_real_sizes", "Section 6.3: real data set index sizes")
def section63_rows() -> List[Dict]:
    """Measured vs paper index sizes, one row per indexation scheme."""
    return [{"scheme": k, "measured_MB": v,
             "paper_MB": PAPER_REAL_SIZES_MB[k]}
            for k, v in section63_real_sizes().items()]


# ---------------------------------------------------------------------------
# Figures 8-11: selections and joins
# ---------------------------------------------------------------------------

def _sv_sweep(db: GhostDB, sql_of, series: Dict[str, Dict],
              sv_grid: Sequence[float]) -> List[Dict]:
    """One row per Visible selectivity, one column of simulated seconds
    per labelled set of ``db.execute`` strategy knobs."""
    return [{"sv": sv, **{label: _timed(db, sql_of(sv), **knobs)
                          for label, knobs in series.items()}}
            for sv in sv_grid]


def _knobs(strategy: str, cross: bool = False, **more) -> Dict:
    return dict(vis_strategy=strategy, cross=cross, **more)


@table("fig08_cross_filtering",
       "Figure 8: Filtering vs Cross-Filtering (seconds, sH=0.1)", ("syn",))
def fig8_cross_filtering(db: GhostDB,
                         sv_grid: Sequence[float] = SV_GRID) -> List[Dict]:
    """Pre vs Cross-Pre and Post vs Cross-Post (sH = 0.1)."""
    return _sv_sweep(db, query_q, {
        "Pre-Filter": _knobs("pre"),
        "Cross-Pre-Filter": _knobs("pre", True),
        "Post-Filter": _knobs("post"),
        "Cross-Post-Filter": _knobs("post", True),
    }, sv_grid)


@table("fig09_crosspre_vs_crosspost",
       "Figure 9: Cross-Pre vs Cross-Post (seconds, sH=0.1)", ("syn",))
def fig9_crosspre_vs_crosspost(db: GhostDB,
                               sv_grid: Sequence[float] = SV_GRID
                               ) -> List[Dict]:
    """Cross-Pre vs Cross-Post across the Visible selectivity grid."""
    return _sv_sweep(db, query_q, {
        "Cross-Pre-Filter": _knobs("pre", True),
        "Cross-Post-Filter": _knobs("post", True),
    }, sv_grid)


@table("fig10_pre_vs_post",
       "Figure 10: Pre vs Post-Filtering, no Cross (seconds)", ("syn",))
def fig10_pre_vs_post(db: GhostDB,
                      sv_grid: Sequence[float] = SV_GRID) -> List[Dict]:
    """Pre vs Post without the Cross optimization, plus NoFilter, plus
    the cost-based optimizer's pick (no knobs) for comparison."""
    return _sv_sweep(db, query_q, {
        "Pre-Filter": _knobs("pre"),
        "Post-Filter": _knobs("post"),
        "NoFilter": _knobs("nofilter"),
        "Auto": {},
    }, sv_grid)


# ---------------------------------------------------------------------------
# cost-based optimizer: differential sweep (PR-3 harness)
# ---------------------------------------------------------------------------

#: every candidate the optimizer weighs: the four strategies, Crossed
#: and unCrossed
ALL_STRATEGIES = tuple(
    (strategy, cross)
    for strategy in ("pre", "post", "post-select", "nofilter")
    for cross in (False, True)
)


def optimizer_differential(db: GhostDB, sql_of,
                           sv_grid: Sequence[float] = SV_GRID,
                           check_rows: bool = False) -> List[Dict]:
    """Run *every* strategy plus the auto plan at each selectivity.

    Returns one row per grid point carrying each forced strategy's
    measured simulated time, the auto plan's time and pick, the best
    hand-picked time, and ``auto_ratio = auto / best`` -- the quantity
    the differential test harness bounds by 1.25.  ``check_rows=True``
    additionally asserts every strategy returns oracle-identical rows.
    """
    rows = []
    for sv in sv_grid:
        sql = sql_of(sv)
        expected = (sorted(db.reference_query(sql)[1])
                    if check_rows else None)
        row: Dict = {"sv": sv}
        best = None
        for strategy, cross in ALL_STRATEGIES:
            result = db.execute(sql, vis_strategy=strategy, cross=cross)
            if check_rows and sorted(result.rows) != expected:
                raise AssertionError(
                    f"{strategy}/cross={cross} at sv={sv}: rows diverge "
                    f"from the reference oracle"
                )
            key = ("Cross-" if cross else "") + strategy
            row[key] = result.stats.total_s
            best = (result.stats.total_s if best is None
                    else min(best, result.stats.total_s))
        auto = db.execute(sql)
        if check_rows and sorted(auto.rows) != expected:
            raise AssertionError(f"auto plan at sv={sv}: rows diverge "
                                 f"from the reference oracle")
        picked = auto.plan.vis_plans[
            next(t for t in auto.plan.vis_plans
                 if t != auto.plan.bound.anchor)
        ] if len(auto.plan.vis_plans) > 1 else None
        row["Auto"] = auto.stats.total_s
        row["auto_pick"] = picked.describe() if picked else "-"
        row["best"] = best
        row["auto_ratio"] = auto.stats.total_s / best if best else 1.0
        rows.append(row)
    return rows


@table("fig11_post_alternatives",
       "Figure 11: Post-Filter vs Post-Select (seconds)", ("syn",))
def fig11_post_alternatives(db: GhostDB,
                            sv_grid: Sequence[float] = SV_GRID
                            ) -> List[Dict]:
    """Bloom Post-Filter vs exact Post-Select (plain and Cross)."""
    return _sv_sweep(db, query_q, {
        "Post-Filter": _knobs("post"),
        "Post-Select": _knobs("post-select"),
        "Cross-Post-Filter": _knobs("post", True),
        "Cross-Post-Select": _knobs("post-select", True),
    }, sv_grid)


# ---------------------------------------------------------------------------
# Figures 12-13: projections
# ---------------------------------------------------------------------------

def _projection_rows(db: GhostDB, strategy: str,
                     sv_grid: Sequence[float]) -> List[Dict]:
    return _sv_sweep(db, query_q_with_hidden_projection, {
        "Project": _knobs(strategy, True, projection="project"),
        "Project-NoBF": _knobs(strategy, True, projection="project-nobf"),
        "Brute-Force": _knobs(strategy, True, projection="brute-force"),
    }, sv_grid)


@table("fig12_project_crosspre",
       "Figure 12: projecting in Cross-Pre execution (seconds)", ("syn",))
def fig12_project_crosspre(db: GhostDB,
                           sv_grid: Sequence[float] = SV_GRID
                           ) -> List[Dict]:
    """Projection algorithms under a Cross-Pre-Filter execution."""
    return _projection_rows(db, "pre", sv_grid)


@table("fig13_project_crosspost",
       "Figure 13: projecting in Cross-Post execution (seconds)", ("syn",))
def fig13_project_crosspost(db: GhostDB,
                            sv_grid: Sequence[float] = SV_GRID
                            ) -> List[Dict]:
    """Projection algorithms under a Cross-Post-Filter execution
    (exercises Bloom false-positive elimination)."""
    return _projection_rows(db, "post", sv_grid)


# ---------------------------------------------------------------------------
# ordering: external sort vs top-k heap vs index order (PR-4 subsystem)
# ---------------------------------------------------------------------------

#: LIMIT sweep for the ranked-retrieval experiment; None = full ranking
TOPK_GRID: Sequence[Optional[int]] = (1, 10, 100, None)

ORDER_METHODS = ("external-sort", "top-k-heap", "index-order")


@table("sort_topk",
       "Ordered retrieval: per-method cost vs LIMIT k (seconds)", ("med",))
def sort_topk(db: GhostDB,
              k_grid: Sequence[Optional[int]] = TOPK_GRID) -> List[Dict]:
    """Ordered retrieval cost per execution method across LIMIT k.

    Runs the medical top-k BMI query with each ordering method forced
    (methods a query cannot use -- e.g. top-k without a LIMIT -- report
    ``-``), plus the cost-based pick, asserting every method returns
    oracle-identical rows.  The row set mirrors the strategy figures:
    one row per ``k``, one column per method, ``auto_pick`` recording
    the optimizer's choice.
    """
    rows = []
    for k in k_grid:
        sql = top_k_bmi_query(k)
        expected = db.reference_query(sql)[1]
        row: Dict = {"k": k if k is not None else "all"}
        for method in ORDER_METHODS:
            try:
                result = db.execute(sql, order_method=method)
            except PlanError:
                row[method] = "-"
                continue
            if result.rows != expected:
                raise AssertionError(
                    f"{method} at k={k}: rows diverge from the oracle"
                )
            row[method] = result.stats.total_s
        auto = db.execute(sql)
        if auto.rows != expected:
            raise AssertionError(f"auto order plan at k={k} diverges")
        row["Auto"] = auto.stats.total_s
        row["auto_pick"] = auto.plan.order.method.value
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 14: communication throughput
# ---------------------------------------------------------------------------

THROUGHPUTS_MBPS = (0.3, 0.5, 0.75, 1.0, 1.3, 2.0, 3.0, 5.0, 7.5, 10.0)


@table("fig14_throughput",
       "Figure 14: query time vs channel throughput (seconds)", ("syn",))
def fig14_throughput(db: GhostDB,
                     throughputs: Sequence[float] = THROUGHPUTS_MBPS,
                     sv: float = 0.01) -> List[Dict]:
    """Query time vs channel throughput, 1/2/3 projected attributes."""
    rows = []
    original = db.token.channel.throughput_mbps
    try:
        for mbps in throughputs:
            db.set_throughput(mbps)
            row = {"throughput_mbps": mbps}
            for n_attrs in (1, 2, 3):
                sql = query_q_projections(sv, n_attrs)
                row[f"Project{n_attrs}"] = _timed(
                    db, sql, vis_strategy="pre", cross=True
                )
            rows.append(row)
    finally:
        db.set_throughput(original)
    return rows


# ---------------------------------------------------------------------------
# Figures 15-16: cost decomposition
# ---------------------------------------------------------------------------

DECOMPOSITION_OPS = ("Merge", "SJoin", "Store", "Project")
DECOMPOSITION_SV = (0.01, 0.05, 0.2)


def _decomposition(db: GhostDB, sql_of, sv_values) -> List[Dict]:
    rows = []
    for sv in sv_values:
        for strategy, tag in (("pre", "PRE"), ("post", "POST")):
            result = db.execute(sql_of(sv), vis_strategy=strategy,
                                cross=True)
            row = {"config": f"{tag}{int(sv * 100)}"}
            for op in DECOMPOSITION_OPS:
                row[op] = result.stats.operator_s(op)
            # the paper's histograms exclude communication time
            row["total_excl_comm"] = fsum(
                s for label, s in result.stats.by_operator.items()
                if label not in ("Vis", "Plan")
            )
            rows.append(row)
    return rows


@table("fig15_decomposition_synthetic",
       "Figure 15: cost decomposition, synthetic (seconds, "
       "communication excluded)", ("syn",))
def fig15_decomposition_synthetic(db: GhostDB,
                                  sv_values=DECOMPOSITION_SV) -> List[Dict]:
    """Per-operator cost decomposition of query Q (synthetic)."""
    return _decomposition(db, query_q, sv_values)


@table("fig16_decomposition_real",
       "Figure 16: cost decomposition, medical data (seconds, "
       "communication excluded)", ("med",))
def fig16_decomposition_real(db: GhostDB,
                             sv_values=DECOMPOSITION_SV) -> List[Dict]:
    """Per-operator cost decomposition of query Q (medical data)."""
    return _decomposition(db, medical_query_q, sv_values)


@table("fig16_root_size_ratio",
       "Figure 16 check: real vs synthetic total (PRE, sV=0.05)",
       ("syn", "med"))
def fig16_root_size_ratio(syn_db: GhostDB, med_db: GhostDB) -> List[Dict]:
    """The PRE bar at sV=0.05 on both data sets (root 10M vs 1.3M tuples
    at paper scale; both scaled by the same factor here)."""
    bars = {"synthetic": fig15_decomposition_synthetic(syn_db, (0.05,))[0],
            "medical": fig16_decomposition_real(med_db, (0.05,))[0]}
    return [{"dataset": dataset,
             **{k: v for k, v in bar.items() if k != "config"}}
            for dataset, bar in bars.items()]


# ---------------------------------------------------------------------------
# compaction churn: sustained DML with interleaved bounded compaction
# ---------------------------------------------------------------------------

CHURN_BATCHES = 6
CHURN_INSERTS_PER_BATCH = 25
CHURN_STEPS_PER_BATCH = 4


def build_bench_churn() -> GhostDB:
    """A private synthetic instance for the churn driver (it mutates)."""
    return build_synthetic(SyntheticConfig(scale=SYN_SCALE / 2))


def compaction_churn(db: GhostDB, batches: int = CHURN_BATCHES,
                     sv: float = 0.05) -> List[Dict]:
    """Sustained DML on T0 with bounded compaction slices in between.

    Each batch deletes one ``v1`` stripe of the root table, appends
    fresh rows, advances ``db.compact("T0")`` by a few bounded steps,
    and runs query Q -- asserting the result stays oracle-identical
    while the compaction is half-done.  One row per batch reports the
    query's simulated time (and its inverse, queries/sec), the steps
    the slice ran and the *worst single-step pause* -- the number the
    incremental design exists to bound.  A ``final`` row runs the job
    to completion and probes the clean state.
    """
    sql = query_q(sv)

    def compact(**limits):
        """Advance the job; returns its progress and the ``Compact``
        seconds this call spent (a ledger interval)."""
        ledger = db.token.ledger
        before = ledger.snapshot()
        prog = db.compact("T0", **limits)
        spent = ledger.snapshot() - before
        return prog, spent.by_label_s().get("Compact", 0.0)

    def probe(batch, prog, spent_s) -> Dict:
        expected = db.reference_query(sql)[1]
        result = db.execute(sql)
        if sorted(result.rows) != sorted(expected):
            raise AssertionError(
                f"batch {batch}: rows diverge from the oracle with "
                f"compaction {prog.state}"
            )
        return {
            "batch": batch,
            "query_s": result.stats.total_s,
            "queries_per_s": 1.0 / max(result.stats.total_s, 1e-12),
            "compact_steps": prog.steps_run,
            "compact_s": spent_s,
            "max_pause_s": prog.max_step_us / 1e6,
            "restarts": prog.restarts,
            "state": prog.state,
        }

    rows = []
    for b in range(batches):
        db.execute(f"DELETE FROM T0 WHERE T0.v1 = {b}")
        for i in range(CHURN_INSERTS_PER_BATCH):
            db.execute(
                "INSERT INTO T0 VALUES (?, ?, ?, ?, ?)",
                params=(i % 5, i % 7, (b * 37 + i) % V_DOMAIN,
                        (b * 11 + i) % V_DOMAIN, i % H_DOMAIN),
            )
        rows.append(probe(b, *compact(max_steps=CHURN_STEPS_PER_BATCH)))
    rows.append(probe("final", *compact()))
    if any(status.dirty for status in db.compaction_status().values()):
        raise AssertionError("the finished job left compaction debt behind")
    return rows


@table("compaction_churn",
       "Compaction churn: query time and worst per-step pause per DML "
       "batch (simulated seconds)")
def compaction_churn_rows() -> List[Dict]:
    """The churn driver on its own private database."""
    return compaction_churn(build_bench_churn())


# ---------------------------------------------------------------------------
# ablations: Bloom accuracy, RAM pressure, Merge reduction
# ---------------------------------------------------------------------------

def measured_fp_rate(n_items: int, max_bytes: int) -> float:
    """False-positive share of 3n never-added probes on an n-item filter."""
    ram = SecureRam(capacity=1 << 22)
    with BloomFilter(ram, n_items, max_bytes=max_bytes) as bf:
        bf.add_all(range(n_items))
        fps = sum(1 for x in range(n_items, 4 * n_items) if x in bf)
        return fps / (3 * n_items)


@table("ablation_bloom",
       "Ablation: Bloom fp rate vs bits-per-item (4 hashes)")
def ablation_bloom() -> List[Dict]:
    """Bloom accuracy as the m/n ratio degrades (the mechanism behind
    the Cross-Post gains once the Vis ID list outgrows the RAM)."""
    n = 20000
    return [{"bits_per_item": ratio,
             "measured_fp": measured_fp_rate(n, n * ratio // 8),
             "theoretical_fp": false_positive_rate(ratio, 4)}
            for ratio in (8, 6, 4, 2, 1)]


def _ram_sweep(ram_sizes: Sequence[int], sql: str, **knobs):
    """(ram_bytes, result) of one query on tokens of shrinking RAM."""
    for ram_bytes in ram_sizes:
        db = build_synthetic(SyntheticConfig(scale=0.005),
                             token_config=TokenConfig(ram_bytes=ram_bytes))
        yield ram_bytes, db.execute(sql, **knobs)


@table("ablation_post_ram",
       "Ablation: Post-Filter on 64KB vs 12KB RAM (sV=0.5)")
def ablation_post_ram() -> List[Dict]:
    """A Post-Filter query on the paper's token vs a RAM-starved one."""
    return [{"ram_bytes": ram_bytes, "time_s": result.stats.total_s,
             "rows": result.stats.result_rows}
            for ram_bytes, result in _ram_sweep(
                (65536, 12288), query_q(0.5), **_knobs("post"))]


@table("ablation_ram_size",
       "Ablation: query cost vs secure RAM size (sV=0.2)")
def ablation_ram_size() -> List[Dict]:
    """End-to-end query cost as the secure RAM shrinks; every size must
    return the same rows."""
    rows, answers = [], set()
    for ram_bytes, result in _ram_sweep(
            (131072, 65536, 32768, 16384),
            query_q_with_hidden_projection(0.2)):
        answers.add(tuple(sorted(result.rows)))
        rows.append({"ram_bytes": ram_bytes, "time_s": result.stats.total_s,
                     "ram_peak": result.stats.ram_peak})
    if len(answers) != 1:
        raise AssertionError("rows diverge across RAM sizes")
    return rows


MERGE_SUBLISTS = 48
MERGE_IDS_PER_LIST = 2000


def merge_reduction(ram_buffers: int) -> Dict:
    """Merge ``MERGE_SUBLISTS`` interleaved id sublists with one buffer
    per open sublist; too few buffers force flash pre-merges (sec. 3.4)."""
    token = SecureToken(TokenConfig(ram_bytes=ram_buffers * PAGE_SIZE))
    group = [
        IdRun.flash(write_u32s(token.store, range(
            i, i + MERGE_IDS_PER_LIST * MERGE_SUBLISTS, MERGE_SUBLISTS)))
        for i in range(MERGE_SUBLISTS)
    ]
    token.reset_costs()
    op = MergeOperator(token.store, token.ram)
    count = sum(len(chunk) for chunk in op.stream([group]))
    return {
        "ram_buffers": ram_buffers,
        "time_s": token.elapsed_s(),
        "pages_written": token.ledger.counters.get("pages_written", 0),
        "reductions": op.reductions,
        "ids_out": count,
    }


@table("ablation_merge_reduction",
       "Ablation: Merge cost vs RAM buffers "
       f"({MERGE_SUBLISTS} sublists of {MERGE_IDS_PER_LIST} ids)")
def ablation_merge_reduction() -> List[Dict]:
    """The write-intensive reduction fallback as RAM shrinks."""
    return [merge_reduction(b) for b in (64, 32, 16, 8, 4)]


# ---------------------------------------------------------------------------
# scale-out: simulated throughput of the fig10/fig12 mix vs fleet size
# ---------------------------------------------------------------------------

SHARD_GRID = (1, 2, 4, 8)
SHARD_SCALE = 0.004          # T0 = 40K rows: enough work to dominate merges


#: the fig10 (auto, forced pre, forced post) / fig12 template mix the
#: fleet is scored on
SHARD_MIX = tuple(
    (sql_of(sv), knobs)
    for sv in (0.01, 0.05, 0.1)
    for sql_of, knobs in (
        (query_q, {}), (query_q, _knobs("pre")), (query_q, _knobs("post")),
        (query_q_with_hidden_projection,
         _knobs("pre", True, projection="project")))
)


def _shard_points(rows: List[Dict]) -> Dict:
    return {
        "n_queries": len(SHARD_MIX),
        "scale": SHARD_SCALE,
        "points": [{k: r[k] for k in ("shards", "simulated_s", "sim_qps")}
                   for r in rows],
    }


@table("shard_scaling",
       "Scale-out: simulated q/s of the fig10/fig12 mix vs shard count",
       json_of=_shard_points)
def shard_scaling() -> List[Dict]:
    """Simulated seconds and q/s of the mix at each fleet size (wall q/s
    cannot improve in-process, where shards run under one interpreter);
    every fleet must return the same number of rows."""
    cfg = SyntheticConfig(scale=SHARD_SCALE, full_indexing=True)
    rows, row_counts = [], set()
    for n in SHARD_GRID:
        db = build_synthetic(cfg, shards=n)
        results = [db.execute(sql, **knobs) for sql, knobs in SHARD_MIX]
        sim_s = fsum(result.stats.total_s for result in results)
        row_counts.add(sum(len(result.rows) for result in results))
        rows.append({"shards": n, "simulated_s": round(sim_s, 4),
                     "sim_qps": round(len(SHARD_MIX) / sim_s, 2)})
    if len(row_counts) != 1:
        raise AssertionError(f"fleet sizes disagree on rows: {row_counts}")
    for row in rows:
        row["speedup_vs_1"] = round(
            rows[0]["simulated_s"] / row["simulated_s"], 2)
    return rows
