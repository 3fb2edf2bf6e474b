//! Reduced-size join/exchange workloads with JSON output, so the perf
//! trajectory of the evaluator hot path is tracked across PRs.
//!
//! `cargo run -p orchestra-bench --bin experiments --release -- --snapshot`
//! runs each workload several times, takes the **median** wall-clock time,
//! normalises it by the number of work units the workload performs (derived
//! tuples for fixpoints, propagated tuples for incremental updates — a
//! quantity that is identical across code versions because the semantics are
//! fixed), and writes the rows to `BENCH_joins.json`.
//!
//! The committed `BENCH_joins.json` keeps one entry per recorded snapshot
//! (e.g. `pr3-before` / `pr3-after`), so successive PRs can quote their
//! speedups against an honest, reproducible baseline.

use std::collections::HashMap;
use std::time::Instant;

use orchestra_datalog::{bound_scan, parse_program, Evaluator, PlanCache};
use orchestra_storage::{tuple::int_tuple, Database, RelationSchema, Value};
use orchestra_workload::DatasetKind;

use crate::{build_loaded, Scale};

// The two *incremental* workloads measure a **steady-state** exchange: the
// setup performs one small warmup propagation after the bulk load, so the
// measured call runs with a warm cross-exchange plan cache — the regime a
// CDSS actually lives in (update exchange is a repeated operation; the
// first-ever exchange after a 100× bulk load legitimately replans). The
// measured delta batches themselves are generated *before* the warmup, so
// they stay identical to earlier recordings of these workloads.

/// Number of timed repetitions per workload; the median is reported.
pub const SNAPSHOT_RUNS: usize = 9;

/// One measured workload cell.
#[derive(Debug, Clone)]
pub struct SnapshotRow {
    /// Workload name, e.g. `fig5_join/strings/pipelined`.
    pub workload: String,
    /// Median wall-clock nanoseconds for one run.
    pub median_ns: u128,
    /// Work units performed by one run (tuples derived / inserted /
    /// deleted — identical across code versions).
    pub ops: usize,
    /// Median nanoseconds per work unit.
    pub ns_per_op: f64,
    /// Number of timed runs the median was taken over.
    pub runs: usize,
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time `op` over a fresh `setup` state `SNAPSHOT_RUNS` times and produce a
/// row. Only the operation itself is timed — workload generation and base
/// loading happen outside the measured window.
fn measure<T>(
    workload: &str,
    mut setup: impl FnMut() -> T,
    mut op: impl FnMut(&mut T) -> usize,
) -> SnapshotRow {
    let mut samples = Vec::with_capacity(SNAPSHOT_RUNS);
    let mut ops = 0;
    for _ in 0..SNAPSHOT_RUNS {
        let mut state = setup();
        let start = Instant::now();
        ops = op(&mut state);
        samples.push(start.elapsed().as_nanos());
    }
    let med = median_ns(samples);
    SnapshotRow {
        workload: workload.to_string(),
        median_ns: med,
        ops,
        ns_per_op: med as f64 / ops.max(1) as f64,
        runs: SNAPSHOT_RUNS,
    }
}

/// A transitive-closure database: a chain of `chain` nodes plus `extra`
/// pseudo-random shortcut edges (deterministic, seedless LCG).
fn tc_database(chain: i64, extra: usize) -> Database {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("edge", &["s", "d"]))
        .unwrap();
    for i in 0..chain - 1 {
        db.insert("edge", int_tuple(&[i, i + 1])).unwrap();
    }
    let mut state: i64 = 88172645463325252;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.rem_euclid(chain)
    };
    let mut added = 0;
    while added < extra {
        let (a, b) = (next(), next());
        if a != b && db.insert("edge", int_tuple(&[a, b])).unwrap() {
            added += 1;
        }
    }
    db
}

/// The pure-datalog join core workload: transitive closure to fixpoint.
fn tc_fixpoint(scale: Scale) -> SnapshotRow {
    let program = parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).",
    )
    .unwrap();
    let chain = scale.entries(60) as i64;
    let extra = scale.entries(30);
    measure(
        "tc_fixpoint/pipelined",
        || tc_database(chain, extra),
        |db| {
            let mut eval = Evaluator::new();
            eval.run(&program, db).unwrap();
            db.relation("path").unwrap().len()
        },
    )
}

/// Transitive closure to fixpoint with the evaluator pinned to `threads`
/// workers. Denser than the `tc_fixpoint` snapshot cell — per-round deltas
/// of thousands of tuples, enough for chunked parallel rule evaluation to
/// have something to chew on — so the sweep measures parallelism, not pool
/// overhead on trivial rounds.
fn tc_fixpoint_threads(threads: usize, scale: Scale) -> SnapshotRow {
    let program = parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).",
    )
    .unwrap();
    let chain = scale.entries(150) as i64;
    let extra = scale.entries(300);
    let pool = orchestra_pool::Pool::new(threads);
    measure(
        &format!("par_sweep/tc_fixpoint/t{threads}"),
        || tc_database(chain, extra),
        |db| {
            let mut eval = Evaluator::with_pool(pool.clone());
            eval.run(&program, db).unwrap();
            db.relation("path").unwrap().len()
        },
    )
}

/// Incremental transitive-closure insertions: the delta-join workload,
/// measured in steady state (persistent evaluator + warm plan cache, as a
/// long-running exchange service would hold them).
fn tc_incremental(scale: Scale) -> SnapshotRow {
    let program = parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).",
    )
    .unwrap();
    let chain = scale.entries(60) as i64;
    let extra = scale.entries(30);
    measure(
        "tc_incremental/pipelined",
        || {
            let mut db = tc_database(chain, extra);
            let mut eval = Evaluator::new();
            let mut cache = PlanCache::new();
            eval.run_filtered_cached(&mut cache, &program, &mut db, None)
                .unwrap();
            // Warm the delta plans at post-fixpoint cardinalities with two
            // small extensions disjoint from the measured one.
            for round in 0..2i64 {
                let mut warm = HashMap::new();
                warm.insert(
                    "edge".to_string(),
                    (0..3)
                        .map(|i| int_tuple(&[-(10 + 10 * round + i), -(11 + 10 * round + i)]))
                        .collect::<Vec<_>>(),
                );
                eval.propagate_insertions_cached(&mut cache, &program, &mut db, &warm, None)
                    .unwrap();
            }
            // The measured delta: the same chain extension as always.
            let mut deltas = HashMap::new();
            deltas.insert(
                "edge".to_string(),
                (0..10)
                    .map(|i| int_tuple(&[chain + i, chain + i + 1]))
                    .chain(std::iter::once(int_tuple(&[chain - 1, chain])))
                    .collect::<Vec<_>>(),
            );
            (db, eval, cache, deltas)
        },
        |(db, eval, cache, deltas)| {
            let new = eval
                .propagate_insertions_cached(cache, &program, db, deltas, None)
                .unwrap();
            new.values().map(Vec::len).sum()
        },
    )
}

/// Sparse-key point-query workload: the successors of one chain node near
/// the end of a transitive-closure database, asked two ways over identical
/// data. `magic_point/demand` answers through the magic-sets rewrite — the
/// bound key seeds a magic fact and evaluation explores only that key's
/// derivation cone. `magic_point/full_fixpoint` computes the entire
/// closure and filters, the way an unbound engine must. Ops = answers
/// returned (identical across rows), so `ns_per_op` is directly
/// comparable; both rows measure the *cold* cost including plan compiles.
pub fn run_magic_point(scale: Scale) -> Vec<SnapshotRow> {
    let program = parse_program(
        "path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).",
    )
    .unwrap();
    let chain = scale.entries(150) as i64;
    let extra = scale.entries(60);
    // A key near the end of the chain: its reachable cone is a sliver of
    // the full closure — exactly the regime demand evaluation targets.
    let binding = vec![Some(Value::Int(chain - 10)), None];
    let demand = measure(
        "magic_point/demand",
        || tc_database(chain, extra),
        |db| {
            let mut cache = PlanCache::new();
            let mut eval = Evaluator::new();
            let answers = eval
                .run_demand_cached(&mut cache, &program, db, "path", &binding)
                .unwrap();
            answers.len().max(1)
        },
    );
    let full = measure(
        "magic_point/full_fixpoint",
        || tc_database(chain, extra),
        |db| {
            let mut eval = Evaluator::new();
            eval.run(&program, db).unwrap();
            bound_scan(db, "path", &binding).unwrap().len().max(1)
        },
    );
    vec![demand, full]
}

/// Measurements behind the demand-query speedup gate: the sparse-key point
/// query answered via the magic-sets rewrite vs via the full fixpoint.
#[derive(Debug, Clone)]
pub struct MagicGate {
    /// Median nanoseconds for the demand-driven answer.
    pub demand_ns: u128,
    /// Median nanoseconds for the full-fixpoint-then-filter answer.
    pub full_ns: u128,
}

impl MagicGate {
    /// Required speedup of the demand path over the full fixpoint on the
    /// sparse-key workload.
    pub const MIN_SPEEDUP: f64 = 5.0;

    /// Measured speedup (>1 means demand was faster).
    pub fn speedup(&self) -> f64 {
        self.full_ns as f64 / self.demand_ns.max(1) as f64
    }

    /// Gate verdict: `Ok` with a human-readable line when the demand path
    /// clears the speedup bound.
    pub fn verdict(&self) -> Result<String, String> {
        let s = self.speedup();
        if s >= Self::MIN_SPEEDUP {
            Ok(format!(
                "demand beats the full fixpoint by {s:.1}x on the sparse-key point query ({} ns -> {} ns, limit {:.1}x)",
                self.full_ns,
                self.demand_ns,
                Self::MIN_SPEEDUP
            ))
        } else {
            Err(format!(
                "demand is only {s:.1}x faster than the full fixpoint on the sparse-key point query ({} ns -> {} ns, need >= {:.1}x)",
                self.full_ns,
                self.demand_ns,
                Self::MIN_SPEEDUP
            ))
        }
    }
}

/// Run the demand-query speedup gate measurements (see [`MagicGate`]).
pub fn run_magic_gate(scale: Scale) -> MagicGate {
    let rows = run_magic_point(scale);
    MagicGate {
        demand_ns: rows[0].median_ns,
        full_ns: rows[1].median_ns,
    }
}

/// The pool-churn workload's measured row plus the intern-pool metrics of
/// its final run — the data behind the `--check` pool-growth gate.
#[derive(Debug, Clone)]
pub struct PoolChurn {
    /// Wall-clock row (`pool_churn/exchange_compact`), recordable in
    /// `BENCH_joins.json` like any other snapshot workload.
    pub row: SnapshotRow,
    /// Distinct pool values right before the compaction pass (the
    /// append-only high-water mark the churn produced).
    pub pool_peak: usize,
    /// Distinct pool values after the pass.
    pub pool_after: usize,
    /// Pool values still referenced by live rows at the end.
    pub live_values: usize,
}

impl PoolChurn {
    /// The gate bound: the compacted pool may hold the live vocabulary
    /// plus a small slack (plan constants re-interned after the pass).
    pub fn bound(&self) -> usize {
        self.live_values + self.live_values / 10 + 32
    }

    /// Does the run pass the pool-growth gate (`pool_after <= bound`)?
    pub fn is_bounded(&self) -> bool {
        self.pool_after <= self.bound()
    }
}

/// Long-running churn workload over the three-peer example CDSS: `N`
/// update exchanges, each inserting a fresh *distinct* G row and deleting
/// the previous round's, then one explicit pool compaction. Exactly the
/// regime where the append-only pool leaks — the gate proves compaction
/// turns it into a bounded steady state.
pub fn run_pool_churn(scale: Scale) -> PoolChurn {
    let rounds = scale.entries(80) as i64;
    let mut pool_peak = 0usize;
    let mut pool_after = 0usize;
    let mut live_values = 0usize;
    let row = measure(
        "pool_churn/exchange_compact",
        orchestra_net::scenario::example_scenario,
        |cdss| {
            for r in 0..rounds {
                cdss.insert_local("PGUS", "G", int_tuple(&[r, 1_000_000 + r, 2_000_000 + r]))
                    .unwrap();
                if r > 0 {
                    cdss.delete_local(
                        "PGUS",
                        "G",
                        int_tuple(&[r - 1, 1_000_000 + r - 1, 2_000_000 + r - 1]),
                    )
                    .unwrap();
                }
                cdss.update_exchange("PGUS").unwrap();
            }
            pool_peak = cdss.intern_stats().distinct as usize;
            cdss.compact();
            pool_after = cdss.intern_stats().distinct as usize;
            live_values = cdss.pool_live_values();
            rounds as usize
        },
    );
    PoolChurn {
        row,
        pool_peak,
        pool_after,
        live_values,
    }
}

/// Observability-overhead A/B rows: the fig7-style incremental exchange
/// measured with the trace recorder off and then on (recording into the
/// global ring with no sink attached — the enabled-but-idle regime a
/// production server runs in). Metrics counters/histograms are always on,
/// so they are part of both sides; the contrast isolates the span cost.
/// Restores the recorder to its prior state afterwards.
pub fn run_obs_overhead(scale: Scale) -> Vec<SnapshotRow> {
    let was_enabled = orchestra_obs::trace::is_enabled();
    orchestra_obs::trace::disable();
    let mut off = fig7_insertions(scale);
    off.workload = "obs_overhead/trace_off".to_string();
    orchestra_obs::trace::enable();
    let mut on = fig7_insertions(scale);
    on.workload = "obs_overhead/trace_on".to_string();
    if !was_enabled {
        orchestra_obs::trace::disable();
    }
    vec![off, on]
}

/// Figure 5 reduced workload: full recomputation ("time to join") on the
/// SWISS-PROT-style string dataset.
fn fig5_join(scale: Scale) -> SnapshotRow {
    fig5_join_at(scale, None)
}

/// [`fig5_join`], optionally with the CDSS fixpoint pool pinned to
/// `threads` workers (sweep rows are named `par_sweep/fig5_join/tN`).
fn fig5_join_at(scale: Scale, threads: Option<usize>) -> SnapshotRow {
    let base = scale.entries(50);
    let name = match threads {
        None => "fig5_join/strings/pipelined".to_string(),
        Some(t) => format!("par_sweep/fig5_join/t{t}"),
    };
    measure(
        &name,
        || {
            let mut g = build_loaded(5, base, DatasetKind::Strings, 0, 23);
            if let Some(t) = threads {
                g.cdss.set_eval_threads(t);
            }
            g
        },
        |g| {
            let report = g.cdss.recompute_all().unwrap();
            report.total_inserted()
        },
    )
}

/// Figure 7 reduced workload: incremental insertions on the string dataset,
/// measured in steady state (the measured batch is generated first, then a
/// warmup exchange runs, so the batch matches earlier recordings).
fn fig7_insertions(scale: Scale) -> SnapshotRow {
    fig7_insertions_at(scale, None)
}

/// [`fig7_insertions`], optionally with the CDSS fixpoint pool pinned to
/// `threads` workers (sweep rows are named `par_sweep/fig7_insertions/tN`).
fn fig7_insertions_at(scale: Scale, threads: Option<usize>) -> SnapshotRow {
    let base = scale.entries(40);
    let name = match threads {
        None => "fig7_insertions/strings/pipelined".to_string(),
        Some(t) => format!("par_sweep/fig7_insertions/t{t}"),
    };
    measure(
        &name,
        || {
            let mut g = build_loaded(5, base, DatasetKind::Strings, 0, 41);
            if let Some(t) = threads {
                g.cdss.set_eval_threads(t);
            }
            let count = g.entries_for_ratio(0.1);
            let batch = g.fresh_insertions(count);
            for _ in 0..2 {
                let warmup = g.fresh_insertions(count.clamp(1, 4));
                g.cdss.apply_insertions_incremental(&warmup).unwrap();
            }
            (g, batch)
        },
        |(g, batch)| {
            let report = g.cdss.apply_insertions_incremental(batch).unwrap();
            report.total_inserted()
        },
    )
}

/// Figure 9 reduced workload: incremental deletions on the integer dataset.
fn fig9_deletions(scale: Scale) -> SnapshotRow {
    fig9_deletions_at(scale, None)
}

/// [`fig9_deletions`], optionally with the CDSS fixpoint pool pinned to
/// `threads` workers (sweep rows are named `par_sweep/fig9_deletions/tN`).
fn fig9_deletions_at(scale: Scale, threads: Option<usize>) -> SnapshotRow {
    let base = scale.entries(60);
    let name = match threads {
        None => "fig9_deletions/integers/pipelined".to_string(),
        Some(t) => format!("par_sweep/fig9_deletions/t{t}"),
    };
    measure(
        &name,
        || {
            let mut g = build_loaded(5, base, DatasetKind::Integers, 0, 43);
            if let Some(t) = threads {
                g.cdss.set_eval_threads(t);
            }
            let count = g.entries_for_ratio(0.1);
            let batch = g.deletion_batch(count);
            (g, batch)
        },
        |(g, batch)| {
            let report = g.cdss.apply_deletions_incremental(batch).unwrap();
            report.total_deleted()
        },
    )
}

/// Run every snapshot workload at the given scale.
pub fn run_snapshot(scale: Scale) -> Vec<SnapshotRow> {
    let mut rows = vec![
        tc_fixpoint(scale),
        tc_incremental(scale),
        fig5_join(scale),
        fig7_insertions(scale),
        fig9_deletions(scale),
    ];
    rows.extend(run_magic_point(scale));
    rows
}

/// Thread counts exercised by the parallel sweep: 1/2/4 plus the host's
/// full core count when it exceeds 4. Oversubscribed counts on small hosts
/// are kept — determinism is thread-count independent, and the rows record
/// the (absent) speedup honestly.
pub fn sweep_threads() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    let max = orchestra_pool::hardware_threads();
    if max > 4 {
        counts.push(max);
    }
    counts
}

/// Thread-count sweep: tc_fixpoint plus the fig5/fig7/fig9 workloads with
/// the fixpoint pool pinned to each count from [`sweep_threads`], and a
/// `par_sweep/host_cores` marker row recording the hardware parallelism
/// the sweep ran under (`ops` = core count), so recorded speedups can be
/// read in context.
pub fn run_thread_sweep(scale: Scale) -> Vec<SnapshotRow> {
    let mut rows = Vec::new();
    for t in sweep_threads() {
        rows.push(tc_fixpoint_threads(t, scale));
        rows.push(fig5_join_at(scale, Some(t)));
        rows.push(fig7_insertions_at(scale, Some(t)));
        rows.push(fig9_deletions_at(scale, Some(t)));
    }
    rows.push(SnapshotRow {
        workload: "par_sweep/host_cores".to_string(),
        median_ns: 0,
        ops: orchestra_pool::hardware_threads(),
        ns_per_op: 0.0,
        runs: 1,
    });
    rows
}

/// Measurements behind the parallel speedup gate: the dense tc_fixpoint
/// workload pinned to one worker vs the host's full core count.
#[derive(Debug, Clone)]
pub struct ParallelGate {
    /// Hardware threads available to the run.
    pub host_cores: usize,
    /// Worker count of the parallel measurement (`max(2, host_cores)` — the
    /// parallel code path is exercised even on a single-core host).
    pub threads_max: usize,
    /// Median nanoseconds pinned to one worker.
    pub t1_ns: u128,
    /// Median nanoseconds at `threads_max` workers.
    pub tmax_ns: u128,
}

impl ParallelGate {
    /// Required speedup of max-threads over one thread on a multi-core
    /// host.
    pub const MIN_SPEEDUP: f64 = 1.5;

    /// Measured speedup (>1 means the parallel run was faster).
    pub fn speedup(&self) -> f64 {
        self.t1_ns as f64 / self.tmax_ns.max(1) as f64
    }

    /// Gate verdict: `Ok` with a human-readable line when the speedup bound
    /// holds — or when the host cannot express parallelism (a single
    /// hardware thread), in which case the gate records that and passes
    /// rather than failing on machines that cannot possibly speed up.
    pub fn verdict(&self) -> Result<String, String> {
        if self.host_cores <= 1 {
            return Ok(format!(
                "skipped: host exposes {} hardware thread(s); measured {} ns at t1 vs {} ns at t{} (parallel path exercised, speedup not assessable)",
                self.host_cores, self.t1_ns, self.tmax_ns, self.threads_max
            ));
        }
        let s = self.speedup();
        if s >= Self::MIN_SPEEDUP {
            Ok(format!(
                "t{} beats t1 by {s:.2}x on tc_fixpoint ({} ns -> {} ns, {} cores, limit {:.2}x)",
                self.threads_max,
                self.t1_ns,
                self.tmax_ns,
                self.host_cores,
                Self::MIN_SPEEDUP
            ))
        } else {
            Err(format!(
                "t{} is only {s:.2}x faster than t1 on tc_fixpoint ({} ns -> {} ns, {} cores, need >= {:.2}x)",
                self.threads_max,
                self.t1_ns,
                self.tmax_ns,
                self.host_cores,
                Self::MIN_SPEEDUP
            ))
        }
    }
}

/// Run the parallel speedup gate measurements (see [`ParallelGate`]).
pub fn run_parallel_gate(scale: Scale) -> ParallelGate {
    let host_cores = orchestra_pool::hardware_threads();
    let threads_max = host_cores.max(2);
    let t1 = tc_fixpoint_threads(1, scale);
    let tmax = tc_fixpoint_threads(threads_max, scale);
    ParallelGate {
        host_cores,
        threads_max,
        t1_ns: t1.median_ns,
        tmax_ns: tmax.median_ns,
    }
}

/// Relation sizes (tuples) of the publish-scaling measurement.
pub const PUBLISH_SCALING_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Tuples inserted between two timed publishes.
const PUBLISH_DELTA: usize = 10;
/// Timed publishes per run; a run reports their mean.
const PUBLISH_CYCLES: usize = 50;

/// Snapshot publication latency after a fixed small delta, as a function of
/// relation size: one indexed relation of `size` tuples is published, then
/// [`PUBLISH_CYCLES`] times [`PUBLISH_DELTA`] fresh tuples are inserted and
/// the re-publish alone is timed (it includes dropping the previous epoch,
/// as a commit does). With chunk-shared storage the publish clones one
/// pointer per storage chunk and frees the few chunks the delta replaced;
/// a deep copy of the changed relation would grow with `size`.
fn publish_after_delta(size: usize) -> SnapshotRow {
    let mut samples = Vec::with_capacity(SNAPSHOT_RUNS);
    for _ in 0..SNAPSHOT_RUNS {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("r", &["x", "y"]))
            .unwrap();
        for i in 0..size as i64 {
            db.insert("r", int_tuple(&[i, i % 101])).unwrap();
        }
        db.relation_mut("r").unwrap().ensure_index(&[0]).unwrap();
        let mut store = orchestra_snapshot::SnapshotStore::new();
        store.publish(&db);
        let mut next = size as i64;
        let mut spent = std::time::Duration::ZERO;
        for _ in 0..PUBLISH_CYCLES {
            for _ in 0..PUBLISH_DELTA {
                db.insert("r", int_tuple(&[next, next % 101])).unwrap();
                next += 1;
            }
            let start = Instant::now();
            std::hint::black_box(store.publish(&db));
            spent += start.elapsed();
        }
        assert_eq!(store.published(), 1 + PUBLISH_CYCLES as u64);
        samples.push(spent.as_nanos() / PUBLISH_CYCLES as u128);
    }
    let med = median_ns(samples);
    SnapshotRow {
        workload: format!("publish_scaling/{}k", size / 1000),
        median_ns: med,
        ops: 1,
        ns_per_op: med as f64,
        runs: SNAPSHOT_RUNS,
    }
}

/// The publish-scaling rows, one per size in [`PUBLISH_SCALING_SIZES`].
pub fn run_publish_scaling() -> Vec<SnapshotRow> {
    PUBLISH_SCALING_SIZES
        .iter()
        .map(|&size| publish_after_delta(size))
        .collect()
}

/// Measurements behind the publish-scaling gate: publish latency after a
/// 10-tuple delta on the smallest and the largest relation of
/// [`PUBLISH_SCALING_SIZES`].
#[derive(Debug, Clone)]
pub struct PublishGate {
    /// Median nanoseconds per publish on the 1k-tuple relation.
    pub small_ns: u128,
    /// Median nanoseconds per publish on the 100k-tuple relation.
    pub large_ns: u128,
}

impl PublishGate {
    /// How much slower the publish of a 100x larger relation may be. The
    /// publish drops the previous epoch, which releases one pointer per
    /// storage chunk of the tables the delta wrote (a chunk holds on the
    /// order of a hundred tuples), so the cost is not flat: this change
    /// measures 5x, the deep copy it replaced 98x.
    pub const MAX_RATIO: f64 = 10.0;

    /// Measured ratio of the large publish to the small one.
    pub fn ratio(&self) -> f64 {
        self.large_ns as f64 / self.small_ns.max(1) as f64
    }

    /// Gate verdict: `Ok` with a human-readable line when publication cost
    /// does not follow relation size.
    pub fn verdict(&self) -> Result<String, String> {
        let r = self.ratio();
        let line = format!(
            "publishing a 10-tuple delta costs {} ns on 1k tuples and {} ns on 100k ({r:.2}x, limit {:.1}x)",
            self.small_ns,
            self.large_ns,
            Self::MAX_RATIO
        );
        if r <= Self::MAX_RATIO {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// Run the publish-scaling gate measurements (see [`PublishGate`]).
pub fn run_publish_gate() -> PublishGate {
    let rows = run_publish_scaling();
    PublishGate {
        small_ns: rows[0].median_ns,
        large_ns: rows[rows.len() - 1].median_ns,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render one labeled snapshot entry as a JSON object (hand-rolled — the
/// workspace is hermetic and carries no JSON dependency). Workload keys are
/// sorted, so re-runs produce byte-stable diffs regardless of the order the
/// workloads executed in.
pub fn entry_json(label: &str, rows: &[SnapshotRow]) -> String {
    let mut rows: Vec<&SnapshotRow> = rows.iter().collect();
    rows.sort_by(|a, b| a.workload.cmp(&b.workload));
    let mut out = String::new();
    out.push_str(&format!(
        "    {{\n      \"label\": \"{}\",\n      \"workloads\": {{\n",
        json_escape(label)
    ));
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "        \"{}\": {{ \"median_ns\": {}, \"ops\": {}, \"ns_per_op\": {:.1}, \"runs\": {} }}{}\n",
            json_escape(&r.workload),
            r.median_ns,
            r.ops,
            r.ns_per_op,
            r.runs,
            comma
        ));
    }
    out.push_str("      }\n    }");
    out
}

/// Render a full `BENCH_joins.json` document holding the given entries.
pub fn document_json(entries: &[String]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bench-joins-v1\",\n  \"entries\": [\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Split an existing document produced by [`document_json`] back into its
/// entry blocks (label, rendered text). Returns `None` when the text does
/// not look like one of our documents — callers then refuse to overwrite
/// it rather than clobbering unknown content.
pub fn parse_entries(doc: &str) -> Option<Vec<(String, String)>> {
    if !doc.contains("\"schema\": \"bench-joins-v1\"") {
        return None;
    }
    let mut out = Vec::new();
    // Entries are exactly the `    {` … `    }` blocks emitted by
    // `entry_json` — recover them by brace tracking at that indentation.
    let mut current: Vec<&str> = Vec::new();
    let mut label: Option<String> = None;
    for line in doc.lines() {
        if line == "    {" {
            current = vec![line];
            label = None;
            continue;
        }
        if current.is_empty() {
            continue;
        }
        current.push(line);
        if let Some(rest) = line.trim().strip_prefix("\"label\": \"") {
            label = rest
                .trim_end_matches(',')
                .strip_suffix('"')
                .map(str::to_string);
        }
        if line == "    }" || line == "    }," {
            let text = current.join("\n").trim_end_matches(',').to_string();
            out.push((label.take()?, text));
            current.clear();
        }
    }
    Some(out)
}

/// Merge a freshly rendered entry into an existing document's entries:
/// an entry with the same label is replaced in place, otherwise the new
/// entry is appended. The curated history in the committed
/// `BENCH_joins.json` therefore survives re-runs.
pub fn merge_entry(existing: Option<&str>, label: &str, entry: String) -> Option<String> {
    let mut entries = match existing {
        None => Vec::new(),
        Some(doc) => parse_entries(doc)?,
    };
    match entries.iter_mut().find(|(l, _)| l == label) {
        Some((_, text)) => *text = entry,
        None => entries.push((label.to_string(), entry)),
    }
    let texts: Vec<String> = entries.into_iter().map(|(_, t)| t).collect();
    Some(document_json(&texts))
}

/// Extract `workload → median_ns` for one labeled entry of a
/// `BENCH_joins.json` document. Returns `None` when the document or label
/// is absent.
pub fn entry_medians(doc: &str, label: &str) -> Option<HashMap<String, u128>> {
    let entries = parse_entries(doc)?;
    let (_, text) = entries.into_iter().find(|(l, _)| l == label)?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, tail)) = rest.split_once('"') else {
            continue;
        };
        let Some(ns) = tail
            .split_once("\"median_ns\": ")
            .and_then(|(_, v)| v.split([',', ' ', '}']).next())
            .and_then(|v| v.parse::<u128>().ok())
        else {
            continue;
        };
        out.insert(name.to_string(), ns);
    }
    Some(out)
}

/// Regression gate for CI: re-measure the snapshot workloads and fail when
/// any workload whose name starts with one of `gated` runs more than
/// `max_ratio` times slower than the medians recorded under `baseline_label`
/// in `baseline_doc`. Returns the offending rows.
pub fn check_against_baseline(
    rows: &[SnapshotRow],
    baseline_doc: &str,
    baseline_label: &str,
    gated: &[&str],
    max_ratio: f64,
) -> Result<Vec<String>, String> {
    let medians = entry_medians(baseline_doc, baseline_label)
        .ok_or_else(|| format!("no `{baseline_label}` entry found in the baseline document"))?;
    let mut offenders = Vec::new();
    for row in rows {
        if !gated.iter().any(|g| row.workload.starts_with(g)) {
            continue;
        }
        let Some(&base) = medians.get(&row.workload) else {
            continue;
        };
        let ratio = row.median_ns as f64 / base as f64;
        if ratio > max_ratio {
            offenders.push(format!(
                "{}: {} ns vs baseline {} ns ({:.2}x, limit {:.2}x)",
                row.workload, row.median_ns, base, ratio, max_ratio
            ));
        }
    }
    Ok(offenders)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median_ns(vec![5, 1, 9]), 5);
        assert_eq!(median_ns(vec![2, 1]), 2);
        assert_eq!(median_ns(vec![7]), 7);
    }

    #[test]
    fn tc_database_is_deterministic() {
        let a = tc_database(20, 10);
        let b = tc_database(20, 10);
        assert_eq!(a, b);
        assert_eq!(a.relation("edge").unwrap().len(), 19 + 10);
    }

    #[test]
    fn snapshot_rows_have_sane_shape() {
        // One tiny cell end-to-end, so the harness itself is covered.
        let row = tc_fixpoint(Scale(0.2));
        assert!(row.ops > 0);
        assert!(row.median_ns > 0);
        assert!(row.ns_per_op > 0.0);
        assert_eq!(row.runs, SNAPSHOT_RUNS);
    }

    #[test]
    fn publish_gate_verdict_logic() {
        let flat = PublishGate {
            small_ns: 1_000,
            large_ns: 2_500,
        };
        assert!(flat.verdict().unwrap().contains("2.50x"));
        // A publish that deep-copies the changed relation scales with it.
        let linear = PublishGate {
            small_ns: 1_000,
            large_ns: 90_000,
        };
        assert!(linear.verdict().unwrap_err().contains("90.00x"));
        // The measurement itself yields one row per size.
        assert_eq!(
            publish_after_delta(1_000).workload,
            "publish_scaling/1k".to_string()
        );
    }

    #[test]
    fn pool_churn_is_bounded_after_compaction() {
        let churn = run_pool_churn(Scale(0.2));
        assert!(churn.row.ops > 0);
        assert!(
            churn.pool_peak > churn.pool_after,
            "churn must actually grow the pool (peak {}, after {})",
            churn.pool_peak,
            churn.pool_after
        );
        assert!(
            churn.is_bounded(),
            "pool {} vs bound {}",
            churn.pool_after,
            churn.bound()
        );
    }

    #[test]
    fn parallel_gate_verdict_logic() {
        assert!(sweep_threads().starts_with(&[1, 2, 4]));
        // Single-core hosts skip (pass with a note) regardless of timings.
        let single = ParallelGate {
            host_cores: 1,
            threads_max: 2,
            t1_ns: 100,
            tmax_ns: 200,
        };
        assert!(single.verdict().is_ok());
        // Multi-core hosts must clear the speedup bound.
        let fast = ParallelGate {
            host_cores: 4,
            threads_max: 4,
            t1_ns: 300,
            tmax_ns: 100,
        };
        assert!(fast.speedup() > 2.9);
        assert!(fast.verdict().is_ok());
        let flat = ParallelGate {
            host_cores: 4,
            threads_max: 4,
            t1_ns: 100,
            tmax_ns: 100,
        };
        assert!(flat.verdict().is_err());
    }

    #[test]
    fn magic_gate_verdict_logic() {
        let fast = MagicGate {
            demand_ns: 100,
            full_ns: 1_000,
        };
        assert!(fast.speedup() > 9.9);
        assert!(fast.verdict().is_ok());
        let flat = MagicGate {
            demand_ns: 500,
            full_ns: 1_000,
        };
        assert!(flat.verdict().is_err());
        // Degenerate timer reading never divides by zero.
        let zero = MagicGate {
            demand_ns: 0,
            full_ns: 1_000,
        };
        assert!(zero.speedup().is_finite());
    }

    #[test]
    fn magic_point_rows_agree_on_answer_count() {
        let rows = run_magic_point(Scale(0.2));
        assert_eq!(rows[0].workload, "magic_point/demand");
        assert_eq!(rows[1].workload, "magic_point/full_fixpoint");
        assert_eq!(
            rows[0].ops, rows[1].ops,
            "demand and full fixpoint must return the same answers"
        );
        assert!(rows[0].ops > 1, "the bound key reaches several nodes");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let rows = vec![SnapshotRow {
            workload: "w/x".into(),
            median_ns: 10,
            ops: 2,
            ns_per_op: 5.0,
            runs: 3,
        }];
        let doc = document_json(&[entry_json("test", &rows)]);
        assert!(doc.contains("\"label\": \"test\""));
        assert!(doc.contains("\"w/x\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    fn row(ns: u128) -> Vec<SnapshotRow> {
        vec![SnapshotRow {
            workload: "w".into(),
            median_ns: ns,
            ops: 1,
            ns_per_op: ns as f64,
            runs: 1,
        }]
    }

    #[test]
    fn merge_appends_new_labels_and_replaces_existing_ones() {
        // Fresh file.
        let doc1 = merge_entry(None, "a", entry_json("a", &row(1))).unwrap();
        // Append a second label: the first entry survives.
        let doc2 = merge_entry(Some(&doc1), "b", entry_json("b", &row(2))).unwrap();
        assert!(doc2.contains("\"label\": \"a\""));
        assert!(doc2.contains("\"label\": \"b\""));
        // Re-running label `a` replaces it in place, keeping `b`.
        let doc3 = merge_entry(Some(&doc2), "a", entry_json("a", &row(9))).unwrap();
        assert!(doc3.contains("\"median_ns\": 9"));
        assert!(!doc3.contains("\"median_ns\": 1,"));
        assert!(doc3.contains("\"label\": \"b\""));
        let entries = parse_entries(&doc3).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(doc3.matches('{').count(), doc3.matches('}').count());
    }

    #[test]
    fn merge_refuses_foreign_files() {
        assert!(merge_entry(Some("not our file"), "a", entry_json("a", &row(1))).is_none());
    }

    #[test]
    fn entry_keys_are_sorted_for_stable_diffs() {
        let rows = vec![
            SnapshotRow {
                workload: "z_last".into(),
                median_ns: 2,
                ops: 1,
                ns_per_op: 2.0,
                runs: 1,
            },
            SnapshotRow {
                workload: "a_first".into(),
                median_ns: 1,
                ops: 1,
                ns_per_op: 1.0,
                runs: 1,
            },
        ];
        let text = entry_json("e", &rows);
        assert!(text.find("a_first").unwrap() < text.find("z_last").unwrap());
        // Re-rendering from reversed input is byte-identical.
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(entry_json("e", &rev), text);
    }

    #[test]
    fn baseline_check_flags_regressions_only() {
        let doc = document_json(&[entry_json(
            "base",
            &[
                SnapshotRow {
                    workload: "fig5_join/x".into(),
                    median_ns: 100,
                    ops: 1,
                    ns_per_op: 100.0,
                    runs: 1,
                },
                SnapshotRow {
                    workload: "other/y".into(),
                    median_ns: 100,
                    ops: 1,
                    ns_per_op: 100.0,
                    runs: 1,
                },
            ],
        )]);
        let medians = entry_medians(&doc, "base").unwrap();
        assert_eq!(medians["fig5_join/x"], 100);
        let fresh = vec![
            SnapshotRow {
                workload: "fig5_join/x".into(),
                median_ns: 124,
                ops: 1,
                ns_per_op: 124.0,
                runs: 1,
            },
            // Ungated workloads may regress without failing the check.
            SnapshotRow {
                workload: "other/y".into(),
                median_ns: 900,
                ops: 1,
                ns_per_op: 900.0,
                runs: 1,
            },
        ];
        let ok = check_against_baseline(&fresh, &doc, "base", &["fig5_join"], 1.25).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        let mut slow = fresh.clone();
        slow[0].median_ns = 126;
        let bad = check_against_baseline(&slow, &doc, "base", &["fig5_join"], 1.25).unwrap();
        assert_eq!(bad.len(), 1);
        assert!(check_against_baseline(&fresh, &doc, "missing", &[], 1.0).is_err());
        assert!(check_against_baseline(&fresh, "garbage", "base", &[], 1.0).is_err());
    }
}
