//! The five workloads and what they share: the recorder every operation
//! reports into, the exchange step, the point read, the output oracle, and
//! the arithmetic that turns what was recorded into the metric lists.
//!
//! A run is a sequence of *rounds*. A round sets a fresh system up from
//! the seeded input stream (timed as one `setup_s` sample), runs a fixed
//! number of steps (the measured window), and checks the outcome against
//! the oracle. Rounds repeat until the measured time reaches `--seconds`
//! (or `--rounds` are done), so instance size and memory at a given step
//! do not depend on how fast the code under test is.
//!
//! The rounds are replicas of one experiment, so every end-to-end timing is
//! taken per round and reported as the rounds' quiet quartile (see
//! `metrics::quiet_quartile`): what the shared host does to part of a run
//! does not reach the result.

pub mod bulk_join;
pub mod churn_mixed;
pub mod durable_recover;
pub mod insert_stream;
pub mod served_mixed;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use orchestra_core::report::ExchangeStrategy;
use orchestra_core::{Cdss, ExchangeReport, SnapshotReader};
use orchestra_datalog::EvalStats;
use orchestra_obs::trace as obs_trace;
use orchestra_persist::{crc::crc32, Encode};
use orchestra_storage::{Database, Tuple, Value};

use crate::inputs::Edit;
use crate::metrics::{percentile_of, quiet_quartile, Better, END_TO_END, PER_LAYER};
use crate::trace::{scrape, ObsEvents, Tracer};

/// One workload of the suite.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Rounds of a fixed-length run (no `--seconds`), sized to measure
    /// about ten seconds on the 2-core container the baseline was taken on.
    pub rounds: usize,
    /// Runs the workload into the recorder; returns the input fingerprint.
    pub run: fn(&mut Recorder, &RunOptions) -> u32,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "insert_stream",
        why: "Fig. 7/8 through the commit path: insert_local + update_exchange of small string batches; stresses core publish, snapshot publish, storage interning; deletion and provenance code idle.",
        rounds: 8,
        run: insert_stream::run,
    },
    Workload {
        name: "churn_mixed",
        why: "Fig. 4/9: inserts and deletes of a steady-size integer instance with provenance reads after each exchange; deletion propagation and the provenance graph do most of the work.",
        rounds: 8,
        run: churn_mixed::run,
    },
    Workload {
        name: "bulk_join",
        why: "Fig. 5/10 'a peer joins': recompute_all over 10 peers with 2 cycles; large semi-naive rounds where pool parallelism and join layout dominate; bypasses edit logs, deletion, persist, net.",
        rounds: 4,
        run: bulk_join::run,
    },
    Workload {
        name: "served_mixed",
        why: "The service over loopback: a paced writer (PublishEdits + UpdateExchange) beside an open-loop 500 req/s point-query reader; exercises net framing and snapshot reads under concurrent exchange.",
        rounds: 4,
        run: served_mixed::run,
    },
    Workload {
        name: "durable_recover",
        why: "Persistent system with fsync on every epoch, periodic checkpoints, then crash and open_or_recover; the only workload where persist (WAL, snapshot write, replay) does work.",
        rounds: 8,
        run: durable_recover::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one workload run is bounded and observed.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Stop after the round in which the measured time reaches this.
    pub seconds: Option<f64>,
    /// Stop after this many rounds (exact, repeatable operation counts).
    pub rounds: Option<usize>,
    /// Shrink every size about 50x: a functional check, not a measurement.
    pub smoke: bool,
    /// Where a persistent system may put its files.
    pub scratch: PathBuf,
}

impl RunOptions {
    /// `full` at benchmark size, a small fraction of it (at least `floor`)
    /// under `--smoke`.
    pub fn sized(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// Series of the program's own metrics registry the traced run reads:
/// `(per-layer metric, series in the exposition)`.
const SCRAPED: &[(&str, &str)] = &[
    (
        "snapshot.publish_s",
        "exchange_phase_seconds_sum{phase=\"snapshot-publish\"}",
    ),
    ("persist.wal_append_s", "wal_append_seconds_sum"),
    ("persist.wal_fsync_s", "wal_fsync_seconds_sum"),
    ("persist.snapshot_write_s", "snapshot_write_seconds_sum"),
    (
        "datalog.demand_rules_fired",
        "eval_demand_rules_fired_total",
    ),
    ("datalog.magic_seed_facts", "eval_demand_seed_facts_total"),
    ("pool.steals", "eval_pool_steals_total"),
];

/// Everything a run records. Workloads report operations here; the metric
/// lists are computed from it when the run ends.
pub struct Recorder {
    pub tracer: Tracer,
    obs: Option<ObsEvents>,
    pub epoch: Instant,
    pub setup_s: Vec<f64>,
    samples: BTreeMap<&'static str, Vec<u64>>,
    sums: BTreeMap<&'static str, f64>,
    pub eval: EvalStats,
    /// Tuples committed by the write path inside measured windows.
    pub ops: u64,
    /// Time spent inside the system's calls in measured windows.
    pub measured_ns: u64,
    /// Wall time of the measured windows; what `--seconds` bounds. A paced
    /// workload's window is longer than its busy time.
    pub window_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rounds: usize,
    /// Write throughput of each finished round, and where the counters
    /// stood when the current one began.
    round_rates: Vec<f64>,
    round_start: (u64, u64),
    /// The median of every latency in each finished round, and how many
    /// samples of it earlier rounds took.
    round_p50: BTreeMap<&'static str, Vec<f64>>,
    round_marks: BTreeMap<&'static str, usize>,
    /// `VmHWM` when the first round ended. Later rounds creep a few
    /// percent higher (allocator fragmentation), and how many rounds fit
    /// in `--seconds` depends on the speed of the code under test; the
    /// first round's peak does not.
    first_round_rss_mb: f64,
    step: u32,
    window_scrape: Option<String>,
}

impl Recorder {
    pub fn new(trace: bool) -> Self {
        let epoch = Instant::now();
        Recorder {
            tracer: Tracer::new(epoch, trace, 1),
            obs: trace.then(|| ObsEvents::start(epoch)),
            epoch,
            setup_s: Vec::new(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
            eval: EvalStats::new(),
            ops: 0,
            measured_ns: 0,
            window_ns: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rounds: 0,
            round_rates: Vec::new(),
            round_start: (0, 0),
            round_p50: BTreeMap::new(),
            round_marks: BTreeMap::new(),
            first_round_rss_mb: 0.0,
            step: 0,
            window_scrape: None,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Should another round start? `main` always sets one of the two limits.
    pub fn more_rounds(&self, opts: &RunOptions) -> bool {
        opts.rounds.is_none_or(|cap| self.rounds < cap)
            && opts
                .seconds
                .is_none_or(|cap| (self.window_ns as f64 / 1e9) < cap)
    }

    /// A round (set-up, window, oracle) is over.
    pub fn end_round(&mut self) {
        if self.rounds == 0 {
            self.first_round_rss_mb = peak_rss_mb();
        }
        let (ops, busy_ns) = (
            self.ops - self.round_start.0,
            self.measured_ns - self.round_start.1,
        );
        self.round_rates.push(ops as f64 / (busy_ns as f64 / 1e9));
        self.round_start = (self.ops, self.measured_ns);
        for (name, samples) in &self.samples {
            let mark = self.round_marks.entry(name).or_default();
            if samples.len() > *mark {
                let p50 = percentile_of(&samples[*mark..], 50.0) as f64;
                self.round_p50.entry(name).or_default().push(p50);
                *mark = samples.len();
            }
        }
        self.rounds += 1;
    }

    /// Charge a closed-loop step's time to the measured window.
    pub fn spent(&mut self, busy_ns: u64) {
        self.measured_ns += busy_ns;
        self.window_ns += busy_ns;
    }

    /// Start the next step. On a traced run the program's own span
    /// recording is on for even steps and off for odd ones, so the cost of
    /// tracing is measured between neighbours in one run.
    pub fn begin_step(&mut self) {
        self.step += 1;
        let obs_on = self.obs.is_some() && self.step.is_multiple_of(2);
        self.tracer.set_step(self.step, obs_on);
        if let Some(obs) = &mut self.obs {
            obs.drain_if_due();
            if obs_on {
                obs_trace::enable();
            } else {
                obs_trace::disable();
            }
        }
    }

    pub fn sample(&mut self, name: &'static str, ns: u64) {
        self.samples.entry(name).or_default().push(ns);
    }

    /// One exchange latency sample; a traced run also files it by whether
    /// the program was recording spans during it.
    pub fn exchange_sample(&mut self, ns: u64) {
        self.sample("exchange", ns);
        if self.traced() {
            let side = if self.step.is_multiple_of(2) {
                "exchange.traced"
            } else {
                "exchange.untraced"
            };
            self.sample(side, ns);
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.sums.insert(name, value);
    }

    /// Count one attempted operation and whether it did what it should.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Fold the reports of one exchange into the per-layer sums.
    pub fn absorb_reports(&mut self, reports: &[ExchangeReport]) {
        for report in reports {
            let round = match report.strategy {
                ExchangeStrategy::IncrementalInsertion => "core.insert_round_s",
                ExchangeStrategy::IncrementalDeletion | ExchangeStrategy::DRed => {
                    "core.delete_round_s"
                }
                ExchangeStrategy::FullRecomputation => "core.recompute_round_s",
            };
            self.add(round, report.duration.as_secs_f64());
            self.eval.merge(&report.eval_stats);
        }
    }

    /// Open a measured window: remember where the program's exported
    /// series stand, so the window is charged only its own share.
    pub fn window_open(&mut self) {
        if self.traced() {
            self.window_scrape = Some(orchestra_obs::global().render());
        }
    }

    /// Close the window. A series named in `required` that the program
    /// does not export is a broken benchmark, never a silent zero.
    pub fn window_close(&mut self, required: &[&str]) {
        obs_trace::disable();
        if let Some(obs) = &mut self.obs {
            obs.drain();
        }
        let Some(before) = self.window_scrape.take() else {
            return;
        };
        let after = orchestra_obs::global().render();
        for (metric, series) in SCRAPED {
            match scrape(&after, series) {
                Some(now) => {
                    let then = scrape(&before, series).unwrap_or(0.0);
                    self.add(metric, now - then);
                }
                None if required.contains(metric) => {
                    panic!("the program no longer exports `{series}`, which `{metric}` reads")
                }
                None => {}
            }
        }
    }

    /// End-of-round storage statistics; the last round's stand.
    pub fn storage_stats(&mut self, cdss: &Cdss) {
        if !self.traced() {
            return;
        }
        let intern = cdss.intern_stats();
        self.set(
            "storage.total_tuples",
            cdss.instance_stats().total_tuples as f64,
        );
        self.set("storage.pool_values", intern.distinct as f64);
        self.set("storage.pool_live_values", cdss.pool_live_values() as f64);
        self.set("storage.intern_hit_ratio", intern.hit_rate());
        self.set("storage.compactions", cdss.compactions_run() as f64);
        self.set("pool.threads", cdss.eval_threads() as f64);
    }

    /// The round medians' quiet quartile: the median latency of the
    /// rounds the shared host disturbed least.
    fn quiet_p50(&self, name: &str) -> f64 {
        quiet_quartile(self.round_p50s(name), Better::Lower)
    }

    /// Each finished round's median of a latency, in nanoseconds.
    pub fn round_p50s(&self, name: &str) -> &[f64] {
        self.round_p50.get(name).map_or(&[], Vec::as_slice)
    }

    fn p(&self, name: &str, pct: f64) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |s| percentile_of(s, pct) as f64)
    }

    pub fn sample_count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "exchange_p50_ms" => self.quiet_p50("exchange") / 1e6,
                    "exchange_ops_per_s" => quiet_quartile(&self.round_rates, Better::Higher),
                    "read_p50_us" => self.quiet_p50("read") / 1e3,
                    "peak_rss_mb" => self.first_round_rss_mb,
                    "setup_s" => quiet_quartile(&self.setup_s, Better::Lower),
                    other => unreachable!("end-to-end metric `{other}` has no formula"),
                };
                (m.name, value)
            })
            .collect()
    }

    /// The per-layer metrics, in catalogue order. A layer a workload does
    /// not reach reports 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let span = |name: &str| self.tracer.total(name).0;
        let exchange_s = span("core.exchange");
        let rounds_s = self.sum("core.insert_round_s")
            + self.sum("core.delete_round_s")
            + self.sum("core.recompute_round_s");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.name {
                    "workload.gen_s" => span("workload.gen"),
                    "workload.gen_lag_p99_us" => self.p("gen_lag", 99.0) / 1e3,
                    "core.edit_apply_s" => span("core.edit_apply"),
                    "core.exchange_s" => exchange_s,
                    "core.exchange_other_s" => (exchange_s - rounds_s).max(0.0),
                    "core.exchange_p90_ms" => self.p("exchange", 90.0) / 1e6,
                    "datalog.rule_applications" => self.eval.rule_applications as f64,
                    "datalog.candidates_scanned" => self.eval.candidates_scanned as f64,
                    "datalog.index_probes" => self.eval.index_probes as f64,
                    "datalog.tuples_derived" => self.eval.tuples_derived as f64,
                    "datalog.plan_cache_hits" => self.eval.plan_cache_hits as f64,
                    "datalog.useful_ratio" => ratio(
                        self.eval.tuples_inserted as f64,
                        self.eval.tuples_derived as f64,
                    ),
                    "datalog.point_query_inproc_p50_us" => self.p("inproc_query", 50.0) / 1e3,
                    "pool.tasks_spawned" => self.eval.parallel_tasks_spawned as f64,
                    "pool.chunks_merged" => self.eval.parallel_chunks_merged as f64,
                    "provenance.first_read_s" => span("provenance.first_read"),
                    "provenance.warm_read_s" => span("provenance.warm_read"),
                    "provenance.first_read_p50_ms" => self.p("prov_first", 50.0) / 1e6,
                    "provenance.expr_derivations_mean" => {
                        ratio(self.sum("prov.derivations"), self.sum("prov.reads"))
                    }
                    "snapshot.latest_load_ns" => {
                        let (s, count) = self.tracer.total("snapshot.latest_load");
                        ratio(s * 1e9, count as f64)
                    }
                    "persist.checkpoint_p50_ms" => self.p("checkpoint", 50.0) / 1e6,
                    "persist.recovery_s" => self.p("recovery", 50.0) / 1e9,
                    "persist.disk_bytes_per_user_byte" => ratio(
                        self.sum("persist.disk_bytes"),
                        self.sum("persist.user_bytes"),
                    ),
                    "persist.encode_db_s" => span("persist.encode_db"),
                    "net.publish_p50_us" => self.p("publish", 50.0) / 1e3,
                    "net.query_p99_us" => self.p("query", 99.0) / 1e3,
                    "net.server_handle_p50_us.publish-edits" => {
                        self.p("srv.publish-edits", 50.0) / 1e3
                    }
                    "net.server_handle_p50_us.update-exchange" => {
                        self.p("srv.update-exchange", 50.0) / 1e3
                    }
                    "net.server_handle_p50_us.query-certain-where" => {
                        self.p("srv.query-certain-where", 50.0) / 1e3
                    }
                    "net.wire_overhead_p50_us" if self.sample_count("query") > 0 => {
                        (self.p("query", 50.0) - self.p("inproc_query", 50.0)) / 1e3
                    }
                    "net.req_bytes_per_op" => {
                        ratio(self.sum("net.req_bytes"), self.sum("net.requests"))
                    }
                    "net.resp_bytes_per_op" => {
                        ratio(self.sum("net.resp_bytes"), self.sum("net.requests"))
                    }
                    "obs.trace_overhead_ratio" => {
                        ratio(
                            self.p("exchange.traced", 50.0),
                            self.p("exchange.untraced", 50.0),
                        ) - 1.0
                    }
                    "obs.trace_events" => {
                        (self.tracer.spans().len() + self.obs.as_ref().map_or(0, ObsEvents::len))
                            as f64
                    }
                    // Everything else is a plain sum a workload, a report
                    // or a scrape filed under the metric's own name.
                    name => self.sum(name),
                };
                (m.name, value)
            })
            .collect()
    }

    /// The program's own trace events, on a traced run.
    pub fn obs_events(&self) -> Option<&ObsEvents> {
        self.obs.as_ref()
    }
}

/// `VmHWM` of this process: the most resident memory it has held so far.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Apply one peer's edits and exchange them: the write step of the three
/// in-process exchange workloads. Returns its latency in nanoseconds.
pub fn exchange_step(
    rec: &mut Recorder,
    cdss: &mut Cdss,
    peer: &str,
    inserts: Vec<Edit>,
    deletes: Vec<Edit>,
) -> u64 {
    let ops = (inserts.len() + deletes.len()) as u64;
    let (applied, apply_ns) = rec.tracer.timed("core.edit_apply", || {
        for (relation, tuple) in inserts {
            cdss.insert_local(peer, &relation, tuple)?;
        }
        for (relation, tuple) in deletes {
            cdss.delete_local(peer, &relation, tuple)?;
        }
        Ok::<(), orchestra_core::CdssError>(())
    });
    let (exchanged, exchange_ns) = rec
        .tracer
        .timed("core.exchange", || cdss.update_exchange(peer));
    let published = match (&applied, &exchanged) {
        (Ok(()), Ok((publish, reports))) => {
            rec.absorb_reports(reports);
            publish.total_ops() as u64
        }
        _ => 0,
    };
    rec.check(published == ops, || {
        format!(
            "exchange of {peer}: {ops} edits sent, {published} published ({applied:?}, {:?})",
            exchanged.as_ref().err()
        )
    });
    rec.ops += published;
    rec.exchange_sample(apply_ns + exchange_ns);
    apply_ns + exchange_ns
}

/// A relation of a peer that point reads go to.
#[derive(Debug, Clone)]
pub struct ReadTarget {
    pub peer: String,
    pub relation: String,
    pub arity: usize,
}

impl ReadTarget {
    /// A peer's first relation.
    pub fn first_relation(peer: &orchestra_workload::GeneratedPeer) -> Self {
        let (relation, attrs) = &peer.relations[0];
        ReadTarget {
            peer: peer.id.clone(),
            relation: relation.clone(),
            arity: attrs.len() + 1,
        }
    }

    /// The binding that pins the key column.
    pub fn binding(&self, key: i64) -> Vec<Option<Value>> {
        let mut binding = vec![None; self.arity];
        binding[0] = Some(Value::int(key));
        binding
    }
}

/// Is this a non-empty answer whose every tuple carries the bound key?
pub fn answers_key(answer: &[Tuple], key: i64) -> bool {
    !answer.is_empty() && answer.iter().all(|t| t[0] == Value::int(key))
}

/// One in-process point read of certain answers from the latest snapshot:
/// the read op of the workloads that have no reader of their own.
pub fn point_read(
    rec: &mut Recorder,
    reader: &SnapshotReader,
    target: &ReadTarget,
    key: i64,
) -> u64 {
    let binding = target.binding(key);
    let (view, load_ns) = rec.tracer.timed("snapshot.latest_load", || reader.latest());
    let (answer, query_ns) = rec.tracer.timed("datalog.point_query", || {
        view.query_certain_bound(&target.peer, &target.relation, &binding)
    });
    rec.sample("inproc_query", query_ns);
    rec.sample("read", load_ns + query_ns);
    rec.check(answer.as_ref().is_ok_and(|a| answers_key(a, key)), || {
        format!("point read of key {key} in {}: {answer:?}", target.relation)
    });
    load_ns + query_ns
}

/// Length and CRC-32 of the canonical encoding of every relation. Two
/// databases with equal digests encode to the same bytes; relation by
/// relation keeps the check from doubling the process's peak memory.
///
/// `span` names the work in the trace: `persist.encode_db` where the
/// codec is a layer the workload is about, `bench.oracle` elsewhere.
pub fn digest(rec: &mut Recorder, db: &Database, span: &'static str) -> Vec<(String, usize, u32)> {
    let (out, _) = rec.tracer.timed(span, || {
        db.relations()
            .map(|rel| {
                let bytes = rel.to_bytes();
                (rel.name().to_string(), bytes.len(), crc32(&bytes))
            })
            .collect()
    });
    out
}

/// The output oracle of the in-process workloads: the incrementally
/// maintained database must encode to the same bytes as the same system
/// after `recompute_all()`.
pub fn check_against_recompute(rec: &mut Recorder, cdss: &mut Cdss, span: &'static str) {
    let incremental = digest(rec, cdss.database(), span);
    let recomputed = cdss
        .recompute_all()
        .map(|_| digest(rec, cdss.database(), span));
    rec.check(
        recomputed.as_ref().is_ok_and(|full| *full == incremental),
        || {
            let differing: Vec<&str> = match &recomputed {
                Ok(full) => incremental
                    .iter()
                    .zip(full)
                    .filter(|(a, b)| a != b)
                    .map(|(a, _)| a.0.as_str())
                    .collect(),
                Err(_) => Vec::new(),
            };
            format!(
                "oracle: incremental state differs from recompute_all() in {differing:?} ({:?})",
                recomputed.as_ref().err()
            )
        },
    );
}
