//! The metric catalogue (names, units, bounds, sources) and the few
//! statistics the harness reports: nearest-rank percentiles, the rule for
//! which tail a sample count supports, and quartiles for run-to-run
//! spread. `BENCHMARK.json` repeats the catalogue; a test keeps the two in
//! step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// emits every one of them on an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "exchange_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exchange_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer number comes from. All of them are taken from
/// outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A benchmark-side span around a public call.
    Span,
    /// A public return value or accessor (`ExchangeReport`, `EvalStats`,
    /// `RecoveryReport`, `instance_stats()`, file sizes, ...).
    Return,
    /// A read-only scrape of a series the program already exports through
    /// `orchestra_obs`.
    Obs,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Return => "return value",
            Source::Obs => "obs",
        }
    }
}

/// A per-layer metric of the traced run. The name's prefix is the crate
/// that does the work.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Counts that must repeat exactly between two fixed-round runs of the
    /// same binary and seed (`--selfcheck` fails if they differ at all).
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    exact: bool,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        exact,
    }
}

use Better::{Higher, Lower};
use Source::{Obs, Return, Span};

pub const PER_LAYER: &[PerLayer] = &[
    layer("workload.gen_s", "s", Lower, Span, false),
    layer("workload.gen_lag_p99_us", "us", Lower, Span, false),
    layer("core.edit_apply_s", "s", Lower, Span, false),
    layer("core.exchange_s", "s", Lower, Span, false),
    layer("core.insert_round_s", "s", Lower, Return, false),
    layer("core.delete_round_s", "s", Lower, Return, false),
    layer("core.recompute_round_s", "s", Lower, Return, false),
    layer("core.exchange_other_s", "s", Lower, Span, false),
    layer("core.exchange_p90_ms", "ms", Lower, Span, false),
    layer("datalog.rule_applications", "count", Lower, Return, true),
    layer("datalog.candidates_scanned", "count", Lower, Return, true),
    layer("datalog.index_probes", "count", Lower, Return, true),
    layer("datalog.tuples_derived", "count", Lower, Return, true),
    layer("datalog.plan_cache_hits", "count", Higher, Return, true),
    layer("datalog.useful_ratio", "ratio", Higher, Return, false),
    layer("datalog.demand_rules_fired", "count", Lower, Obs, false),
    layer("datalog.magic_seed_facts", "count", Lower, Obs, false),
    layer(
        "datalog.point_query_inproc_p50_us",
        "us",
        Lower,
        Span,
        false,
    ),
    layer("pool.threads", "count", Higher, Return, false),
    layer("pool.tasks_spawned", "count", Lower, Return, false),
    layer("pool.chunks_merged", "count", Lower, Return, false),
    layer("pool.steals", "count", Lower, Obs, false),
    layer("storage.total_tuples", "count", Lower, Return, true),
    layer("storage.pool_values", "count", Lower, Return, false),
    layer("storage.pool_live_values", "count", Lower, Return, false),
    layer("storage.intern_hit_ratio", "ratio", Higher, Return, false),
    layer("storage.compactions", "count", Lower, Return, false),
    layer("provenance.first_read_s", "s", Lower, Span, false),
    layer("provenance.warm_read_s", "s", Lower, Span, false),
    layer("provenance.first_read_p50_ms", "ms", Lower, Span, false),
    layer(
        "provenance.expr_derivations_mean",
        "count",
        Lower,
        Return,
        false,
    ),
    layer("snapshot.publish_s", "s", Lower, Obs, false),
    layer("snapshot.epochs_published", "count", Lower, Return, false),
    layer("snapshot.latest_load_ns", "ns", Lower, Span, false),
    layer("persist.wal_append_s", "s", Lower, Obs, false),
    layer("persist.wal_fsync_s", "s", Lower, Obs, false),
    layer("persist.snapshot_write_s", "s", Lower, Obs, false),
    layer("persist.checkpoint_p50_ms", "ms", Lower, Span, false),
    layer("persist.recovery_s", "s", Lower, Span, false),
    layer("persist.replayed_epochs", "count", Lower, Return, true),
    layer("persist.wal_bytes", "bytes", Lower, Return, true),
    layer("persist.snapshot_bytes", "bytes", Lower, Return, true),
    layer("persist.user_bytes", "bytes", Lower, Return, true),
    layer(
        "persist.disk_bytes_per_user_byte",
        "ratio",
        Lower,
        Return,
        false,
    ),
    layer("persist.encode_db_s", "s", Lower, Span, false),
    layer("net.publish_p50_us", "us", Lower, Span, false),
    layer("net.query_p99_us", "us", Lower, Span, false),
    layer(
        "net.server_handle_p50_us.publish-edits",
        "us",
        Lower,
        Obs,
        false,
    ),
    layer(
        "net.server_handle_p50_us.update-exchange",
        "us",
        Lower,
        Obs,
        false,
    ),
    layer(
        "net.server_handle_p50_us.query-certain-where",
        "us",
        Lower,
        Obs,
        false,
    ),
    layer("net.wire_overhead_p50_us", "us", Lower, Span, false),
    layer("net.req_bytes_per_op", "bytes", Lower, Return, true),
    layer("net.resp_bytes_per_op", "bytes", Lower, Return, true),
    layer("obs.trace_overhead_ratio", "ratio", Lower, Span, false),
    layer("obs.trace_events", "count", Lower, Return, false),
];

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample set and take one percentile of it.
pub fn percentile_of(samples: &[u64], pct: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, pct)
}

/// The tails a report may quote, lowest first, with their per-mille rank
/// (integer arithmetic: `100 * (1 - 0.9)` is not 10 in floating point).
const TAILS: [(f64, usize); 4] = [(50.0, 500), (90.0, 900), (99.0, 990), (99.9, 999)];

/// The highest percentile that still has at least ten samples beyond it;
/// a tail quoted past this one is noise. `None` when even the median is
/// not supported (fewer than 20 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, per_mille)| samples * (1000 - per_mille) / 1000 >= 10)
        .map(|(pct, _)| *pct)
        .next_back()
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the better end (nearest rank):
/// the lower quartile of a latency, the upper quartile of a rate.
///
/// The rounds of a run are replicas of one experiment (the same steps on a
/// fresh system of the same size), so what differs between them is the
/// shared host: a neighbour on the machine only ever adds time, for tens
/// of seconds at a stretch, and a median over the whole run flips when
/// such a stretch covers half of it. The quiet quarter of the rounds does
/// not move until three quarters of the run are disturbed.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len().div_ceil(4) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `--compare` judges spread the
/// way the driver does. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond_the_tail() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 90.0), 90);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile_of(&[3, 1, 2], 50.0), 2);
    }

    #[test]
    fn the_quiet_quartile_ignores_disturbed_rounds() {
        // Eight rounds, five of them slowed 1.8x by a neighbour.
        let latency = [10.1, 18.0, 18.3, 10.0, 17.9, 10.2, 18.1, 18.2];
        assert_eq!(quiet_quartile(&latency, Better::Lower), 10.1);
        let rate = [990.0, 550.0, 540.0, 1000.0, 560.0, 980.0, 555.0, 545.0];
        assert_eq!(quiet_quartile(&rate, Better::Higher), 990.0);
        // One round is its own quartile; four give the best one.
        assert_eq!(quiet_quartile(&[7.0], Better::Lower), 7.0);
        assert_eq!(quiet_quartile(&[4.0, 2.0, 3.0, 5.0], Better::Lower), 2.0);
        assert_eq!(quiet_quartile(&[4.0, 2.0, 3.0, 5.0, 1.0], Better::Lower), 2.0);
        assert_eq!(quiet_quartile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("workloads"),
            crate::workloads::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
        for (m, spec_m) in END_TO_END
            .iter()
            .zip(spec.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(spec_m.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                spec_m.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
            assert_eq!(spec_m.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
    }
}
