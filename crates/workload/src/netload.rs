//! Client-driven network load mode: drive a running `orchestrad` server
//! with concurrent [`NetClient`] workers.
//!
//! The in-process generator ([`crate::generator`]) measures the engine;
//! this module measures the *service*: N worker threads each open their own
//! connection, publish deterministic edit batches against the server's
//! logical relations, and one final exchange folds everything in. The
//! report carries admitted-operation throughput and the exchange summary,
//! making protocol overhead visible next to the in-process numbers (see
//! the `fig_net` bench).

use std::time::{Duration, Instant};

use orchestra_net::{EditBatch, ExchangeSummary, NetClient, NetError};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::Value;

/// One publish target: `(peer, relation, arity)`.
pub type NetTarget = (String, String, usize);

/// Knobs of a network load run.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Server address, e.g. `"127.0.0.1:4747"`.
    pub addr: String,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Batches each client publishes.
    pub batches_per_client: usize,
    /// Insert operations per batch.
    pub ops_per_batch: usize,
    /// The relations to publish into, round-robin per batch. Defaults to
    /// the three relations of `orchestrad`'s example scenario.
    pub targets: Vec<NetTarget>,
    /// Seed folded into the generated tuple values.
    pub seed: u64,
    /// Run a final `UpdateExchange` (all peers) after the publish phase.
    pub exchange_at_end: bool,
    /// Scrape the server's metrics exposition after the run and report its
    /// per-request latency histograms next to the client-side percentiles
    /// (`Metrics` request; a failed scrape leaves
    /// [`NetLoadReport::server_latencies`] empty).
    pub scrape_metrics: bool,
    /// Bound point queries to issue after the exchange (`--point-queries`
    /// mode; 0 skips the phase). Keys are drawn zipfian (s = 1, hot keys
    /// dominate the way point lookups do in practice) from the distinct
    /// first-column values of the first target relation, and each draw
    /// issues a `QueryCertainWhere` with that value bound — the demand
    /// path over the wire. Round trips are summarized as the
    /// `"query-certain-where"` latency entry.
    pub point_queries: usize,
}

impl Default for NetLoadConfig {
    fn default() -> Self {
        NetLoadConfig {
            addr: "127.0.0.1:4747".to_string(),
            clients: 4,
            batches_per_client: 8,
            ops_per_batch: 25,
            targets: orchestra_net::scenario::example_targets(),
            seed: 42,
            exchange_at_end: true,
            scrape_metrics: true,
            point_queries: 0,
        }
    }
}

/// Outcome of a network load run.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Operations admitted by the server across all clients.
    pub published_ops: u64,
    /// Batches admitted across all clients.
    pub published_batches: u64,
    /// Wall-clock time of the concurrent publish phase.
    pub publish_wall: Duration,
    /// Admitted operations per second of publish wall-clock.
    pub ops_per_sec: f64,
    /// Summary of the final exchange (`None` when `exchange_at_end` is
    /// off).
    pub exchange: Option<ExchangeSummary>,
    /// Wall-clock time of the final exchange.
    pub exchange_wall: Duration,
    /// Request-round-trip latency percentiles per request kind (label,
    /// summary) — `"publish-edits"` across every client call, and
    /// `"update-exchange"` for the final exchange when one ran.
    pub latencies: Vec<(String, LatencySummary)>,
    /// Server-side handle-time percentiles per request kind, scraped from
    /// the server's `request_latency_seconds` histograms
    /// ([`NetLoadConfig::scrape_metrics`]). Server handle time excludes
    /// the network and framing, so each summary is bounded above by its
    /// client-side counterpart (give or take one histogram bucket width).
    pub server_latencies: Vec<(String, LatencySummary)>,
    /// Bound point queries actually issued
    /// ([`NetLoadConfig::point_queries`]; 0 when the phase was skipped or
    /// the target relation came back empty).
    pub point_queries: u64,
    /// Total answer tuples returned across all bound point queries.
    pub point_query_answers: u64,
}

impl NetLoadReport {
    /// The latency summary for one request-kind label, if recorded.
    pub fn latency(&self, label: &str) -> Option<&LatencySummary> {
        self.latencies
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s)
    }

    /// The server-side handle-time summary for one request-kind label, if
    /// the scrape captured it.
    pub fn server_latency(&self, label: &str) -> Option<&LatencySummary> {
        self.server_latencies
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s)
    }
}

/// Percentiles of one request kind's round-trip latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of requests measured.
    pub count: u64,
    /// Median round-trip.
    pub p50: Duration,
    /// 95th-percentile round-trip.
    pub p95: Duration,
    /// 99th-percentile round-trip.
    pub p99: Duration,
}

impl LatencySummary {
    /// Summarize a batch of samples (sorted in place). Empty input yields
    /// the all-zero summary.
    pub fn from_samples(samples: &mut [Duration]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        LatencySummary {
            count: samples.len() as u64,
            p50: percentile(samples, 50.0),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
        }
    }
}

/// The `pct`-th percentile of an ascending-sorted sample set, by the
/// nearest-rank method (`pct` in `0..=100`). Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Parse the per-request-kind latency summaries out of a server's metrics
/// exposition: the `request_latency_seconds{request=...,quantile=...}`
/// and `request_latency_seconds_count{request=...}` lines a `Metrics`
/// request returns. Kinds with a zero count are dropped (the server
/// registers its whole request vocabulary up front).
pub fn parse_server_latencies(exposition: &str) -> Vec<(String, LatencySummary)> {
    fn entry<'a>(
        out: &'a mut Vec<(String, LatencySummary)>,
        label: &str,
    ) -> &'a mut LatencySummary {
        if let Some(i) = out.iter().position(|(l, _)| l == label) {
            &mut out[i].1
        } else {
            out.push((label.to_string(), LatencySummary::default()));
            &mut out.last_mut().expect("just pushed").1
        }
    }

    let mut out: Vec<(String, LatencySummary)> = Vec::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("request_latency_seconds_count{request=\"") {
            let Some((label, value)) = rest.split_once("\"} ") else {
                continue;
            };
            let Ok(n) = value.trim().parse::<u64>() else {
                continue;
            };
            entry(&mut out, label).count = n;
        } else if let Some(rest) = line.strip_prefix("request_latency_seconds{request=\"") {
            let Some((label, rest)) = rest.split_once("\",quantile=\"") else {
                continue;
            };
            let Some((quantile, value)) = rest.split_once("\"} ") else {
                continue;
            };
            let Ok(secs) = value.trim().parse::<f64>() else {
                continue;
            };
            let d = Duration::from_secs_f64(secs.max(0.0));
            let summary = entry(&mut out, label);
            match quantile {
                "0.5" => summary.p50 = d,
                "0.95" => summary.p95 = d,
                "0.99" => summary.p99 = d,
                _ => {}
            }
        }
    }
    out.retain(|(_, s)| s.count > 0);
    out
}

/// The deterministic tuple a given `(seed, client, batch, op)` coordinate
/// publishes: values are spread so distinct coordinates rarely collide,
/// keeping batch sizes honest under set semantics.
fn tuple_for(seed: u64, client: usize, batch: usize, op: usize, arity: usize) -> Vec<i64> {
    // All coordinate bits stay below the 2^31 mask: client in 24..31,
    // batch in 14..24, op in 0..14 — distinct coordinates yield distinct
    // values (up to 128 clients, 1024 batches, 16384 ops per batch).
    let base = seed
        .wrapping_mul(1_000_003)
        .wrapping_add((client as u64) << 24)
        .wrapping_add((batch as u64) << 14)
        .wrapping_add(op as u64) as i64;
    (0..arity)
        .map(|col| (base.wrapping_add(col as i64 * 7919)) & 0x7FFF_FFFF)
        .collect()
}

/// One step of a xorshift64 generator — the same dependency-free PRNG the
/// bench crate uses for deterministic workloads.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Draw a rank in `0..n` zipfian (exponent 1): rank `i` is picked with
/// probability proportional to `1/(i+1)`, so a handful of hot keys absorb
/// most draws — the canonical point-lookup skew. Deterministic in `state`.
pub fn zipf_rank(state: &mut u64, n: usize) -> usize {
    debug_assert!(n > 0);
    // Inverse-CDF over the harmonic weights. n is a key universe (small),
    // so the linear scan beats precomputing a table per call site.
    let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
    let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / (i + 1) as f64;
        if u < acc {
            return i;
        }
    }
    n - 1
}

/// The post-exchange bound point-query phase: draw keys zipfian from the
/// relation's live first-column vocabulary and issue `QueryCertainWhere`
/// round trips, timing each. Returns `(queries, answers, samples)`.
fn run_point_queries(config: &NetLoadConfig) -> Result<(u64, u64, Vec<Duration>), NetError> {
    let mut client = NetClient::connect_with_retry(&*config.addr, 20, Duration::from_millis(50))?;
    let (peer, relation, arity) = &config.targets[0];
    // The key universe is whatever actually landed: distinct first-column
    // values, sorted so the zipfian ranks are deterministic.
    let mut universe: Vec<Value> = client
        .query_local(peer, relation)?
        .into_iter()
        .filter(|t| t.arity() > 0)
        .map(|t| t[0].clone())
        .collect();
    universe.sort();
    universe.dedup();
    if universe.is_empty() {
        return Ok((0, 0, Vec::new()));
    }

    let mut state = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut answers = 0u64;
    let mut samples = Vec::with_capacity(config.point_queries);
    for _ in 0..config.point_queries {
        let key = universe[zipf_rank(&mut state, universe.len())].clone();
        let mut binding = vec![None; *arity];
        binding[0] = Some(key);
        let sent = Instant::now();
        let hits = client.query_certain_where(peer, relation, binding)?;
        samples.push(sent.elapsed());
        answers += hits.len() as u64;
    }
    Ok((config.point_queries as u64, answers, samples))
}

/// Run the load: spawn `clients` worker threads publishing
/// `batches_per_client` batches each, then (optionally) run one update
/// exchange over a fresh connection.
pub fn run_net_load(config: &NetLoadConfig) -> Result<NetLoadReport, NetError> {
    let publish_start = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for client_idx in 0..config.clients {
        let cfg = config.clone();
        handles.push(std::thread::spawn(
            move || -> Result<(u64, u64, Vec<Duration>), NetError> {
                let mut client =
                    NetClient::connect_with_retry(&*cfg.addr, 20, Duration::from_millis(50))?;
                let mut ops_admitted = 0u64;
                let mut batches_admitted = 0u64;
                let mut samples = Vec::with_capacity(cfg.batches_per_client);
                for batch_idx in 0..cfg.batches_per_client {
                    let (peer, relation, arity) =
                        &cfg.targets[(client_idx + batch_idx) % cfg.targets.len()];
                    let tuples: Vec<_> = (0..cfg.ops_per_batch)
                        .map(|op| {
                            int_tuple(&tuple_for(cfg.seed, client_idx, batch_idx, op, *arity))
                        })
                        .collect();
                    let batch = EditBatch::for_peer(peer.clone()).insert(relation.clone(), tuples);
                    let sent = Instant::now();
                    let (_seq, ops) = client.publish_edits(batch)?;
                    samples.push(sent.elapsed());
                    ops_admitted += ops;
                    batches_admitted += 1;
                }
                Ok((ops_admitted, batches_admitted, samples))
            },
        ));
    }

    // Join every worker before reporting, so a failure in one client never
    // leaves the others publishing detached against the server.
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut published_ops = 0u64;
    let mut published_batches = 0u64;
    let mut publish_samples: Vec<Duration> = Vec::new();
    let mut first_error = None;
    for outcome in outcomes {
        match outcome.map_err(|_| NetError::protocol("load client thread panicked")) {
            Ok(Ok((ops, batches, samples))) => {
                published_ops += ops;
                published_batches += batches;
                publish_samples.extend(samples);
            }
            Ok(Err(e)) | Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let publish_wall = publish_start.elapsed();

    let (exchange, exchange_wall) = if config.exchange_at_end {
        let mut client =
            NetClient::connect_with_retry(&*config.addr, 20, Duration::from_millis(50))?;
        let start = Instant::now();
        let summary = client.update_exchange(None)?;
        (Some(summary), start.elapsed())
    } else {
        (None, Duration::ZERO)
    };

    // Point queries run after the exchange so the zipfian draw sees the
    // folded-in instance (the phase the mode exists to measure).
    let (point_queries, point_query_answers, mut point_samples) = if config.point_queries > 0 {
        run_point_queries(config)?
    } else {
        (0, 0, Vec::new())
    };

    let mut latencies = Vec::new();
    if !publish_samples.is_empty() {
        latencies.push((
            "publish-edits".to_string(),
            LatencySummary::from_samples(&mut publish_samples),
        ));
    }
    if exchange.is_some() {
        latencies.push((
            "update-exchange".to_string(),
            LatencySummary::from_samples(&mut [exchange_wall]),
        ));
    }
    if !point_samples.is_empty() {
        latencies.push((
            "query-certain-where".to_string(),
            LatencySummary::from_samples(&mut point_samples),
        ));
    }

    // Scrape the server's own histograms last, so the counters cover the
    // whole run. A failure (older server, connection refused) leaves the
    // server-side summaries empty rather than failing the load report.
    let server_latencies = if config.scrape_metrics {
        NetClient::connect_with_retry(&*config.addr, 20, Duration::from_millis(50))
            .and_then(|mut client| client.metrics())
            .map(|text| parse_server_latencies(&text))
            .unwrap_or_default()
    } else {
        Vec::new()
    };

    let secs = publish_wall.as_secs_f64();
    Ok(NetLoadReport {
        published_ops,
        published_batches,
        publish_wall,
        ops_per_sec: if secs > 0.0 {
            published_ops as f64 / secs
        } else {
            0.0
        },
        exchange,
        exchange_wall,
        latencies,
        server_latencies,
        point_queries,
        point_query_answers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_net::scenario::example_scenario;
    use orchestra_net::serve;

    #[test]
    fn load_mode_drives_a_server() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let config = NetLoadConfig {
            addr: handle.addr().to_string(),
            clients: 3,
            batches_per_client: 4,
            ops_per_batch: 5,
            ..NetLoadConfig::default()
        };
        let report = run_net_load(&config).unwrap();
        assert_eq!(report.published_batches, 12);
        assert_eq!(report.published_ops, 60);
        let exchange = report.exchange.clone().expect("exchange ran");
        assert_eq!(exchange.batches_applied, 12);
        assert!(exchange.inserted > 0);
        assert!(report.ops_per_sec > 0.0);

        let publish = report.latency("publish-edits").expect("publish latency");
        assert_eq!(publish.count, 12);
        assert!(publish.p50 > Duration::ZERO);
        assert!(publish.p50 <= publish.p95 && publish.p95 <= publish.p99);
        let exch = report.latency("update-exchange").expect("exchange latency");
        assert_eq!(exch.count, 1);
        assert_eq!(exch.p50, report.exchange_wall);

        let cdss = handle.stop_and_join();
        // Every admitted edit landed: the union of the peers' instances
        // covers at least the distinct published tuples.
        assert!(cdss.total_output_tuples() > 0);
    }

    #[test]
    fn point_query_mode_reports_bound_latencies() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let config = NetLoadConfig {
            addr: handle.addr().to_string(),
            clients: 2,
            batches_per_client: 3,
            ops_per_batch: 4,
            point_queries: 25,
            ..NetLoadConfig::default()
        };
        let report = run_net_load(&config).unwrap();
        assert_eq!(report.point_queries, 25);
        let bound = report
            .latency("query-certain-where")
            .expect("point-query latency summary");
        assert_eq!(bound.count, 25);
        assert!(bound.p50 > Duration::ZERO);
        assert!(bound.p50 <= bound.p95 && bound.p95 <= bound.p99);

        // Every bound answer matches the filtered full instance: the hot
        // key (zipf rank 0) is the smallest first-column value published.
        let (peer, relation, _) = &config.targets[0];
        let mut client = NetClient::connect(handle.addr()).unwrap();
        let full = client.query_certain(peer, relation).unwrap();
        let hot = full.iter().map(|t| t[0].clone()).min().unwrap();
        let mut binding = vec![None; full[0].arity()];
        binding[0] = Some(hot.clone());
        let hits = client.query_certain_where(peer, relation, binding).unwrap();
        let expected: Vec<_> = full.iter().filter(|t| t[0] == hot).cloned().collect();
        assert_eq!(hits, expected);
        assert!(report.point_query_answers >= report.point_queries);

        handle.stop_and_join();
    }

    #[test]
    fn zipf_draw_is_skewed_and_deterministic() {
        let mut a = 7u64;
        let mut b = 7u64;
        let draws_a: Vec<_> = (0..200).map(|_| zipf_rank(&mut a, 10)).collect();
        let draws_b: Vec<_> = (0..200).map(|_| zipf_rank(&mut b, 10)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same draw sequence");
        assert!(draws_a.iter().all(|&r| r < 10));
        // Rank 0 carries weight 1/H(10) ≈ 34%: it must dominate any
        // single tail rank over 200 draws.
        let count = |r: usize| draws_a.iter().filter(|&&d| d == r).count();
        assert!(count(0) > count(9) + count(8));
        assert!(count(0) > 30);
    }

    #[test]
    fn tuples_are_deterministic_per_coordinate() {
        assert_eq!(tuple_for(1, 0, 0, 0, 3), tuple_for(1, 0, 0, 0, 3));
        assert_ne!(tuple_for(1, 0, 0, 0, 3), tuple_for(1, 0, 0, 1, 3));
        assert_ne!(tuple_for(1, 0, 0, 0, 3), tuple_for(2, 0, 0, 0, 3));
        // The client index must survive the 31-bit mask: concurrent
        // clients publishing into the same relation must not collide.
        assert_ne!(tuple_for(1, 0, 0, 0, 3), tuple_for(1, 7, 0, 0, 3));
        assert_ne!(tuple_for(1, 0, 1, 0, 3), tuple_for(1, 0, 0, 0, 3));
    }

    #[test]
    fn scraped_server_histograms_are_consistent_with_client_percentiles() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let config = NetLoadConfig {
            addr: handle.addr().to_string(),
            clients: 2,
            batches_per_client: 10,
            ops_per_batch: 4,
            ..NetLoadConfig::default()
        };
        let report = run_net_load(&config).unwrap();
        let client = report.latency("publish-edits").expect("client summary");
        let server = report
            .server_latency("publish-edits")
            .expect("scraped server summary");

        // The server saw exactly the requests the clients timed.
        assert_eq!(server.count, client.count);
        assert_eq!(server.count, 20);
        assert!(server.p50 <= server.p95 && server.p95 <= server.p99);
        assert!(server.p99 > Duration::ZERO);

        // Server handle time is a slice of every client round trip, so
        // each server percentile is bounded by the matching client one —
        // allow one log-bucket width (≤12.5%) of histogram rounding.
        let bound = client.p99.mul_f64(1.25) + Duration::from_micros(50);
        assert!(
            server.p99 <= bound,
            "server p99 {:?} exceeds client p99 {:?} by more than a bucket",
            server.p99,
            client.p99
        );

        // The exchange ran over the wire too, so its histogram is there.
        let server_exch = report
            .server_latency("update-exchange")
            .expect("exchange scraped");
        assert_eq!(server_exch.count, 1);

        handle.stop_and_join();
    }

    #[test]
    fn parse_server_latencies_reads_the_exposition_format() {
        let text = "\
# TYPE requests_total counter\n\
requests_total{request=\"stats\"} 3\n\
# TYPE request_latency_seconds histogram\n\
request_latency_seconds{request=\"stats\",quantile=\"0.5\"} 0.000120000\n\
request_latency_seconds{request=\"stats\",quantile=\"0.95\"} 0.000240000\n\
request_latency_seconds{request=\"stats\",quantile=\"0.99\"} 0.000250000\n\
request_latency_seconds_max{request=\"stats\"} 0.000250000\n\
request_latency_seconds_sum{request=\"stats\"} 0.000610000\n\
request_latency_seconds_count{request=\"stats\"} 3\n\
request_latency_seconds{request=\"compact\",quantile=\"0.5\"} 0.000000000\n\
request_latency_seconds_count{request=\"compact\"} 0\n";
        let parsed = parse_server_latencies(text);
        assert_eq!(parsed.len(), 1, "zero-count kinds are dropped");
        let (label, summary) = &parsed[0];
        assert_eq!(label, "stats");
        assert_eq!(summary.count, 3);
        assert_eq!(summary.p50, Duration::from_micros(120));
        assert_eq!(summary.p95, Duration::from_micros(240));
        assert_eq!(summary.p99, Duration::from_micros(250));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7u32], 50.0), 7);
        assert_eq!(percentile(&[7u32], 99.0), 7);

        let mut samples = vec![Duration::from_millis(3), Duration::from_millis(1)];
        let summary = LatencySummary::from_samples(&mut samples);
        assert_eq!(summary.count, 2);
        assert_eq!(summary.p50, Duration::from_millis(1));
        assert_eq!(summary.p99, Duration::from_millis(3));
        assert_eq!(
            LatencySummary::from_samples(&mut []),
            LatencySummary::default()
        );
    }
}
