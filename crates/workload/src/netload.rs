//! Latency summaries shared by the service benchmarks: nearest-rank
//! percentiles over client-side round-trip samples, and a parser for the
//! per-request `request_latency_seconds` histograms of a server's metrics
//! exposition (`Metrics` request, or `ServerHandle::metrics_text`).

use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_net::scenario::example_scenario;
    use orchestra_net::{serve, EditBatch, NetClient};
    use orchestra_storage::tuple::int_tuple;
    use std::time::Instant;

    #[test]
    fn scraped_server_histograms_are_consistent_with_client_percentiles() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let mut net = NetClient::connect(handle.addr()).unwrap();
        let mut samples = Vec::new();
        for batch in 0..20i64 {
            let tuples = (0..4i64)
                .map(|op| {
                    let v = batch * 4 + op;
                    int_tuple(&[v, v + 1, v + 2])
                })
                .collect();
            let edits = EditBatch::for_peer("PGUS").insert("G", tuples);
            let sent = Instant::now();
            net.publish_edits(edits).unwrap();
            samples.push(sent.elapsed());
        }
        net.update_exchange(None).unwrap();
        let client = LatencySummary::from_samples(&mut samples);
        let scraped = parse_server_latencies(&net.metrics().unwrap());
        let server_latency = |label: &str| {
            scraped
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("no scraped {label} summary"))
        };
        let server = server_latency("publish-edits");

        // The server saw exactly the requests the client timed.
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
        assert_eq!(server_latency("update-exchange").count, 1);

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
