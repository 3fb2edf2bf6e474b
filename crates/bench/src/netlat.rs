//! The net-latency scenario (the `fig_net_qlat/*` rows): query tail latency
//! while an update exchange holds the server's write lock.
//!
//! A server is started over the three-peer example scenario, a client
//! measures `QueryLocal` round-trips **idle** (no writer), then a bulk
//! edit batch is admitted and a writer thread runs `UpdateExchange` while
//! the client keeps querying — every sample taken strictly inside the
//! exchange window. Lock-free snapshot reads keep the exchanging p99
//! within a small multiple of the idle p99 (reads under the CDSS `RwLock`,
//! removed after four recorded entries of about 2x worse exchange-phase
//! p50, stalled behind the exchange for its full duration).
//!
//! The percentile rows are recorded into `BENCH_joins.json` by
//! `experiments --snapshot`, and `experiments --check` gates the snapshot
//! mode's exchanging p99 (see [`p99_gate`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orchestra_net::{serve, EditBatch, NetClient};
use orchestra_storage::tuple::int_tuple;
use orchestra_storage::Tuple;
use orchestra_workload::netload::LatencySummary;

use crate::snapshot::SnapshotRow;
use crate::Scale;

/// Idle-phase sample count.
const IDLE_SAMPLES: usize = 400;
/// Cap on exchange-phase samples (the phase is bounded by the exchange
/// duration; the cap only bounds memory on very slow machines).
const EXCH_SAMPLE_CAP: usize = 20_000;

/// Outcome of one latency-under-exchange run.
#[derive(Debug, Clone)]
pub struct NetLatency {
    /// `QueryLocal` round-trips with no concurrent writer.
    pub idle: LatencySummary,
    /// `QueryLocal` round-trips taken while the exchange was running.
    pub exchanging: LatencySummary,
    /// Wall-clock duration of the bulk exchange itself.
    pub exchange_wall: Duration,
}

fn connect(addr: std::net::SocketAddr) -> NetClient {
    NetClient::connect_with_retry(addr, 20, Duration::from_millis(50)).expect("connect")
}

/// Run the scenario. The bulk batch grows with `scale` so the exchange
/// window is long enough to sample.
pub fn run_net_latency(scale: Scale) -> NetLatency {
    let handle = serve(orchestra_net::scenario::example_scenario(), "127.0.0.1:0").expect("serve");
    let addr = handle.addr();
    let mut client = connect(addr);

    // Seed and exchange once: queries answer over real rows, plans and the
    // snapshot pipeline are warm before anything is measured.
    let seed: Vec<Tuple> = (0..200i64).map(|i| int_tuple(&[i, i + 1, i + 2])).collect();
    client
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", seed))
        .expect("seed publish");
    client.update_exchange(None).expect("seed exchange");

    let mut idle: Vec<Duration> = Vec::with_capacity(IDLE_SAMPLES);
    for _ in 0..IDLE_SAMPLES {
        let sent = Instant::now();
        client.query_local("PBioSQL", "B").expect("idle query");
        idle.push(sent.elapsed());
    }

    // The bulk batch the measured exchange will fold in.
    let n = scale.entries(2500) as i64;
    let bulk: Vec<Tuple> = (0..n)
        .map(|i| int_tuple(&[10_000 + i, 20_000 + i, 30_000 + i]))
        .collect();
    client
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", bulk))
        .expect("bulk publish");

    let started = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (started, done) = (Arc::clone(&started), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut writer = connect(addr);
            started.store(true, Ordering::SeqCst);
            let begin = Instant::now();
            writer.update_exchange(None).expect("bulk exchange");
            let wall = begin.elapsed();
            done.store(true, Ordering::SeqCst);
            wall
        })
    };
    while !started.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    // Sample until the exchange finishes: at least one query necessarily
    // overlaps the exchange window.
    let mut exchanging: Vec<Duration> = Vec::new();
    loop {
        let sent = Instant::now();
        client
            .query_local("PBioSQL", "B")
            .expect("exchange-phase query");
        if exchanging.len() < EXCH_SAMPLE_CAP {
            exchanging.push(sent.elapsed());
        }
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    let exchange_wall = writer.join().expect("writer thread");
    handle.stop_and_join();

    NetLatency {
        idle: LatencySummary::from_samples(&mut idle),
        exchanging: LatencySummary::from_samples(&mut exchanging),
        exchange_wall,
    }
}

/// Render a run's percentiles as `BENCH_joins.json` rows. `median_ns`
/// carries the percentile value; `ops` the sample count behind it.
pub fn latency_rows(lat: &NetLatency) -> Vec<SnapshotRow> {
    let cell = |phase: &str, pct: &str, value: Duration, count: u64| SnapshotRow {
        workload: format!("fig_net_qlat/snapshot/{phase}_{pct}"),
        median_ns: value.as_nanos(),
        ops: count as usize,
        ns_per_op: value.as_nanos() as f64,
        runs: 1,
    };
    vec![
        cell("idle", "p50", lat.idle.p50, lat.idle.count),
        cell("idle", "p99", lat.idle.p99, lat.idle.count),
        cell("exch", "p50", lat.exchanging.p50, lat.exchanging.count),
        cell("exch", "p99", lat.exchanging.p99, lat.exchanging.count),
    ]
}

/// The CI gate: with snapshot reads, the exchanging p99 must stay within a
/// small multiple of the idle p99. The absolute slack absorbs scheduler
/// noise on loaded CI machines; reads that waited for the exchange would
/// exceed this bound by orders of magnitude whenever it takes visible time.
pub fn p99_gate(lat: &NetLatency) -> Result<(), String> {
    let bound = lat.idle.p99 * 2 + Duration::from_millis(5);
    if lat.exchanging.p99 <= bound {
        Ok(())
    } else {
        Err(format!(
            "snapshot reads: p99 under exchange {:?} exceeds bound {:?} (idle p99 {:?}, exchange took {:?})",
            lat.exchanging.p99, bound, lat.idle.p99, lat.exchange_wall
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_stay_fast_under_exchange() {
        let lat = run_net_latency(Scale(0.2));
        assert_eq!(lat.idle.count as usize, IDLE_SAMPLES);
        assert!(lat.exchanging.count >= 1);
        assert!(latency_rows(&lat).len() == 4);
        // The gate itself is exercised by `experiments --check` at full
        // scale; here just assert the shape is sane and queries really
        // overlapped the exchange.
        assert!(lat.exchange_wall > Duration::ZERO);
    }
}
