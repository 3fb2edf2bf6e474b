//! `served_mixed`: the system as its users see it, `orchestra_net::serve`
//! on loopback in this process with two connections (one per core).
//!
//! * The **writer** is paced: 20 steps a second, each a `PublishEdits` of a
//!   10-entry insert batch for the next peer and an `UpdateExchange` of
//!   that peer, both timed as closed-loop round trips.
//! * The **reader** is an open loop at a fixed 500 requests a second:
//!   `QueryCertainWhere` with the key column bound to a zipf-drawn key of
//!   the last peer's first relation, timed from the moment it was due.

use std::collections::BTreeMap;
use std::time::Instant;

use orchestra_core::Cdss;
use orchestra_net::{serve, EditBatch, NetClient, NetError, Request, Response};
use orchestra_storage::Tuple;
use orchestra_workload::netload::parse_server_latencies;
use orchestra_workload::{DatasetKind, GeneratedCdss, GeneratedPeer, UniversalEntry};

use super::{answers_key, ReadTarget, Recorder, RunOptions};
use crate::inputs::{Edit, Inputs, Shape, Zipf};
use crate::sched::{run_open_loop, Clock, WallClock};
use crate::trace::Tracer;

const BATCH: usize = 10;
const WRITER_STEPS_PER_S: u64 = 20;
const READER_REQUESTS_PER_S: u64 = 500;
/// Length of one round's measured window.
const ROUND_MS: u64 = 2500;
const WIRE_VERSION: u8 = 6;

/// Server-side handling latencies the traced run reads back.
const SERVER_KINDS: [(&str, &str); 3] = [
    ("publish-edits", "srv.publish-edits"),
    ("update-exchange", "srv.update-exchange"),
    ("query-certain-where", "srv.query-certain-where"),
];

fn edit_batch(peer: &str, edits: &[Edit]) -> EditBatch {
    let mut by_relation: BTreeMap<&str, Vec<Tuple>> = BTreeMap::new();
    for (relation, tuple) in edits {
        by_relation.entry(relation).or_default().push(tuple.clone());
    }
    by_relation
        .into_iter()
        .fold(EditBatch::for_peer(peer), |batch, (relation, tuples)| {
            batch.insert(relation, tuples)
        })
}

/// What the reader thread hands back.
struct ReaderLog {
    sent: Vec<crate::sched::Sent>,
    responses: Vec<Result<Response, NetError>>,
    tracer: Tracer,
}

pub fn run(rec: &mut Recorder, opts: &RunOptions) -> u32 {
    let shape = Shape {
        peers: 5,
        base: opts.sized(1000, 20),
        cycles: 0,
        dataset: DatasetKind::Integers,
    };
    let round_ms = if opts.smoke { 400 } else { ROUND_MS };
    let writer_steps = (round_ms * WRITER_STEPS_PER_S / 1000) as usize;
    let reader_requests = (round_ms * READER_REQUESTS_PER_S / 1000) as usize;
    let mut inputs = Inputs::new(shape, opts.seed);
    let zipf = Zipf::new(shape.base);
    let clock = WallClock { epoch: rec.epoch };
    let last = shape.peers - 1;

    while rec.more_rounds(opts) {
        let setup = Instant::now();
        let mut system = inputs.fresh_system();
        let base = inputs.load_base(&system.peers, &mut system.cdss);
        let kept_reader = system.cdss.snapshot_reader();
        let published_before = system.cdss.snapshots_published();
        let GeneratedCdss { cdss, peers, .. } = system;
        let target = ReadTarget::first_relation(&peers[last]);
        let server = serve(cdss, "127.0.0.1:0").expect("loopback server starts");
        let mut writer = NetClient::connect(server.addr()).expect("writer connects");
        let mut reader = NetClient::connect(server.addr()).expect("reader connects");
        rec.setup_s.push(setup.elapsed().as_secs_f64());

        // Every request of the round is made before the window opens.
        let ((steps, keys, queries), _) = rec.tracer.timed("workload.gen", || {
            let steps: Vec<(usize, Vec<Edit>)> = (0..writer_steps)
                .map(|i| {
                    let p = i % shape.peers;
                    let entries = inputs.entries(BATCH);
                    (p, inputs.project(&peers[p], &entries))
                })
                .collect();
            // Keys of the last peer's own entries: only those are certain.
            let keys: Vec<i64> = (0..reader_requests)
                .map(|_| {
                    let key = base[last][zipf.sample(&mut inputs.rng)].key;
                    inputs.note_key(key);
                    key
                })
                .collect();
            let queries: Vec<Request> = keys
                .iter()
                .map(|&key| Request::QueryCertainWhere {
                    peer: target.peer.clone(),
                    relation: target.relation.clone(),
                    binding: target.binding(key),
                })
                .collect();
            (steps, keys, queries)
        });
        let writes: Vec<(Request, Request, u64)> = steps
            .iter()
            .map(|(p, edits)| {
                (
                    Request::PublishEdits(edit_batch(&peers[*p].id, edits)),
                    Request::UpdateExchange {
                        peer: Some(peers[*p].id.clone()),
                    },
                    edits.len() as u64,
                )
            })
            .collect();

        rec.window_open();
        let traced = rec.traced();
        let epoch = rec.epoch;
        let start_ns = clock.now_ns() + 2_000_000;
        let mut write_responses = Vec::with_capacity(writes.len());
        let log = std::thread::scope(|scope| {
            let reader_thread = scope.spawn(|| {
                let mut tracer = Tracer::new(epoch, traced, 2);
                let mut responses = Vec::with_capacity(queries.len());
                let sent = run_open_loop(
                    &clock,
                    start_ns,
                    1_000_000_000 / READER_REQUESTS_PER_S,
                    queries.len(),
                    |i| {
                        tracer.set_step(i as u32, orchestra_obs::trace::is_enabled());
                        let (response, _) = tracer.timed("net.query", || reader.call(&queries[i]));
                        responses.push(response);
                    },
                );
                ReaderLog {
                    sent,
                    responses,
                    tracer,
                }
            });

            for (i, (publish, exchange, _)) in writes.iter().enumerate() {
                clock.wait_until(start_ns + i as u64 * (1_000_000_000 / WRITER_STEPS_PER_S));
                rec.begin_step();
                let span = rec.tracer.open("bench.step");
                let (published, publish_ns) =
                    rec.tracer.timed("net.publish", || writer.call(publish));
                let (exchanged, exchange_ns) =
                    rec.tracer.timed("net.exchange", || writer.call(exchange));
                rec.tracer.close(span);
                rec.sample("publish", publish_ns);
                rec.exchange_sample(exchange_ns);
                rec.measured_ns += publish_ns + exchange_ns;
                write_responses.push((published, exchanged));
            }
            reader_thread
                .join()
                .expect("the reader thread does not panic")
        });
        // The scheduled length, not the measured one: the last request is
        // due a little before the window ends, and the number of rounds in
        // `--seconds` must not hinge on that.
        rec.window_ns += round_ms * 1_000_000;
        rec.window_close(&[
            "snapshot.publish_s",
            "datalog.demand_rules_fired",
            "datalog.magic_seed_facts",
        ]);

        // Judge what came back, outside the timed window.
        for ((publish, exchange, ops), (published, exchanged)) in
            writes.iter().zip(&write_responses)
        {
            let queued = matches!(published, Ok(Response::EditsQueued { ops: n, .. }) if n == ops);
            rec.check(queued, || {
                format!("PublishEdits of {ops} ops: {published:?}")
            });
            let applied =
                matches!(exchanged, Ok(Response::ExchangeDone(s)) if s.batches_applied == 1);
            rec.check(applied, || format!("UpdateExchange: {exchanged:?}"));
            if queued && applied {
                rec.ops += ops;
            }
            if traced {
                for (request, response) in [(publish, published), (exchange, exchanged)] {
                    note_wire_bytes(rec, request, response);
                }
            }
        }
        for ((sent, response), (&key, query)) in log
            .sent
            .iter()
            .zip(&log.responses)
            .zip(keys.iter().zip(&queries))
        {
            rec.sample("read", sent.latency_ns());
            rec.sample("query", sent.latency_ns());
            rec.sample("gen_lag", sent.lag_ns());
            let right =
                matches!(response, Ok(Response::Tuples(answer)) if answers_key(answer, key));
            rec.check(right, || {
                format!("QueryCertainWhere key {key}: {response:?}")
            });
            if traced {
                note_wire_bytes(rec, query, response);
            }
        }
        rec.tracer.absorb(log.tracer);

        if traced {
            let handled = parse_server_latencies(&server.metrics_text());
            for (kind, sample) in SERVER_KINDS {
                let summary = handled
                    .iter()
                    .find(|(label, _)| label == kind)
                    .unwrap_or_else(|| {
                        panic!("the server exports no request_latency_seconds for `{kind}`")
                    });
                rec.sample(sample, summary.1.p50.as_nanos() as u64);
            }
            // The same keys against the snapshot reader kept from before
            // the server took the system: the query without the wire.
            for &key in &keys {
                let binding = target.binding(key);
                let (view, _) = rec
                    .tracer
                    .timed("snapshot.latest_load", || kept_reader.latest());
                let (_, ns) = rec.tracer.timed("datalog.point_query", || {
                    view.query_certain_bound(&target.peer, &target.relation, &binding)
                });
                rec.sample("inproc_query", ns);
            }
        }

        check_against_replay(rec, &mut inputs, &mut writer, &peers, &base, &steps);
        drop((writer, reader));
        let cdss = server.stop_and_join();
        rec.add(
            "snapshot.epochs_published",
            (cdss.snapshots_published() - published_before) as f64,
        );
        rec.storage_stats(&cdss);
        rec.end_round();
    }
    inputs.fingerprint.value()
}

/// Size on the wire (frame version 6) of one request and its response.
fn note_wire_bytes(rec: &mut Recorder, request: &Request, response: &Result<Response, NetError>) {
    rec.add("net.requests", 1.0);
    rec.add(
        "net.req_bytes",
        request.to_bytes_versioned(WIRE_VERSION).len() as f64,
    );
    if let Ok(response) = response {
        rec.add(
            "net.resp_bytes",
            response.to_bytes_versioned(WIRE_VERSION).len() as f64,
        );
    }
}

/// The output oracle: every relation the server returns over the wire must
/// equal an in-process replay of the same base load and edit sequence.
fn check_against_replay(
    rec: &mut Recorder,
    inputs: &mut Inputs,
    client: &mut NetClient,
    peers: &[GeneratedPeer],
    base: &[Vec<UniversalEntry>],
    steps: &[(usize, Vec<Edit>)],
) {
    let mut replica: Cdss = inputs.fresh_system().cdss;
    let mut load: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (peer, entries) in peers.iter().zip(base) {
        for entry in entries {
            for (relation, tuple) in peer.project(entry) {
                load.entry(relation).or_default().push(tuple);
            }
        }
    }
    replica
        .apply_insertions_incremental(&load)
        .expect("replica base load");
    for (p, edits) in steps {
        for (relation, tuple) in edits {
            replica
                .insert_local(&peers[*p].id, relation, tuple.clone())
                .expect("replica insert");
        }
        replica
            .update_exchange(&peers[*p].id)
            .expect("replica exchange");
    }
    for peer in peers {
        for (relation, _) in &peer.relations {
            let served = client.query_local(&peer.id, relation);
            let expected = replica.local_instance(&peer.id, relation);
            let same = matches!((&served, &expected), (Ok(a), Ok(b)) if a == b);
            rec.check(same, || {
                format!(
                    "oracle: served {relation} ({:?} tuples) differs from the in-process replay ({:?})",
                    served.as_ref().map(Vec::len),
                    expected.as_ref().map(Vec::len)
                )
            });
        }
    }
}
