//! The one wire vocabulary (frame version 6) against a live server: a
//! current client drives every request kind, broken framing gets one
//! `BadRequest` and a hang-up while the server keeps serving, and a remote
//! compaction bounds a churning server's value pool.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use orchestra_net::frame::{read_frame, read_frame_expecting, write_frame, FrameKind, VERSION};
use orchestra_net::proto::{ErrorCode, Request, Response};
use orchestra_net::scenario::example_scenario;
use orchestra_net::{serve, EditBatch, NetClient, NetError, PageDirection};
use orchestra_persist::codec::{Decode, Encode};
use orchestra_storage::tuple::int_tuple;

fn connect(addr: SocketAddr) -> NetClient {
    NetClient::connect_with_retry(addr, 20, Duration::from_millis(50)).unwrap()
}

#[test]
fn current_client_speaks_the_whole_vocabulary() {
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let mut client = connect(handle.addr());
    let mut other = connect(handle.addr());

    // Two clients publish; one exchange folds both batches in.
    client
        .publish_edits(
            EditBatch::for_peer("PGUS")
                .insert("G", vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]),
        )
        .unwrap();
    other
        .publish_edits(EditBatch::for_peer("PBioSQL").insert("B", vec![int_tuple(&[3, 5])]))
        .unwrap();
    let summary = client.update_exchange(None).unwrap();
    assert_eq!(summary.batches_applied, 2);

    // Every connection reads the same instances.
    for (peer, rel) in [("PGUS", "G"), ("PBioSQL", "B"), ("PuBio", "U")] {
        assert_eq!(
            client.query_local(peer, rel).unwrap(),
            other.query_local(peer, rel).unwrap(),
            "{peer}/{rel} differs across connections"
        );
        assert_eq!(
            client.query_certain(peer, rel).unwrap(),
            other.query_certain(peer, rel).unwrap()
        );
    }
    let b = client.query_local("PBioSQL", "B").unwrap();
    assert!(!b.is_empty());

    let prov = client.provenance_of("B", b[0].clone()).unwrap();
    assert_eq!(prov, other.provenance_of("B", b[0].clone()).unwrap());
    assert!(prov.derivations >= 1);
    assert_eq!(
        client.trust_policy("PGUS").unwrap(),
        other.trust_policy("PGUS").unwrap()
    );

    // Stats carries the intern, pool and snapshot counters.
    let stats = client.stats().unwrap();
    assert_eq!(stats.peers, 3);
    assert!(stats.intern_misses > 0, "stats carry intern counters");
    assert!(stats.pool_values > 0, "stats expose the pool size");
    assert!(stats.pool_live_values > 0);
    assert!(
        stats.snapshot_epoch >= 1,
        "stats expose the served snapshot epoch"
    );
    assert!(stats.snapshots_published >= 1);
    assert!(
        stats.snapshot_reads > 0,
        "the queries above were answered from snapshots"
    );

    // The metrics exposition agrees with the Stats payload.
    let exposition = client.metrics().unwrap();
    for series in [
        "requests_total",
        "request_latency_seconds",
        "connections_total",
        "snapshot_reads_total",
    ] {
        assert!(exposition.contains(series), "missing series `{series}`");
    }
    assert!(
        exposition.contains("requests_total{request=\"stats\"} 1"),
        "per-request counters are labelled by kind"
    );

    // The bound point queries answer exactly the filtered full query.
    let mut binding = vec![None; b[0].arity()];
    binding[0] = Some(b[0][0].clone());
    let hits = client
        .query_local_where("PBioSQL", "B", binding.clone())
        .unwrap();
    let expected: Vec<_> = b.iter().filter(|t| t[0] == b[0][0]).cloned().collect();
    assert_eq!(hits, expected, "bound query = filtered full instance");
    assert_eq!(
        client
            .query_certain_where("PBioSQL", "B", binding.clone())
            .unwrap(),
        client
            .query_certain("PBioSQL", "B")
            .unwrap()
            .into_iter()
            .filter(|t| t[0] == b[0][0])
            .collect::<Vec<_>>()
    );

    // The cursor walked one item at a time concatenates to the whole
    // neighbor list, with a stable total on every page.
    let first = client
        .provenance_page("B", b[0].clone(), PageDirection::Sources, None, 1)
        .unwrap();
    assert!(first.total >= 1, "a derived B tuple has sources");
    let mut walked = first.items.clone();
    let mut token = first.next.clone();
    while let Some(t) = token {
        let page = client
            .provenance_page("B", b[0].clone(), PageDirection::Sources, Some(t), 1)
            .unwrap();
        assert_eq!(page.total, first.total, "total is stable across pages");
        walked.extend(page.items);
        token = page.next;
    }
    let whole = client
        .provenance_page("B", b[0].clone(), PageDirection::Sources, None, u32::MAX)
        .unwrap();
    assert_eq!(walked, whole.items, "cursor pages concatenate losslessly");
    assert_eq!(walked.len() as u64, first.total);
    assert!(whole.next.is_none());

    // A token from another epoch is refused (never silently mixes two
    // epochs' derivations), as is a malformed one.
    let stale = client
        .provenance_page(
            "B",
            b[0].clone(),
            PageDirection::Sources,
            Some("e0:0".into()),
            4,
        )
        .unwrap_err();
    assert!(stale.to_string().contains("stale"), "{stale}");
    let bad = client
        .provenance_page(
            "B",
            b[0].clone(),
            PageDirection::Sources,
            Some("not-a-token".into()),
            4,
        )
        .unwrap_err();
    assert!(bad.to_string().contains("malformed"), "{bad}");

    handle.stop_and_join();
}

/// One request frame, encoded at the current version, as raw bytes.
fn request_frame(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Request, &request.to_bytes()).unwrap();
    frame
}

/// Send raw bytes on a fresh connection and expect exactly one
/// `BadRequest` reply followed by EOF.
fn expect_one_bad_request(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    let payload = read_frame_expecting(&mut stream, FrameKind::Response).unwrap();
    let Response::Error {
        code: ErrorCode::BadRequest,
        message,
    } = Response::from_bytes(&payload).unwrap()
    else {
        panic!("expected one BadRequest reply");
    };
    assert_eq!(read_frame(&mut stream), Err(NetError::Disconnected));
    message
}

#[test]
fn broken_frames_get_one_error_and_the_server_keeps_serving() {
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    // A client connected before the hostile ones keeps its connection.
    let mut bystander = connect(addr);
    let frame = request_frame(&Request::QueryLocal {
        peer: "PBioSQL".into(),
        relation: "B".into(),
    });

    // A frame of any other version gets one error naming it, then EOF.
    for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
        let mut stale = frame.clone();
        stale[4] = version;
        let message = expect_one_bad_request(addr, &stale);
        assert_eq!(
            message,
            format!("unsupported wire version {version} (this build speaks 6)")
        );
    }
    // A retired payload tag in a well-formed frame is refused the same
    // way: plain-tuple `PublishEdits` (request tag 0).
    let mut retired = Vec::new();
    let empty_batch = [
        0u8, 4, 0, 0, 0, b'P', b'G', b'U', b'S', 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    write_frame(&mut retired, FrameKind::Request, &empty_batch).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&retired).unwrap();
    let payload = read_frame_expecting(&mut stream, FrameKind::Response).unwrap();
    assert!(matches!(
        Response::from_bytes(&payload).unwrap(),
        Response::Error { code: ErrorCode::BadRequest, message }
            if message.contains("unknown request tag 0")
    ));
    drop(stream);

    // Clients vanishing mid-header and mid-payload.
    for cut in [7, frame.len() - 3] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame[..cut]).unwrap();
        drop(stream);
    }

    // The server still publishes, exchanges and queries, on a new
    // connection and on the one that was open throughout.
    let mut fresh = connect(addr);
    fresh
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[4, 6, 8])]))
        .unwrap();
    let summary = fresh.update_exchange(None).unwrap();
    assert_eq!(summary.batches_applied, 1);
    let b = fresh.query_local("PBioSQL", "B").unwrap();
    assert!(b.contains(&int_tuple(&[4, 8])), "{b:?}");
    assert_eq!(bystander.query_local("PBioSQL", "B").unwrap(), b);

    handle.stop_and_join();
}

#[test]
fn remote_compact_bounds_a_churning_server_pool() {
    let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
    let mut client =
        NetClient::connect_with_retry(handle.addr(), 20, Duration::from_millis(50)).unwrap();

    // Churn distinct values: every round inserts a fresh G row and deletes
    // the previous one, growing the pool while the store stays small.
    for r in 0..30i64 {
        let mut batch =
            EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[r, 10_000 + r, 20_000 + r])]);
        if r > 0 {
            batch = batch.delete(
                "G",
                vec![int_tuple(&[r - 1, 10_000 + r - 1, 20_000 + r - 1])],
            );
        }
        client.publish_edits(batch).unwrap();
        client.update_exchange(Some("PGUS")).unwrap();
    }

    let before = client.stats().unwrap();
    assert!(
        before.pool_values > 2 * before.pool_live_values,
        "churn left a mostly-dead pool ({} pooled, {} live)",
        before.pool_values,
        before.pool_live_values
    );
    let answers_before = client.query_local("PBioSQL", "B").unwrap();

    let (compact_before, compact_after) = client.compact().unwrap();
    assert_eq!(compact_before, before.pool_values);
    assert_eq!(compact_after, before.pool_live_values);

    let after = client.stats().unwrap();
    assert_eq!(after.pool_compactions, 1);
    assert_eq!(after.pool_values, before.pool_live_values);
    // Observable state is untouched, and the server keeps exchanging.
    assert_eq!(client.query_local("PBioSQL", "B").unwrap(), answers_before);
    client
        .publish_edits(EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[777, 8, 9])]))
        .unwrap();
    client.update_exchange(Some("PGUS")).unwrap();
    assert!(client
        .query_local("PBioSQL", "B")
        .unwrap()
        .contains(&int_tuple(&[777, 9])));

    handle.stop_and_join();
}
