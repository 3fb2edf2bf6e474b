//! # orchestra-net
//!
//! The network service layer of the ORCHESTRA CDSS reproduction: the
//! paper's system is a *collaborative data sharing system* for autonomous
//! peers, and this crate gives the in-process engine a network front door
//! so those peers can actually be remote.
//!
//! Three layers, bottom up:
//!
//! * [`frame`] + [`proto`] — a length-prefixed, CRC-framed **wire
//!   protocol** whose payloads use the canonical binary codec from
//!   [`orchestra_persist::codec`] (the WAL, snapshots and the wire share
//!   one format). Messages cover the full CDSS lifecycle: `PublishEdits`,
//!   `UpdateExchange`, `QueryLocal` / `QueryCertain`, `ProvenanceOf`,
//!   trust-policy get/set, `Stats`, `Checkpoint`, `Shutdown`.
//! * [`server`] — a **threaded server** (the `orchestrad` binary):
//!   thread-per-connection over `std::net::TcpListener`, one shared
//!   [`orchestra_core::Cdss`] behind an `RwLock`, **snapshot-isolated
//!   reads** (queries are served lock-free from the latest published
//!   [`orchestra_core::SnapshotView`], so they never stall behind an
//!   exchange), an edit-ingestion queue that admits concurrent
//!   `PublishEdits` without the write lock and serializes update-exchange
//!   epochs, per-request metrics, and graceful shutdown.
//! * [`client`] — a **blocking client library** ([`NetClient`]) with
//!   connect/retry, used by the examples, the integration tests, the
//!   `fig_net` benchmark and `orchestra_workload::netload`.
//!
//! ```no_run
//! use orchestra_net::{serve, EditBatch, NetClient};
//! use orchestra_net::scenario::example_scenario;
//! use orchestra_storage::tuple::int_tuple;
//!
//! let handle = serve(example_scenario(), "127.0.0.1:0")?;
//! let mut client = NetClient::connect(handle.addr())?;
//! client.publish_edits(EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[1, 2, 3])]))?;
//! client.update_exchange(None)?;
//! let b = client.query_certain("PBioSQL", "B")?;
//! assert_eq!(b, vec![int_tuple(&[1, 3])]);
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), orchestra_net::NetError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod error;
pub mod frame;
pub mod proto;
pub mod scenario;
pub mod server;

pub use client::{NetClient, ProvenancePage, RemoteProvenance};
pub use error::NetError;
pub use orchestra_core::{PageDirection, ProvenanceNeighbor};
pub use proto::{EditBatch, ErrorCode, ExchangeSummary, Request, Response, ServerStats};
pub use server::{serve, MetricsProbe, ServerHandle};

/// Convenience result alias for network operations.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::example_scenario;
    use orchestra_storage::tuple::int_tuple;

    /// End-to-end loopback smoke: publish, exchange, query, provenance,
    /// stats, shutdown — all through the socket.
    #[test]
    fn loopback_lifecycle() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(handle.addr()).unwrap();

        // Publish the paper's Example 3 edit logs in one batch per peer.
        let (seq0, ops) = client
            .publish_edits(
                EditBatch::for_peer("PGUS")
                    .insert("G", vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]),
            )
            .unwrap();
        assert_eq!((seq0, ops), (0, 2));
        client
            .publish_edits(EditBatch::for_peer("PBioSQL").insert("B", vec![int_tuple(&[3, 5])]))
            .unwrap();
        client
            .publish_edits(EditBatch::for_peer("PuBio").insert("U", vec![int_tuple(&[2, 5])]))
            .unwrap();

        let summary = client.update_exchange(None).unwrap();
        assert_eq!(summary.batches_applied, 3);
        assert_eq!(summary.peers_exchanged, 3);
        assert!(summary.inserted > 0);

        // Example 3's certain answers for B.
        let b = client.query_certain("PBioSQL", "B").unwrap();
        assert_eq!(
            b,
            vec![
                int_tuple(&[1, 3]),
                int_tuple(&[3, 2]),
                int_tuple(&[3, 3]),
                int_tuple(&[3, 5]),
            ]
        );
        // The full instance of U also has labeled-null tuples.
        let u = client.query_local("PuBio", "U").unwrap();
        assert_eq!(u.len(), 5);

        // Example 6's provenance, remotely.
        let prov = client.provenance_of("B", int_tuple(&[3, 2])).unwrap();
        assert_eq!(prov.derivations, 2);
        assert!(prov.derivable);
        assert!(prov.expression.contains("m1("), "{}", prov.expression);

        let stats = client.stats().unwrap();
        assert_eq!(stats.peers, 3);
        assert_eq!(stats.pending_batches, 0);
        assert!(stats.total_requests() >= 7);

        client.shutdown().unwrap();
        let cdss = handle.join();
        assert_eq!(cdss.certain_answers("PBioSQL", "B").unwrap(), b);
    }

    #[test]
    fn errors_travel_as_responses() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(handle.addr()).unwrap();

        // Unknown peer.
        let err = client
            .publish_edits(EditBatch::for_peer("nobody").insert("G", vec![int_tuple(&[1, 2, 3])]))
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownPeer,
                ..
            }
        ));

        // Wrong relation owner.
        let err = client
            .publish_edits(EditBatch::for_peer("PGUS").insert("B", vec![int_tuple(&[1, 2])]))
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownRelation,
                ..
            }
        ));

        // Arity mismatch.
        let err = client
            .publish_edits(EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[1])]))
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::BadRequest,
                ..
            }
        ));

        // Checkpoint without persistence.
        let err = client.checkpoint().unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::NotPersistent,
                ..
            }
        ));

        // Queries against unknown names.
        assert!(client.query_certain("PGUS", "Z").is_err());
        assert!(client.trust_policy("nobody").is_err());

        handle.stop_and_join();
    }

    #[test]
    fn trust_policy_roundtrips_over_the_wire() {
        use orchestra_core::{CmpOp, Predicate, TrustPolicy};

        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(handle.addr()).unwrap();

        assert!(client.trust_policy("PBioSQL").unwrap().is_trust_all());
        let policy = TrustPolicy::trust_all()
            .distrusting("m4")
            .with_condition("m1", Predicate::cmp(1, CmpOp::Lt, 3i64));
        client.set_trust_policy("PBioSQL", policy.clone()).unwrap();
        assert_eq!(client.trust_policy("PBioSQL").unwrap(), policy);

        // A policy naming an unknown mapping is rejected remotely too.
        let err = client
            .set_trust_policy("PBioSQL", TrustPolicy::trust_all().distrusting("m99"))
            .unwrap_err();
        assert!(matches!(err, NetError::Remote { .. }));

        handle.stop_and_join();
    }

    #[test]
    fn single_peer_exchange_leaves_other_peers_queued() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(handle.addr()).unwrap();
        client
            .publish_edits(EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[1, 2, 3])]))
            .unwrap();
        client
            .publish_edits(EditBatch::for_peer("PBioSQL").insert("B", vec![int_tuple(&[9, 9])]))
            .unwrap();

        // Only PGUS's batch is drained; PBioSQL's stays queued and the
        // pending-batches metric says so.
        let summary = client.update_exchange(Some("PGUS")).unwrap();
        assert_eq!(summary.batches_applied, 1);
        assert_eq!(client.stats().unwrap().pending_batches, 1);
        assert!(!client
            .query_local("PBioSQL", "B")
            .unwrap()
            .contains(&int_tuple(&[9, 9])));

        // A full exchange picks the rest up.
        let summary = client.update_exchange(None).unwrap();
        assert_eq!(summary.batches_applied, 1);
        assert_eq!(client.stats().unwrap().pending_batches, 0);
        assert!(client
            .query_local("PBioSQL", "B")
            .unwrap()
            .contains(&int_tuple(&[9, 9])));
        handle.stop_and_join();
    }

    #[test]
    fn stop_unblocks_idle_connections() {
        let handle = serve(example_scenario(), "127.0.0.1:0").unwrap();
        // An idle client holds a connection open; stop() must still join.
        let _idle = NetClient::connect(handle.addr()).unwrap();
        handle.stop_and_join();
    }
}
