//! Wire protocol messages: requests, responses, and their binary codecs.
//!
//! Payloads are encoded with the canonical [`orchestra_persist::codec`]
//! format (the same bytes the WAL and snapshots use), so a [`Tuple`] or
//! [`TrustPolicy`] on the wire is byte-identical to one on disk. Every
//! message is a `u8` tag followed by the variant payload.
//!
//! | Tag | Request | Response |
//! |----:|---------|----------|
//! | 0 | *(retired)* | `EditsQueued` |
//! | 1 | `UpdateExchange` | `ExchangeDone` |
//! | 2 | `QueryLocal` | *(retired)* |
//! | 3 | `QueryCertain` | `Provenance` |
//! | 4 | `ProvenanceOf` | `Policy` |
//! | 5 | `GetTrustPolicy` | `Stats` |
//! | 6 | `SetTrustPolicy` | `Ok` |
//! | 7 | `Stats` | `Error` |
//! | 8 | `Checkpoint` | `Tuples` (pooled) |
//! | 9 | `Shutdown` | `Compacted` |
//! | 10 | `PublishEdits` (pooled) | `Metrics` (text exposition) |
//! | 11 | `Compact` | `ProvenancePageResult` |
//! | 12 | `Metrics` | |
//! | 13 | `QueryLocalWhere` | |
//! | 14 | `QueryCertainWhere` | |
//! | 15 | `ProvenancePage` | |
//! | 16 | `AddMapping` | |
//!
//! Bulk payloads (`PublishEdits` batches, `Tuples` answers) are emitted in
//! the **pooled** encoding of [`orchestra_persist::pooled`] — one value
//! dictionary, then rows as dense ids — under the tags marked "pooled".
//!
//! This is the one vocabulary of frame version 6, the only version the
//! frame layer accepts. Retired tags (the plain-tuple `PublishEdits` and
//! `Tuples` layouts of earlier versions) decode as unknown tags; they are
//! never reassigned, and no live tag was renumbered when they retired.

use std::fmt;

use orchestra_core::{PageDirection, ProvenanceNeighbor, TrustPolicy};
use orchestra_persist::codec::{Decode, Encode, Reader, Writer};
use orchestra_persist::pooled::{
    decode_tuple_seq_pooled, encode_tuple_seq_pooled, PooledDecoder, PooledEncoder,
};
use orchestra_persist::PersistError;
use orchestra_storage::{Tuple, Value};

/// One client's batch of edits against peers' logical relations, queued by
/// the server and applied at the next update exchange.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditBatch {
    /// The peer the edits belong to.
    pub peer: String,
    /// Insertions per logical relation.
    pub inserts: Vec<(String, Vec<Tuple>)>,
    /// Deletions per logical relation (retractions or curation rejections,
    /// classified by the server exactly as in the in-process API).
    pub deletes: Vec<(String, Vec<Tuple>)>,
}

impl EditBatch {
    /// A batch for one peer with no edits yet.
    pub fn for_peer(peer: impl Into<String>) -> Self {
        EditBatch {
            peer: peer.into(),
            ..EditBatch::default()
        }
    }

    /// Add insertions for a relation (builder style).
    pub fn insert(mut self, relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        self.inserts.push((relation.into(), tuples));
        self
    }

    /// Add deletions for a relation (builder style).
    pub fn delete(mut self, relation: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        self.deletes.push((relation.into(), tuples));
        self
    }

    /// Total number of edit operations in the batch.
    pub fn ops(&self) -> usize {
        self.inserts
            .iter()
            .chain(self.deletes.iter())
            .map(|(_, ts)| ts.len())
            .sum()
    }
}

impl EditBatch {
    /// The pooled wire layout: peer, one value dictionary, then the insert
    /// and delete groups with tuples as dict ids.
    fn encode_pooled(&self, w: &mut Writer) {
        w.put_str(&self.peer);
        let mut enc = PooledEncoder::new();
        for groups in [&self.inserts, &self.deletes] {
            enc.rows.put_u32(groups.len() as u32);
            for (relation, tuples) in groups.iter() {
                enc.rows.put_str(relation);
                enc.put_tuple_seq(tuples.len(), tuples.iter());
            }
        }
        enc.finish_into(w);
    }

    fn decode_pooled(r: &mut Reader<'_>) -> orchestra_persist::Result<Self> {
        let peer = r.get_str()?.to_string();
        let dec = PooledDecoder::read(r)?;
        let mut sections: [Vec<(String, Vec<Tuple>)>; 2] = [Vec::new(), Vec::new()];
        for section in sections.iter_mut() {
            let n = r.get_u32()? as usize;
            for _ in 0..n {
                let relation = r.get_str()?.to_string();
                section.push((relation, dec.get_tuple_seq(r)?));
            }
        }
        let [inserts, deletes] = sections;
        Ok(EditBatch {
            peer,
            inserts,
            deletes,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Queue a batch of edits for ingestion. Admitted concurrently; applied
    /// in admission order at the next `UpdateExchange`.
    PublishEdits(EditBatch),
    /// Run an update exchange. With a peer, only that peer's queued
    /// batches are drained and exchanged (everyone else's stay queued);
    /// with `None`, the whole queue is drained and every peer exchanges in
    /// id order.
    UpdateExchange {
        /// Restrict the exchange to this peer.
        peer: Option<String>,
    },
    /// The full local instance of a peer's relation, sorted, including
    /// tuples with labeled nulls.
    QueryLocal {
        /// The peer.
        peer: String,
        /// The logical relation.
        relation: String,
    },
    /// The certain answers of a peer's relation, sorted.
    QueryCertain {
        /// The peer.
        peer: String,
        /// The logical relation.
        relation: String,
    },
    /// The provenance expression of a tuple of a logical relation.
    ProvenanceOf {
        /// The logical relation.
        relation: String,
        /// The tuple.
        tuple: Tuple,
    },
    /// A peer's current trust policy.
    GetTrustPolicy {
        /// The peer.
        peer: String,
    },
    /// Replace a peer's trust policy (takes effect at the next exchange or
    /// recomputation, as in the in-process API).
    SetTrustPolicy {
        /// The peer.
        peer: String,
        /// The new policy.
        policy: TrustPolicy,
    },
    /// Server and instance statistics.
    Stats,
    /// Fold the WAL into a durable snapshot (persistent servers only).
    /// Also compacts the value pool when the server's policy calls for it.
    Checkpoint,
    /// Stop accepting connections and shut the server down gracefully.
    Shutdown,
    /// Compact the value pool now, unconditionally (works on in-memory
    /// servers too). Returns [`Response::Compacted`].
    Compact,
    /// The server's metrics registry in Prometheus-style text exposition
    /// (latency histograms, per-request counters, engine counters).
    /// Returns [`Response::Metrics`].
    Metrics,
    /// Point query over the local instance: tuples of a peer's relation
    /// whose columns equal the `Some` entries of `binding`, sorted. Only
    /// matching tuples cross the wire — the full instance is never
    /// materialised. Returns [`Response::Tuples`].
    QueryLocalWhere {
        /// The peer.
        peer: String,
        /// The logical relation.
        relation: String,
        /// One entry per column: `Some(v)` pins the column to `v`, `None`
        /// leaves it free. Must match the relation's arity.
        binding: Vec<Option<Value>>,
    },
    /// [`Request::QueryLocalWhere`] restricted to certain answers (tuples
    /// containing labeled nulls are dropped). Returns [`Response::Tuples`].
    QueryCertainWhere {
        /// The peer.
        peer: String,
        /// The logical relation.
        relation: String,
        /// One entry per column, `Some` = bound.
        binding: Vec<Option<Value>>,
    },
    /// One page of a tuple's one-hop provenance neighbors (the mappings
    /// linking it to the tuples it derives from or feeds). Returns
    /// [`Response::ProvenancePageResult`].
    ProvenancePage {
        /// The logical relation.
        relation: String,
        /// The tuple whose neighbors are paged.
        tuple: Tuple,
        /// Which side of the derivation to walk.
        direction: PageDirection,
        /// Resume token from the previous page's `next`; `None` starts
        /// from the beginning. Tokens are bound to the snapshot epoch they
        /// were issued at — a stale token is refused with `BadRequest` and
        /// pagination must restart.
        token: Option<String>,
        /// Maximum neighbors per page (clamped server-side to at least 1).
        limit: u32,
    },
    /// Submit a new schema mapping (tgd) to a running server. The extended
    /// mapping set is statically analyzed before installation; a program
    /// the analyzer rejects (a value-inventing Skolem cycle, an unsafe or
    /// unstratifiable rule set) is refused with `BadRequest` carrying the
    /// rendered diagnostics, and the server keeps its previous mappings.
    /// Returns [`Response::Ok`].
    AddMapping {
        /// The mapping's name (must be unused).
        name: String,
        /// The tgd in textual form, e.g. `"G(i, c, n) -> B(i, n)"`.
        text: String,
    },
}

fn encode_binding(binding: &[Option<Value>], w: &mut Writer) {
    w.put_u32(binding.len() as u32);
    for b in binding {
        match b {
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
            None => w.put_u8(0),
        }
    }
}

fn decode_binding(r: &mut Reader<'_>) -> orchestra_persist::Result<Vec<Option<Value>>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let offset = r.offset();
        out.push(match r.get_u8()? {
            0 => None,
            1 => Some(Value::decode(r)?),
            tag => {
                return Err(PersistError::corrupt(
                    offset,
                    format!("unknown option tag {tag}"),
                ))
            }
        });
    }
    Ok(out)
}

fn encode_direction(direction: PageDirection, w: &mut Writer) {
    w.put_u8(match direction {
        PageDirection::Sources => 0,
        PageDirection::Targets => 1,
    });
}

fn decode_direction(r: &mut Reader<'_>) -> orchestra_persist::Result<PageDirection> {
    let offset = r.offset();
    Ok(match r.get_u8()? {
        0 => PageDirection::Sources,
        1 => PageDirection::Targets,
        tag => {
            return Err(PersistError::corrupt(
                offset,
                format!("unknown page direction tag {tag}"),
            ))
        }
    })
}

fn encode_opt_str(s: &Option<String>, w: &mut Writer) {
    match s {
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        None => w.put_u8(0),
    }
}

fn decode_opt_str(r: &mut Reader<'_>) -> orchestra_persist::Result<Option<String>> {
    let offset = r.offset();
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(r.get_str()?.to_string()),
        tag => {
            return Err(PersistError::corrupt(
                offset,
                format!("unknown option tag {tag}"),
            ))
        }
    })
}

impl Request {
    /// The payload a frame of `version` carries: the current encoding,
    /// [`Encode::to_bytes`]. `version` must be [`crate::frame::VERSION`],
    /// the only version there is; it is taken so byte counters can name
    /// the version they measure.
    pub fn to_bytes_versioned(&self, version: u8) -> Vec<u8> {
        assert_eq!(version, crate::frame::VERSION, "no other wire version");
        self.to_bytes()
    }

    /// Short label used for per-request metrics.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::PublishEdits(_) => RequestKind::PublishEdits,
            Request::UpdateExchange { .. } => RequestKind::UpdateExchange,
            Request::QueryLocal { .. } => RequestKind::QueryLocal,
            Request::QueryCertain { .. } => RequestKind::QueryCertain,
            Request::ProvenanceOf { .. } => RequestKind::ProvenanceOf,
            Request::GetTrustPolicy { .. } => RequestKind::GetTrustPolicy,
            Request::SetTrustPolicy { .. } => RequestKind::SetTrustPolicy,
            Request::Stats => RequestKind::Stats,
            Request::Checkpoint => RequestKind::Checkpoint,
            Request::Shutdown => RequestKind::Shutdown,
            Request::Compact => RequestKind::Compact,
            Request::Metrics => RequestKind::Metrics,
            Request::QueryLocalWhere { .. } => RequestKind::QueryLocalWhere,
            Request::QueryCertainWhere { .. } => RequestKind::QueryCertainWhere,
            Request::ProvenancePage { .. } => RequestKind::ProvenancePage,
            Request::AddMapping { .. } => RequestKind::AddMapping,
        }
    }
}

/// The request kinds, used to key per-request server metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `PublishEdits`.
    PublishEdits,
    /// `UpdateExchange`.
    UpdateExchange,
    /// `QueryLocal`.
    QueryLocal,
    /// `QueryCertain`.
    QueryCertain,
    /// `ProvenanceOf`.
    ProvenanceOf,
    /// `GetTrustPolicy`.
    GetTrustPolicy,
    /// `SetTrustPolicy`.
    SetTrustPolicy,
    /// `Stats`.
    Stats,
    /// `Checkpoint`.
    Checkpoint,
    /// `Shutdown`.
    Shutdown,
    /// `Compact`.
    Compact,
    /// `Metrics`.
    Metrics,
    /// `QueryLocalWhere`.
    QueryLocalWhere,
    /// `QueryCertainWhere`.
    QueryCertainWhere,
    /// `ProvenancePage`.
    ProvenancePage,
    /// `AddMapping`.
    AddMapping,
}

impl RequestKind {
    /// Every request kind, in tag order.
    pub const ALL: [RequestKind; 16] = [
        RequestKind::PublishEdits,
        RequestKind::UpdateExchange,
        RequestKind::QueryLocal,
        RequestKind::QueryCertain,
        RequestKind::ProvenanceOf,
        RequestKind::GetTrustPolicy,
        RequestKind::SetTrustPolicy,
        RequestKind::Stats,
        RequestKind::Checkpoint,
        RequestKind::Shutdown,
        RequestKind::Compact,
        RequestKind::Metrics,
        RequestKind::QueryLocalWhere,
        RequestKind::QueryCertainWhere,
        RequestKind::ProvenancePage,
        RequestKind::AddMapping,
    ];

    /// Stable label for metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::PublishEdits => "publish-edits",
            RequestKind::UpdateExchange => "update-exchange",
            RequestKind::QueryLocal => "query-local",
            RequestKind::QueryCertain => "query-certain",
            RequestKind::ProvenanceOf => "provenance-of",
            RequestKind::GetTrustPolicy => "get-trust-policy",
            RequestKind::SetTrustPolicy => "set-trust-policy",
            RequestKind::Stats => "stats",
            RequestKind::Checkpoint => "checkpoint",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Compact => "compact",
            RequestKind::Metrics => "metrics",
            RequestKind::QueryLocalWhere => "query-local-where",
            RequestKind::QueryCertainWhere => "query-certain-where",
            RequestKind::ProvenancePage => "provenance-page",
            RequestKind::AddMapping => "add-mapping",
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::PublishEdits(batch) => {
                w.put_u8(10);
                batch.encode_pooled(w);
            }
            Request::UpdateExchange { peer } => {
                w.put_u8(1);
                match peer {
                    Some(p) => {
                        w.put_u8(1);
                        w.put_str(p);
                    }
                    None => w.put_u8(0),
                }
            }
            Request::QueryLocal { peer, relation } => {
                w.put_u8(2);
                w.put_str(peer);
                w.put_str(relation);
            }
            Request::QueryCertain { peer, relation } => {
                w.put_u8(3);
                w.put_str(peer);
                w.put_str(relation);
            }
            Request::ProvenanceOf { relation, tuple } => {
                w.put_u8(4);
                w.put_str(relation);
                tuple.encode(w);
            }
            Request::GetTrustPolicy { peer } => {
                w.put_u8(5);
                w.put_str(peer);
            }
            Request::SetTrustPolicy { peer, policy } => {
                w.put_u8(6);
                w.put_str(peer);
                policy.encode(w);
            }
            Request::Stats => w.put_u8(7),
            Request::Checkpoint => w.put_u8(8),
            Request::Shutdown => w.put_u8(9),
            Request::Compact => w.put_u8(11),
            Request::Metrics => w.put_u8(12),
            Request::QueryLocalWhere {
                peer,
                relation,
                binding,
            } => {
                w.put_u8(13);
                w.put_str(peer);
                w.put_str(relation);
                encode_binding(binding, w);
            }
            Request::QueryCertainWhere {
                peer,
                relation,
                binding,
            } => {
                w.put_u8(14);
                w.put_str(peer);
                w.put_str(relation);
                encode_binding(binding, w);
            }
            Request::ProvenancePage {
                relation,
                tuple,
                direction,
                token,
                limit,
            } => {
                w.put_u8(15);
                w.put_str(relation);
                tuple.encode(w);
                encode_direction(*direction, w);
                encode_opt_str(token, w);
                w.put_u32(*limit);
            }
            Request::AddMapping { name, text } => {
                w.put_u8(16);
                w.put_str(name);
                w.put_str(text);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> orchestra_persist::Result<Self> {
        let offset = r.offset();
        Ok(match r.get_u8()? {
            10 => Request::PublishEdits(EditBatch::decode_pooled(r)?),
            1 => Request::UpdateExchange {
                peer: match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_str()?.to_string()),
                    tag => {
                        return Err(PersistError::corrupt(
                            offset,
                            format!("unknown option tag {tag}"),
                        ))
                    }
                },
            },
            2 => Request::QueryLocal {
                peer: r.get_str()?.to_string(),
                relation: r.get_str()?.to_string(),
            },
            3 => Request::QueryCertain {
                peer: r.get_str()?.to_string(),
                relation: r.get_str()?.to_string(),
            },
            4 => Request::ProvenanceOf {
                relation: r.get_str()?.to_string(),
                tuple: Tuple::decode(r)?,
            },
            5 => Request::GetTrustPolicy {
                peer: r.get_str()?.to_string(),
            },
            6 => Request::SetTrustPolicy {
                peer: r.get_str()?.to_string(),
                policy: TrustPolicy::decode(r)?,
            },
            7 => Request::Stats,
            8 => Request::Checkpoint,
            9 => Request::Shutdown,
            11 => Request::Compact,
            12 => Request::Metrics,
            13 => Request::QueryLocalWhere {
                peer: r.get_str()?.to_string(),
                relation: r.get_str()?.to_string(),
                binding: decode_binding(r)?,
            },
            14 => Request::QueryCertainWhere {
                peer: r.get_str()?.to_string(),
                relation: r.get_str()?.to_string(),
                binding: decode_binding(r)?,
            },
            15 => Request::ProvenancePage {
                relation: r.get_str()?.to_string(),
                tuple: Tuple::decode(r)?,
                direction: decode_direction(r)?,
                token: decode_opt_str(r)?,
                limit: r.get_u32()?,
            },
            16 => Request::AddMapping {
                name: r.get_str()?.to_string(),
                text: r.get_str()?.to_string(),
            },
            tag => {
                return Err(PersistError::corrupt(
                    offset,
                    format!("unknown request tag {tag}"),
                ))
            }
        })
    }
}

/// Machine-readable error categories returned by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request refers to an unknown peer.
    UnknownPeer,
    /// The request refers to a relation the peer does not own.
    UnknownRelation,
    /// The request is malformed (arity mismatch, undecodable payload…).
    BadRequest,
    /// `Checkpoint` was sent to a server without persistence.
    NotPersistent,
    /// The server is shutting down and no longer serves requests.
    ShuttingDown,
    /// The operation failed inside the CDSS engine.
    Internal,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownPeer => 0,
            ErrorCode::UnknownRelation => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::NotPersistent => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(v: u8, offset: u64) -> orchestra_persist::Result<Self> {
        Ok(match v {
            0 => ErrorCode::UnknownPeer,
            1 => ErrorCode::UnknownRelation,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::NotPersistent,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Internal,
            tag => {
                return Err(PersistError::corrupt(
                    offset,
                    format!("unknown error code tag {tag}"),
                ))
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::UnknownPeer => "unknown-peer",
            ErrorCode::UnknownRelation => "unknown-relation",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotPersistent => "not-persistent",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        };
        write!(f, "{s}")
    }
}

/// Summary of one server-side update exchange.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeSummary {
    /// Queued edit batches drained and applied.
    pub batches_applied: u64,
    /// Peers whose pending edits were exchanged.
    pub peers_exchanged: u64,
    /// Tuples inserted into derived relations.
    pub inserted: u64,
    /// Tuples deleted from derived relations.
    pub deleted: u64,
    /// The server's epoch watermark after the exchange (0 when the server
    /// is not persistent).
    pub epoch: u64,
}

impl Encode for ExchangeSummary {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.batches_applied);
        w.put_u64(self.peers_exchanged);
        w.put_u64(self.inserted);
        w.put_u64(self.deleted);
        w.put_u64(self.epoch);
    }
}

impl Decode for ExchangeSummary {
    fn decode(r: &mut Reader<'_>) -> orchestra_persist::Result<Self> {
        Ok(ExchangeSummary {
            batches_applied: r.get_u64()?,
            peers_exchanged: r.get_u64()?,
            inserted: r.get_u64()?,
            deleted: r.get_u64()?,
            epoch: r.get_u64()?,
        })
    }
}

/// Server and instance statistics returned by [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Number of peers hosted.
    pub peers: u64,
    /// Number of logical relations across all peers.
    pub relations: u64,
    /// Total tuples in the auxiliary store (all internal relations).
    pub total_tuples: u64,
    /// Total tuples in the peers' curated output tables.
    pub output_tuples: u64,
    /// Edit batches admitted but not yet applied by an exchange.
    pub pending_batches: u64,
    /// Durable epoch watermark (0 when not persistent).
    pub epoch: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Value-intern hits in the shared store's pool (vocabulary reuse).
    pub intern_hits: u64,
    /// Value-intern misses (new values admitted to the pool).
    pub intern_misses: u64,
    /// Compiled join plans reused from the cross-exchange plan cache.
    pub plan_cache_hits: u64,
    /// Distinct values currently held by the store's intern pool.
    pub pool_values: u64,
    /// Pool values still referenced by live rows (the live vocabulary);
    /// `pool_values - pool_live_values` is what a compaction would reclaim.
    pub pool_live_values: u64,
    /// Value-pool compaction passes run since startup.
    pub pool_compactions: u64,
    /// Epoch of the snapshot view reads are currently served from:
    /// incremented once per content-changing commit point (exchange, bulk
    /// apply, recomputation, compaction).
    pub snapshot_epoch: u64,
    /// Content-changing snapshot publishes since startup.
    pub snapshots_published: u64,
    /// Read requests answered from a lock-free snapshot view rather than
    /// under the store's read lock.
    pub snapshot_reads: u64,
    /// Per-request counters: `(kind label, served count)`.
    pub requests: Vec<(String, u64)>,
}

impl ServerStats {
    /// Total requests served across all kinds.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|(_, n)| n).sum()
    }

    fn encode_requests(&self, w: &mut Writer) {
        w.put_u32(self.requests.len() as u32);
        for (kind, count) in &self.requests {
            w.put_str(kind);
            w.put_u64(*count);
        }
    }

    fn decode_requests(r: &mut Reader<'_>) -> orchestra_persist::Result<Vec<(String, u64)>> {
        let n = r.get_u32()? as usize;
        let mut requests = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            let kind = r.get_str()?.to_string();
            requests.push((kind, r.get_u64()?));
        }
        Ok(requests)
    }
}

impl Encode for ServerStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.peers);
        w.put_u64(self.relations);
        w.put_u64(self.total_tuples);
        w.put_u64(self.output_tuples);
        w.put_u64(self.pending_batches);
        w.put_u64(self.epoch);
        w.put_u64(self.connections);
        w.put_u64(self.intern_hits);
        w.put_u64(self.intern_misses);
        w.put_u64(self.plan_cache_hits);
        w.put_u64(self.pool_values);
        w.put_u64(self.pool_live_values);
        w.put_u64(self.pool_compactions);
        w.put_u64(self.snapshot_epoch);
        w.put_u64(self.snapshots_published);
        w.put_u64(self.snapshot_reads);
        self.encode_requests(w);
    }
}

impl Decode for ServerStats {
    fn decode(r: &mut Reader<'_>) -> orchestra_persist::Result<Self> {
        Ok(ServerStats {
            peers: r.get_u64()?,
            relations: r.get_u64()?,
            total_tuples: r.get_u64()?,
            output_tuples: r.get_u64()?,
            pending_batches: r.get_u64()?,
            epoch: r.get_u64()?,
            connections: r.get_u64()?,
            intern_hits: r.get_u64()?,
            intern_misses: r.get_u64()?,
            plan_cache_hits: r.get_u64()?,
            pool_values: r.get_u64()?,
            pool_live_values: r.get_u64()?,
            pool_compactions: r.get_u64()?,
            snapshot_epoch: r.get_u64()?,
            snapshots_published: r.get_u64()?,
            snapshot_reads: r.get_u64()?,
            requests: Self::decode_requests(r)?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Edits were admitted to the ingestion queue. `seq` is the global
    /// admission sequence number: replaying batches in `seq` order through
    /// the in-process API reproduces the server's state exactly.
    EditsQueued {
        /// Admission sequence number.
        seq: u64,
        /// Operations admitted.
        ops: u64,
    },
    /// An update exchange completed.
    ExchangeDone(ExchangeSummary),
    /// Query answers, sorted.
    Tuples(Vec<Tuple>),
    /// Provenance of a tuple.
    Provenance {
        /// The provenance expression, rendered (Example 6's notation).
        expression: String,
        /// Number of alternative derivations.
        derivations: u64,
        /// Is the tuple currently derivable from base data?
        derivable: bool,
    },
    /// A peer's trust policy.
    Policy(TrustPolicy),
    /// Server statistics.
    Stats(ServerStats),
    /// The operation succeeded with nothing to return.
    Ok,
    /// A value-pool compaction pass completed (answer to
    /// [`Request::Compact`]).
    Compacted {
        /// Distinct pool values before the pass.
        before: u64,
        /// Distinct pool values after the pass (the live vocabulary).
        after: u64,
    },
    /// The server's metrics registry rendered as Prometheus-style text
    /// exposition (answer to [`Request::Metrics`]).
    Metrics(String),
    /// One page of provenance neighbors (answer to
    /// [`Request::ProvenancePage`]). Items stream in a
    /// stable sorted order, so pages never overlap or skip as long as the
    /// token stays valid.
    ProvenancePageResult {
        /// Total neighbors on this side of the tuple (across all pages).
        total: u64,
        /// This page's neighbors, in cursor order.
        items: Vec<ProvenanceNeighbor>,
        /// Token for the next page; `None` when this page is the last.
        next: Option<String>,
    },
    /// The operation failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// Encode a `Response::Tuples` payload directly from borrowed tuples, so
/// the server can serialize a query answer under its read lock without
/// cloning the relation. `len` must equal the iterator's length.
pub fn encode_tuples_response<'a>(len: usize, tuples: impl Iterator<Item = &'a Tuple>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(8);
    encode_tuple_seq_pooled(len, tuples, &mut w);
    w.into_bytes()
}

impl Response {
    /// The payload a frame of `version` carries: the current encoding,
    /// [`Encode::to_bytes`]. `version` must be [`crate::frame::VERSION`],
    /// the only version there is; it is taken so byte counters can name
    /// the version they measure.
    pub fn to_bytes_versioned(&self, version: u8) -> Vec<u8> {
        assert_eq!(version, crate::frame::VERSION, "no other wire version");
        self.to_bytes()
    }
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::EditsQueued { seq, ops } => {
                w.put_u8(0);
                w.put_u64(*seq);
                w.put_u64(*ops);
            }
            Response::ExchangeDone(summary) => {
                w.put_u8(1);
                summary.encode(w);
            }
            Response::Tuples(tuples) => {
                w.put_u8(8);
                encode_tuple_seq_pooled(tuples.len(), tuples.iter(), w);
            }
            Response::Provenance {
                expression,
                derivations,
                derivable,
            } => {
                w.put_u8(3);
                w.put_str(expression);
                w.put_u64(*derivations);
                w.put_u8(u8::from(*derivable));
            }
            Response::Policy(policy) => {
                w.put_u8(4);
                policy.encode(w);
            }
            Response::Stats(stats) => {
                w.put_u8(5);
                stats.encode(w);
            }
            Response::Ok => w.put_u8(6),
            Response::Compacted { before, after } => {
                w.put_u8(9);
                w.put_u64(*before);
                w.put_u64(*after);
            }
            Response::Metrics(text) => {
                w.put_u8(10);
                w.put_str(text);
            }
            Response::ProvenancePageResult { total, items, next } => {
                w.put_u8(11);
                w.put_u64(*total);
                w.put_u32(items.len() as u32);
                for n in items {
                    w.put_str(&n.mapping);
                    w.put_str(&n.relation);
                    n.tuple.encode(w);
                }
                encode_opt_str(next, w);
            }
            Response::Error { code, message } => {
                w.put_u8(7);
                w.put_u8(code.as_u8());
                w.put_str(message);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> orchestra_persist::Result<Self> {
        let offset = r.offset();
        Ok(match r.get_u8()? {
            0 => Response::EditsQueued {
                seq: r.get_u64()?,
                ops: r.get_u64()?,
            },
            1 => Response::ExchangeDone(ExchangeSummary::decode(r)?),
            8 => Response::Tuples(decode_tuple_seq_pooled(r)?),
            3 => Response::Provenance {
                expression: r.get_str()?.to_string(),
                derivations: r.get_u64()?,
                derivable: r.get_u8()? != 0,
            },
            4 => Response::Policy(TrustPolicy::decode(r)?),
            5 => Response::Stats(ServerStats::decode(r)?),
            6 => Response::Ok,
            9 => Response::Compacted {
                before: r.get_u64()?,
                after: r.get_u64()?,
            },
            10 => Response::Metrics(r.get_str()?.to_string()),
            11 => {
                let total = r.get_u64()?;
                let n = r.get_u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    items.push(ProvenanceNeighbor {
                        mapping: r.get_str()?.to_string(),
                        relation: r.get_str()?.to_string(),
                        tuple: Tuple::decode(r)?,
                    });
                }
                Response::ProvenancePageResult {
                    total,
                    items,
                    next: decode_opt_str(r)?,
                }
            }
            7 => {
                let code_offset = r.offset();
                let code = ErrorCode::from_u8(r.get_u8()?, code_offset)?;
                Response::Error {
                    code,
                    message: r.get_str()?.to_string(),
                }
            }
            tag => {
                return Err(PersistError::corrupt(
                    offset,
                    format!("unknown response tag {tag}"),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_core::{CmpOp, Predicate};
    use orchestra_storage::tuple::int_tuple;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let back = T::from_bytes(&v.to_bytes()).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&Request::PublishEdits(
            EditBatch::for_peer("PGUS")
                .insert("G", vec![int_tuple(&[1, 2, 3])])
                .delete("G", vec![int_tuple(&[9, 9, 9])]),
        ));
        roundtrip(&Request::UpdateExchange { peer: None });
        roundtrip(&Request::UpdateExchange {
            peer: Some("PGUS".into()),
        });
        roundtrip(&Request::QueryLocal {
            peer: "PBioSQL".into(),
            relation: "B".into(),
        });
        roundtrip(&Request::QueryCertain {
            peer: "PuBio".into(),
            relation: "U".into(),
        });
        roundtrip(&Request::ProvenanceOf {
            relation: "B".into(),
            tuple: int_tuple(&[3, 2]),
        });
        roundtrip(&Request::GetTrustPolicy {
            peer: "PBioSQL".into(),
        });
        roundtrip(&Request::SetTrustPolicy {
            peer: "PBioSQL".into(),
            policy: orchestra_core::TrustPolicy::trust_all()
                .distrusting("m2")
                .with_condition("m1", Predicate::cmp(1, CmpOp::Lt, 3i64)),
        });
        roundtrip(&Request::Stats);
        roundtrip(&Request::Checkpoint);
        roundtrip(&Request::Shutdown);
        roundtrip(&Request::Compact);
        roundtrip(&Request::Metrics);
        roundtrip(&Request::QueryLocalWhere {
            peer: "PGUS".into(),
            relation: "G".into(),
            binding: vec![Some(Value::Int(3)), None, Some(Value::text("x"))],
        });
        roundtrip(&Request::QueryCertainWhere {
            peer: "PGUS".into(),
            relation: "G".into(),
            binding: vec![None, None],
        });
        roundtrip(&Request::ProvenancePage {
            relation: "B".into(),
            tuple: int_tuple(&[3, 2]),
            direction: PageDirection::Sources,
            token: None,
            limit: 16,
        });
        roundtrip(&Request::ProvenancePage {
            relation: "B".into(),
            tuple: int_tuple(&[3, 2]),
            direction: PageDirection::Targets,
            token: Some("e5:2".into()),
            limit: 1,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::EditsQueued { seq: 7, ops: 12 });
        roundtrip(&Response::ExchangeDone(ExchangeSummary {
            batches_applied: 3,
            peers_exchanged: 2,
            inserted: 40,
            deleted: 5,
            epoch: 9,
        }));
        roundtrip(&Response::Tuples(vec![
            int_tuple(&[1, 2]),
            int_tuple(&[3, 4]),
        ]));
        roundtrip(&Response::Provenance {
            expression: "m1(G_l(3, 5, 2))".into(),
            derivations: 2,
            derivable: true,
        });
        roundtrip(&Response::Policy(
            orchestra_core::TrustPolicy::trust_all().distrusting("m3"),
        ));
        roundtrip(&Response::Stats(ServerStats {
            peers: 3,
            relations: 3,
            total_tuples: 100,
            output_tuples: 40,
            pending_batches: 2,
            epoch: 5,
            connections: 11,
            intern_hits: 1000,
            intern_misses: 40,
            plan_cache_hits: 17,
            pool_values: 45,
            pool_live_values: 30,
            pool_compactions: 2,
            snapshot_epoch: 12,
            snapshots_published: 14,
            snapshot_reads: 600,
            requests: vec![("publish-edits".into(), 9), ("stats".into(), 1)],
        }));
        roundtrip(&Response::Compacted {
            before: 90,
            after: 12,
        });
        roundtrip(&Response::Metrics(
            "# TYPE requests_total counter\nrequests_total{request=\"stats\"} 3\n".into(),
        ));
        roundtrip(&Response::Ok);
        roundtrip(&Response::ProvenancePageResult {
            total: 5,
            items: vec![
                ProvenanceNeighbor {
                    mapping: "m1".into(),
                    relation: "G".into(),
                    tuple: int_tuple(&[3, 5, 2]),
                },
                ProvenanceNeighbor {
                    mapping: "m2".into(),
                    relation: "B".into(),
                    tuple: int_tuple(&[3, 2]),
                },
            ],
            next: Some("e7:2".into()),
        });
        roundtrip(&Response::ProvenancePageResult {
            total: 0,
            items: vec![],
            next: None,
        });
        roundtrip(&Response::Error {
            code: ErrorCode::UnknownPeer,
            message: "unknown peer `nobody`".into(),
        });
    }

    #[test]
    fn borrowed_tuple_encoding_matches_owned() {
        let tuples = vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])];
        let borrowed = encode_tuples_response(tuples.len(), tuples.iter());
        let owned = Response::Tuples(tuples.clone());
        assert_eq!(borrowed, owned.to_bytes());
        assert_eq!(borrowed, owned.to_bytes_versioned(crate::frame::VERSION));
        assert_eq!(Response::from_bytes(&borrowed).unwrap(), owned);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One value of every request variant with its v6 bytes in hex.
    fn pinned_requests() -> Vec<(Request, &'static str)> {
        vec![
            (
                Request::PublishEdits(
                    EditBatch::for_peer("PGUS")
                        .insert("G", vec![int_tuple(&[3, 5, 2]), int_tuple(&[1, 2, 3])])
                        .delete("G", vec![int_tuple(&[9, 9, 9])]),
                ),
                "0a0400000050475553050000000003000000000000000005000000000000000002000000000000000001000000000000000009000000000000000100000001000000470200000003000000000000000100000002000000030000000300000002000000000000000100000001000000470100000003000000040000000400000004000000",
            ),
            (Request::UpdateExchange { peer: None }, "0100"),
            (
                Request::UpdateExchange {
                    peer: Some("PGUS".into()),
                },
                "01010400000050475553",
            ),
            (
                Request::QueryLocal {
                    peer: "PBioSQL".into(),
                    relation: "B".into(),
                },
                "02070000005042696f53514c0100000042",
            ),
            (
                Request::QueryCertain {
                    peer: "PuBio".into(),
                    relation: "U".into(),
                },
                "0305000000507542696f0100000055",
            ),
            (
                Request::ProvenanceOf {
                    relation: "B".into(),
                    tuple: int_tuple(&[3, 2]),
                },
                "04010000004202000000000300000000000000000200000000000000",
            ),
            (
                Request::GetTrustPolicy {
                    peer: "PBioSQL".into(),
                },
                "05070000005042696f53514c",
            ),
            (
                Request::SetTrustPolicy {
                    peer: "PBioSQL".into(),
                    policy: TrustPolicy::trust_all()
                        .distrusting("m2")
                        .with_condition("m1", Predicate::cmp(1, CmpOp::Lt, 3i64)),
                },
                "06070000005042696f53514c01000000020000006d3201000000020000006d3102010000000000000002000300000000000000",
            ),
            (Request::Stats, "07"),
            (Request::Checkpoint, "08"),
            (Request::Shutdown, "09"),
            (Request::Compact, "0b"),
            (Request::Metrics, "0c"),
            (
                Request::QueryLocalWhere {
                    peer: "PGUS".into(),
                    relation: "G".into(),
                    binding: vec![Some(Value::Int(3)), None, Some(Value::text("x"))],
                },
                "0d0400000050475553010000004703000000010003000000000000000001010100000078",
            ),
            (
                Request::QueryCertainWhere {
                    peer: "PGUS".into(),
                    relation: "G".into(),
                    binding: vec![None, Some(Value::Int(-7)), None],
                },
                "0e0400000050475553010000004703000000000100f9ffffffffffffff00",
            ),
            (
                Request::ProvenancePage {
                    relation: "B".into(),
                    tuple: int_tuple(&[3, 2]),
                    direction: PageDirection::Targets,
                    token: Some("e5:2".into()),
                    limit: 16,
                },
                "0f01000000420200000000030000000000000000020000000000000001010400000065353a3210000000",
            ),
            (
                Request::AddMapping {
                    name: "m5".into(),
                    text: "U(n, c) -> B(i, n)".into(),
                },
                "10020000006d351200000055286e2c206329202d3e204228692c206e29",
            ),
        ]
    }

    /// One value of every response variant with its v6 bytes in hex.
    fn pinned_responses() -> Vec<(Response, &'static str)> {
        vec![
            (Response::EditsQueued { seq: 7, ops: 12 }, "0007000000000000000c00000000000000"),
            (
                Response::ExchangeDone(ExchangeSummary {
                    batches_applied: 3,
                    peers_exchanged: 2,
                    inserted: 40,
                    deleted: 5,
                    epoch: 9,
                }),
                "0103000000000000000200000000000000280000000000000005000000000000000900000000000000",
            ),
            (
                Response::Tuples(vec![int_tuple(&[1, 3]), int_tuple(&[3, 3])]),
                "080200000000010000000000000000030000000000000002000000020000000000000001000000020000000100000001000000",
            ),
            (
                Response::Provenance {
                    expression: "m1(G_l(3, 5, 2))".into(),
                    derivations: 2,
                    derivable: true,
                },
                "03100000006d3128475f6c28332c20352c20322929020000000000000001",
            ),
            (
                Response::Policy(TrustPolicy::trust_all().distrusting("m3")),
                "0401000000020000006d3300000000",
            ),
            (
                Response::Stats(ServerStats {
                    peers: 3,
                    relations: 4,
                    total_tuples: 100,
                    output_tuples: 40,
                    pending_batches: 2,
                    epoch: 5,
                    connections: 11,
                    intern_hits: 1000,
                    intern_misses: 40,
                    plan_cache_hits: 17,
                    pool_values: 45,
                    pool_live_values: 30,
                    pool_compactions: 2,
                    snapshot_epoch: 12,
                    snapshots_published: 14,
                    snapshot_reads: 600,
                    requests: vec![("publish-edits".into(), 9), ("stats".into(), 1)],
                }),
                "050300000000000000040000000000000064000000000000002800000000000000020000000000000005000000000000000b00000000000000e803000000000000280000000000000011000000000000002d000000000000001e0000000000000002000000000000000c000000000000000e000000000000005802000000000000020000000d0000007075626c6973682d656469747309000000000000000500000073746174730100000000000000",
            ),
            (Response::Ok, "06"),
            (
                Response::Compacted {
                    before: 90,
                    after: 12,
                },
                "095a000000000000000c00000000000000",
            ),
            (Response::Metrics("requests_total 3\n".into()), "0a1100000072657175657374735f746f74616c20330a"),
            (
                Response::ProvenancePageResult {
                    total: 5,
                    items: vec![ProvenanceNeighbor {
                        mapping: "m1".into(),
                        relation: "G".into(),
                        tuple: int_tuple(&[3, 5, 2]),
                    }],
                    next: Some("e7:2".into()),
                },
                "0b050000000000000001000000020000006d31010000004703000000000300000000000000000500000000000000000200000000000000010400000065373a32",
            ),
            (
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "bad".into(),
                },
                "070203000000626164",
            ),
        ]
    }

    /// The exact v6 bytes of one value of every request and response
    /// variant. A layout change, a renumbered tag or a reused retired tag
    /// shows here even when encoder and decoder change together (which a
    /// round-trip test cannot see), and it would move
    /// `net.req_bytes_per_op` / `net.resp_bytes_per_op`.
    #[test]
    fn v6_bytes_are_pinned() {
        let requests = pinned_requests();
        let responses = pinned_responses();
        let mut drift = Vec::new();
        for (request, expected) in &requests {
            let actual = hex(&request.to_bytes());
            if actual != *expected {
                drift.push(format!("{:?}: {actual}", request.kind()));
            }
        }
        for (i, (response, expected)) in responses.iter().enumerate() {
            let actual = hex(&response.to_bytes());
            if actual != *expected {
                drift.push(format!("response #{i}: {actual}"));
            }
        }
        assert!(drift.is_empty(), "v6 bytes moved:\n{}", drift.join("\n"));
    }

    #[test]
    fn every_strict_truncation_is_refused() {
        for (request, _) in pinned_requests() {
            let bytes = request.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Request::from_bytes(&bytes[..cut]).is_err(),
                    "{:?} cut at {cut}",
                    request.kind()
                );
            }
        }
        for (i, (response, _)) in pinned_responses().iter().enumerate() {
            let bytes = response.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Response::from_bytes(&bytes[..cut]).is_err(),
                    "response #{i} cut at {cut}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes after any tag (live, retired or unknown) decode
        /// to a value or an error, never a panic.
        #[test]
        fn arbitrary_payloads_never_panic(
            tag in 0u8..24,
            body in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let bytes = [&[tag][..], &body].concat();
            let _ = Request::from_bytes(&bytes);
            let _ = Response::from_bytes(&bytes);
        }

        /// Random bulk payloads round-trip, and every strict truncation of
        /// one is refused.
        #[test]
        fn truncated_bulk_payloads_are_refused(
            rows in prop::collection::vec(prop::collection::vec(-4i64..4, 1..4), 0..6),
        ) {
            let tuples: Vec<Tuple> = rows.iter().map(|r| int_tuple(r)).collect();
            let request = Request::PublishEdits(
                EditBatch::for_peer("p")
                    .insert("R", tuples.clone())
                    .delete("S", tuples.clone()),
            );
            let bytes = request.to_bytes();
            prop_assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
            for cut in 0..bytes.len() {
                prop_assert!(Request::from_bytes(&bytes[..cut]).is_err());
            }
            let response = Response::Tuples(tuples);
            let bytes = response.to_bytes();
            prop_assert_eq!(Response::from_bytes(&bytes).unwrap(), response);
            for cut in 0..bytes.len() {
                prop_assert!(Response::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(Request::from_bytes(&[200]).is_err());
        assert!(Response::from_bytes(&[200]).is_err());
        // The retired plain-tuple tags are unknown too: request tag 0 (a
        // plain `PublishEdits`) and response tag 2 (plain `Tuples`), each
        // followed by a well-formed empty body of the old layout.
        let empty_batch = [
            0x04, 0, 0, 0, b'P', b'G', b'U', b'S', 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        let err = Request::from_bytes(&[&[0u8][..], &empty_batch].concat()).unwrap_err();
        assert!(err.to_string().contains("unknown request tag 0"), "{err}");
        let err = Response::from_bytes(&[2, 0, 0, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("unknown response tag 2"), "{err}");
    }

    #[test]
    fn edit_batch_counts_ops() {
        let batch = EditBatch::for_peer("p")
            .insert("R", vec![int_tuple(&[1]), int_tuple(&[2])])
            .delete("R", vec![int_tuple(&[3])]);
        assert_eq!(batch.ops(), 3);
    }
}
