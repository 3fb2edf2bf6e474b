//! The threaded `orchestrad` server.
//!
//! One [`Cdss`] is shared behind an `RwLock` by a thread-per-connection
//! accept loop (`vendor/` carries no async runtime, so plain OS threads are
//! the concurrency substrate):
//!
//! * **Reads don't lock**: `QueryLocal` / `QueryCertain` / `ProvenanceOf`
//!   / `Stats` are served from the latest published
//!   [`SnapshotView`](orchestra_core::SnapshotView) — a lock-free load of
//!   an immutable whole-epoch view — so queries keep answering at full
//!   speed while an exchange holds the write lock for seconds. Answers are
//!   serialized straight from borrowed tuples; no relation is cloned.
//!   `GetTrustPolicy` stays on the read lock: policies are mutable live
//!   state that snapshots deliberately do not capture.
//! * **Writes batch**: `PublishEdits` does *not* touch the write lock. The
//!   batch is validated against the schema under the read lock and admitted
//!   to an ingestion queue guarded by its own mutex, tagged with a global
//!   admission sequence number. Many clients publish concurrently while an
//!   exchange runs.
//! * **Exchanges serialize**: `UpdateExchange` drains the queue in
//!   admission order under the write lock and runs the ordinary
//!   update-exchange machinery, so epochs are totally ordered and the final
//!   state equals a serial replay of the admitted batches.
//!
//! Shutdown is graceful: the `Shutdown` request (or
//! [`ServerHandle::stop`]) flips a flag, wakes the accept loop, and every
//! connection thread drains at its next poll tick; [`ServerHandle::join`]
//! collects them all.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use orchestra_core::{Cdss, CdssError, PageDirection, SnapshotReader, SnapshotView, Tgd};
use orchestra_persist::codec::{Decode, Encode};
use orchestra_storage::{Tuple, Value};

use crate::error::NetError;
use crate::frame::{read_frame_expecting, write_frame_versioned, FrameKind};
use crate::proto::{
    encode_tuples_response, EditBatch, ErrorCode, ExchangeSummary, Request, RequestKind, Response,
    ServerStats,
};
use crate::Result;

/// How often an idle connection thread wakes up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Per-server observability: request counters and latency histograms in a
/// registry of this server's own, so several servers in one process
/// (tests, the benchmark harness) never mix their numbers. Engine-level
/// series (exchange phases, WAL timings, eval counters) live in the
/// process-global registry; [`ServerObs::render`] concatenates both for
/// the `Metrics` wire response.
struct ServerObs {
    registry: Arc<orchestra_obs::Registry>,
    served: Vec<orchestra_obs::Counter>,
    latency: Vec<orchestra_obs::Histogram>,
    connections: orchestra_obs::Counter,
    snapshot_reads: orchestra_obs::Counter,
}

impl ServerObs {
    fn new() -> Self {
        let registry = Arc::new(orchestra_obs::Registry::new());
        // Register every kind up front so the exposition lists the full
        // request vocabulary (at zero) from the first scrape.
        let served = RequestKind::ALL
            .iter()
            .map(|k| registry.counter_with("requests_total", &[("request", k.label())]))
            .collect();
        let latency = RequestKind::ALL
            .iter()
            .map(|k| registry.histogram_with("request_latency_seconds", &[("request", k.label())]))
            .collect();
        let connections = registry.counter("connections_total");
        let snapshot_reads = registry.counter("snapshot_reads_total");
        ServerObs {
            registry,
            served,
            latency,
            connections,
            snapshot_reads,
        }
    }

    fn record(&self, kind: RequestKind, elapsed: Duration) {
        self.served[kind as usize].inc();
        self.latency[kind as usize].observe(elapsed);
    }

    /// Request, connection and snapshot-read counts exactly as the `Stats`
    /// payload reports them, read back from the registry — the wire
    /// `Stats` frame and the text exposition share one source of truth.
    fn stats_counters(&self) -> (Vec<(String, u64)>, u64, u64) {
        let requests = RequestKind::ALL
            .iter()
            .filter_map(|k| {
                let n = self
                    .registry
                    .counter_value("requests_total", &[("request", k.label())])?;
                (n > 0).then(|| (k.label().to_string(), n))
            })
            .collect();
        let connections = self
            .registry
            .counter_value("connections_total", &[])
            .unwrap_or(0);
        let snapshot_reads = self
            .registry
            .counter_value("snapshot_reads_total", &[])
            .unwrap_or(0);
        (requests, connections, snapshot_reads)
    }

    /// The full exposition: this server's registry followed by the
    /// process-global engine registry.
    fn render(&self) -> String {
        format!(
            "{}{}",
            self.registry.render(),
            orchestra_obs::global().render()
        )
    }

    fn probe(&self) -> MetricsProbe {
        MetricsProbe {
            registry: Arc::clone(&self.registry),
        }
    }
}

/// A detached handle onto a server's metrics registry. It renders the same
/// exposition as [`Request::Metrics`] but holds none of the server's
/// shared state alive, so it can outlive [`ServerHandle::join`] (which
/// requires sole ownership of that state) — e.g. on a periodic printer
/// thread.
pub struct MetricsProbe {
    registry: Arc<orchestra_obs::Registry>,
}

impl MetricsProbe {
    /// The server-plus-engine metrics exposition.
    pub fn render(&self) -> String {
        format!(
            "{}{}",
            self.registry.render(),
            orchestra_obs::global().render()
        )
    }
}

thread_local! {
    /// Peer address of the connection the current thread is serving, for
    /// structured log events emitted deep inside request handling.
    static CURRENT_PEER: std::cell::Cell<Option<SocketAddr>> =
        const { std::cell::Cell::new(None) };
}

/// The edit-ingestion queue: admitted batches in admission order.
#[derive(Debug, Default)]
struct Ingest {
    next_seq: u64,
    batches: VecDeque<(u64, EditBatch)>,
}

/// State shared by every server thread.
struct Shared {
    cdss: RwLock<Cdss>,
    /// Lock-free handle onto the CDSS's latest published snapshot view;
    /// read requests load it without touching `cdss`'s `RwLock`.
    reader: SnapshotReader,
    ingest: Mutex<Ingest>,
    obs: ServerObs,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// One-shot markers so a poisoned lock is logged the first time a
    /// request observes it, not on every subsequent acquisition.
    cdss_poisoned: AtomicBool,
    ingest_poisoned: AtomicBool,
}

impl Shared {
    /// Log (once per poisoning event) that a lock was found poisoned — a
    /// panic mid-update elsewhere — before continuing with the inner value.
    fn note_poison(&self, flag: &AtomicBool, lock: &str, tag: &str) {
        if !flag.swap(true, Ordering::Relaxed) {
            let mut fields = vec![
                ("lock", lock.to_string()),
                ("request", tag.to_string()),
                (
                    "detail",
                    "a writer panicked mid-update; continuing with the inner value".to_string(),
                ),
            ];
            if let Some(peer) = CURRENT_PEER.with(std::cell::Cell::get) {
                fields.push(("peer", peer.to_string()));
            }
            orchestra_obs::log::warn("server", "lock-poisoned", &fields);
        }
    }

    fn read_cdss(&self, tag: &str) -> std::sync::RwLockReadGuard<'_, Cdss> {
        self.cdss.read().unwrap_or_else(|p| {
            self.note_poison(&self.cdss_poisoned, "cdss", tag);
            p.into_inner()
        })
    }

    fn write_cdss(&self, tag: &str) -> std::sync::RwLockWriteGuard<'_, Cdss> {
        self.cdss.write().unwrap_or_else(|p| {
            self.note_poison(&self.cdss_poisoned, "cdss", tag);
            p.into_inner()
        })
    }

    fn lock_ingest(&self, tag: &str) -> std::sync::MutexGuard<'_, Ingest> {
        self.ingest.lock().unwrap_or_else(|p| {
            self.note_poison(&self.ingest_poisoned, "ingest", tag);
            p.into_inner()
        })
    }

    /// The snapshot view read requests are served from, counted.
    fn snapshot_view(&self) -> Arc<SnapshotView> {
        self.obs.snapshot_reads.inc();
        self.reader.latest()
    }
}

/// Handle to a running server: its bound address, and control over its
/// lifecycle.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Has shutdown been requested (by a `Shutdown` request or
    /// [`ServerHandle::stop`])?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from the hosting process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake_accept_loop(self.shared.addr);
    }

    /// Block until the accept loop and every connection thread have
    /// exited. Returns the CDSS so the hosting process can checkpoint or
    /// inspect the final state.
    pub fn join(mut self) -> Cdss {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers: Vec<_> = {
            let mut guard = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
        let shared = self.shared;
        // Both loops have exited; this is the only Arc holder left (every
        // worker thread's clone is dropped when the thread exits).
        match Arc::try_unwrap(shared) {
            Ok(s) => s.cdss.into_inner().unwrap_or_else(PoisonError::into_inner),
            Err(_) => unreachable!("all server threads joined"),
        }
    }

    /// Convenience: [`ServerHandle::stop`] then [`ServerHandle::join`].
    pub fn stop_and_join(self) -> Cdss {
        self.stop();
        self.join()
    }

    /// The server's metrics exposition — the same text a
    /// [`Request::Metrics`] returns over the wire: this server's request
    /// counters and latency histograms, followed by the process-global
    /// engine series.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.render()
    }

    /// A detached [`MetricsProbe`] for rendering the exposition after this
    /// handle is consumed (it does not keep the server state alive).
    pub fn metrics_probe(&self) -> MetricsProbe {
        self.shared.obs.probe()
    }
}

/// Connect to our own listener so a blocked `accept` returns and the loop
/// can observe the shutdown flag. A wildcard bind address (`0.0.0.0` /
/// `::`) is not itself connectable everywhere, so the wake connection
/// targets the loopback of the same family instead.
fn wake_accept_loop(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        match target {
            SocketAddr::V4(_) => target.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => target.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
        }
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_millis(500));
}

/// Start serving a CDSS on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port). Returns once the listener is bound; requests are served on
/// background threads until shutdown. Reads are snapshot-isolated (see the
/// module docs).
pub fn serve(cdss: Cdss, addr: impl ToSocketAddrs) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr).map_err(|e| NetError::io("binding listener", &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::io("resolving local address", &e))?;

    // Expose the fixpoint pool size in the metrics exposition so scrapes
    // can correlate eval throughput with worker count.
    orchestra_obs::gauge("eval_pool_threads").set(cdss.eval_threads() as i64);

    let reader = cdss.snapshot_reader();
    let shared = Arc::new(Shared {
        cdss: RwLock::new(cdss),
        reader,
        ingest: Mutex::new(Ingest::default()),
        obs: ServerObs::new(),
        shutdown: AtomicBool::new(false),
        addr,
        cdss_poisoned: AtomicBool::new(false),
        ingest_poisoned: AtomicBool::new(false),
    });
    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_workers = Arc::clone(&workers);
    let accept = std::thread::Builder::new()
        .name("orchestrad-accept".into())
        .spawn(move || accept_loop(listener, accept_shared, accept_workers))
        .map_err(|e| NetError::io("spawning accept thread", &e))?;

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = conn else {
            // Transient accept failure (e.g. aborted handshake): keep going.
            continue;
        };
        shared.obs.connections.inc();
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("orchestrad-conn".into())
            .spawn(move || connection_loop(stream, conn_shared));
        if let Ok(handle) = handle {
            let mut guard = workers.lock().unwrap_or_else(PoisonError::into_inner);
            // Reap handles of finished connections so a long-running
            // server does not accumulate one per connection ever accepted.
            guard.retain(|h| !h.is_finished());
            guard.push(handle);
        }
    }
}

/// Serve one connection until the client disconnects, the protocol is
/// violated, or the server shuts down.
fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    // A finite read timeout lets the thread poll the shutdown flag while
    // idle, keeping `ServerHandle::join` bounded.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    CURRENT_PEER.with(|p| p.set(stream.peer_addr().ok()));

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // The requester's frame version is echoed on the response, with the
        // payload encoded in that version's vocabulary, so old clients can
        // talk to a new server (see `proto`'s version-negotiation docs).
        let (version, payload) = match read_frame_expecting(&mut stream, FrameKind::Request) {
            Ok(frame) => frame,
            Err(NetError::Timeout) => continue,
            Err(NetError::Disconnected) => break,
            Err(NetError::Protocol(message)) => {
                // Framing is broken, so the peer's version is unknown;
                // answer once (best effort) at the oldest version — the
                // `Error` payload layout is version-independent and every
                // peer accepts a v1 frame — and hang up.
                let resp = Response::Error {
                    code: ErrorCode::BadRequest,
                    message,
                };
                let _ = write_frame_versioned(
                    &mut stream,
                    FrameKind::Response,
                    &resp.to_bytes(),
                    crate::frame::MIN_VERSION,
                );
                break;
            }
            Err(_) => break,
        };

        let (mut response_payload, shutdown_requested) = match Request::from_bytes(&payload) {
            Ok(request) => {
                let is_shutdown = request == Request::Shutdown;
                let kind = request.kind();
                let _span = orchestra_obs::span(kind.label(), "net");
                let start = Instant::now();
                let response = handle_request(&shared, request, version);
                shared.obs.record(kind, start.elapsed());
                (response, is_shutdown)
            }
            Err(e) => (
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("undecodable request: {e}"),
                }
                .to_bytes(),
                false,
            ),
        };

        // An answer the framing cannot carry becomes an error response
        // rather than a silently dropped connection.
        if response_payload.len() > crate::frame::MAX_PAYLOAD_LEN as usize {
            response_payload = error_response(
                ErrorCode::Internal,
                format!(
                    "response of {} bytes exceeds the frame limit; narrow the query",
                    response_payload.len()
                ),
            );
        }
        if write_frame_versioned(&mut stream, FrameKind::Response, &response_payload, version)
            .is_err()
        {
            break;
        }
        if shutdown_requested {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(shared.addr);
            break;
        }
    }
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Vec<u8> {
    Response::Error {
        code,
        message: message.into(),
    }
    .to_bytes()
}

fn cdss_error_response(e: &CdssError) -> Vec<u8> {
    let code = match e {
        CdssError::UnknownPeer(_) => ErrorCode::UnknownPeer,
        CdssError::NotPeerRelation { .. } => ErrorCode::UnknownRelation,
        CdssError::ArityMismatch { .. } | CdssError::UnknownMapping(_) => ErrorCode::BadRequest,
        // Static-analysis rejections are the client's program being wrong,
        // not a server fault; the rendered diagnostics ride in the message.
        CdssError::Analysis(_) | CdssError::Mapping(_) => ErrorCode::BadRequest,
        CdssError::Persistence(_) => ErrorCode::NotPersistent,
        _ => ErrorCode::Internal,
    };
    error_response(code, e.to_string())
}

/// Dispatch one decoded request to the shared state, returning the encoded
/// response payload. `version` is the requester's frame version; payloads
/// whose layout differs between versions (`Tuples`, `Stats`) are encoded in
/// that version's vocabulary.
fn handle_request(shared: &Shared, request: Request, version: u8) -> Vec<u8> {
    if shared.shutdown.load(Ordering::SeqCst) && request != Request::Shutdown {
        return error_response(ErrorCode::ShuttingDown, "server is shutting down");
    }
    match request {
        Request::PublishEdits(batch) => handle_publish(shared, batch),
        Request::UpdateExchange { peer } => handle_exchange(shared, peer.as_deref()),
        Request::QueryLocal { peer, relation } => {
            handle_query(shared, &peer, &relation, false, version)
        }
        Request::QueryCertain { peer, relation } => {
            handle_query(shared, &peer, &relation, true, version)
        }
        Request::ProvenanceOf { relation, tuple } => {
            // Canonical form: remote provenance answers are deterministic
            // regardless of the graph's internal iteration order.
            let view = shared.snapshot_view();
            let expr = view.provenance_of(&relation, &tuple).canonical();
            Response::Provenance {
                expression: expr.to_string(),
                derivations: expr.num_derivations() as u64,
                derivable: view.is_derivable(&relation, &tuple),
            }
            .to_bytes()
        }
        Request::GetTrustPolicy { peer } => {
            let cdss = shared.read_cdss("get-trust-policy");
            match cdss.peer(&peer) {
                Ok(_) => Response::Policy(cdss.trust_policy(&peer)).to_bytes(),
                Err(e) => cdss_error_response(&e),
            }
        }
        Request::SetTrustPolicy { peer, policy } => {
            let mut cdss = shared.write_cdss("set-trust-policy");
            match cdss.set_trust_policy(peer, policy) {
                Ok(()) => Response::Ok.to_bytes(),
                Err(e) => cdss_error_response(&e),
            }
        }
        Request::Stats => handle_stats(shared, version),
        Request::Checkpoint => {
            let mut cdss = shared.write_cdss("checkpoint");
            if !cdss.is_persistent() {
                return error_response(
                    ErrorCode::NotPersistent,
                    "server has no persistence directory",
                );
            }
            match cdss.checkpoint() {
                Ok(()) => Response::Ok.to_bytes(),
                Err(e) => cdss_error_response(&e),
            }
        }
        Request::Shutdown => Response::Ok.to_bytes(),
        Request::Compact => {
            let mut cdss = shared.write_cdss("compact");
            let report = cdss.compact();
            Response::Compacted {
                before: report.before as u64,
                after: report.after as u64,
            }
            .to_bytes()
        }
        Request::Metrics => {
            if version < 5 {
                return error_response(
                    ErrorCode::BadRequest,
                    format!(
                        "the Metrics request requires frame version 5 \
                         (requester is pinned to {version})"
                    ),
                );
            }
            Response::Metrics(shared.obs.render()).to_bytes()
        }
        Request::QueryLocalWhere {
            peer,
            relation,
            binding,
        } => handle_query_where(shared, &peer, &relation, &binding, false, version),
        Request::QueryCertainWhere {
            peer,
            relation,
            binding,
        } => handle_query_where(shared, &peer, &relation, &binding, true, version),
        Request::ProvenancePage {
            relation,
            tuple,
            direction,
            token,
            limit,
        } => handle_provenance_page(
            shared,
            &relation,
            &tuple,
            direction,
            token.as_deref(),
            limit,
            version,
        ),
        Request::AddMapping { name, text } => handle_add_mapping(shared, &name, &text, version),
    }
}

/// Answer `AddMapping`: parse the tgd, extend the mapping set and re-run
/// the static analyzer over the whole program. A rejected program returns
/// `BadRequest` whose message carries the rendered diagnostics, and the
/// server keeps serving its previous mappings.
fn handle_add_mapping(shared: &Shared, name: &str, text: &str, version: u8) -> Vec<u8> {
    if version < 6 {
        return error_response(
            ErrorCode::BadRequest,
            format!(
                "the AddMapping request requires frame version 6 \
                 (requester is pinned to {version})"
            ),
        );
    }
    let tgd = match Tgd::parse(name, text) {
        Ok(tgd) => tgd,
        Err(e) => return error_response(ErrorCode::BadRequest, e.to_string()),
    };
    let mut cdss = shared.write_cdss("add-mapping");
    match cdss.add_mapping(tgd) {
        Ok(()) => Response::Ok.to_bytes(),
        Err(e) => cdss_error_response(&e),
    }
}

/// Answer `QueryLocalWhere` / `QueryCertainWhere`: a filtered scan of the
/// peer's curated output table in which only matching tuples are cloned
/// and serialized — the full instance never crosses the wire. Served from
/// a lock-free snapshot view, like the unbound queries.
fn handle_query_where(
    shared: &Shared,
    peer: &str,
    relation: &str,
    binding: &[Option<Value>],
    certain: bool,
    version: u8,
) -> Vec<u8> {
    if version < 6 {
        return error_response(
            ErrorCode::BadRequest,
            format!(
                "bound point queries require frame version 6 \
                 (requester is pinned to {version})"
            ),
        );
    }
    let view = shared.snapshot_view();
    let answers = if certain {
        view.query_certain_bound(peer, relation, binding)
    } else {
        view.query_local_bound(peer, relation, binding)
    };
    match answers {
        Ok(tuples) => encode_tuples_response(tuples.len(), tuples.iter(), version),
        Err(e) => cdss_error_response(&e),
    }
}

/// Parse a provenance cursor token of the form `e{epoch}:{offset}`.
fn parse_page_token(token: &str) -> Option<(u64, usize)> {
    let (epoch, offset) = token.split_once(':')?;
    Some((epoch.strip_prefix('e')?.parse().ok()?, offset.parse().ok()?))
}

/// Answer `ProvenancePage`: one slice of a tuple's sorted one-hop neighbor
/// list. The resume token pins the snapshot epoch the cursor was opened
/// at; if the instance has advanced since, the token is refused with
/// `BadRequest` and the client restarts pagination — pages never silently
/// mix two epochs' derivations.
fn handle_provenance_page(
    shared: &Shared,
    relation: &str,
    tuple: &Tuple,
    direction: PageDirection,
    token: Option<&str>,
    limit: u32,
    version: u8,
) -> Vec<u8> {
    if version < 6 {
        return error_response(
            ErrorCode::BadRequest,
            format!(
                "the ProvenancePage request requires frame version 6 \
                 (requester is pinned to {version})"
            ),
        );
    }
    let limit = (limit as usize).max(1);
    let view = shared.snapshot_view();
    let epoch = view.epoch();
    let neighbors = view.provenance_neighbors(relation, tuple, direction);
    let offset = match token {
        None => 0,
        Some(t) => match parse_page_token(t) {
            Some((e, o)) if e == epoch => o,
            Some(_) => {
                return error_response(
                    ErrorCode::BadRequest,
                    "stale provenance cursor (the snapshot epoch has advanced); \
                     restart pagination",
                )
            }
            None => {
                return error_response(
                    ErrorCode::BadRequest,
                    format!("malformed provenance cursor token `{t}`"),
                )
            }
        },
    };
    let total = neighbors.len() as u64;
    let end = offset.saturating_add(limit).min(neighbors.len());
    let items = if offset >= neighbors.len() {
        Vec::new()
    } else {
        neighbors[offset..end].to_vec()
    };
    let next = (end < neighbors.len()).then(|| format!("e{epoch}:{end}"));
    Response::ProvenancePageResult { total, items, next }.to_bytes()
}

/// Answer `QueryLocal` / `QueryCertain`: serialize the (sorted) answer
/// straight from borrowed tuples — only references move, the relation
/// itself is never copied. The tuples are borrowed from a lock-free
/// snapshot view (a whole-epoch instance, isolated from any concurrent
/// exchange).
fn handle_query(
    shared: &Shared,
    peer: &str,
    relation: &str,
    certain: bool,
    version: u8,
) -> Vec<u8> {
    let view = shared.snapshot_view();
    let collected: std::result::Result<Vec<_>, _> = if certain {
        view.certain_answers_iter(peer, relation)
            .map(Iterator::collect)
    } else {
        view.local_instance_iter(peer, relation)
            .map(Iterator::collect)
    };
    match collected {
        Ok(mut tuples) => {
            tuples.sort();
            encode_tuples_response(tuples.len(), tuples.into_iter(), version)
        }
        Err(e) => cdss_error_response(&e),
    }
}

/// Admit a batch to the ingestion queue. Validation (peer exists, owns the
/// relations, arities match) runs under the read lock so bad batches are
/// rejected at the door, with the error attached to the request that
/// caused it rather than a later exchange.
fn handle_publish(shared: &Shared, batch: EditBatch) -> Vec<u8> {
    {
        let cdss = shared.read_cdss("publish-edits");
        let peer = match cdss.peer(&batch.peer) {
            Ok(p) => p,
            Err(e) => return cdss_error_response(&e),
        };
        for (relation, tuples) in batch.inserts.iter().chain(batch.deletes.iter()) {
            let Some(schema) = peer.relation(relation) else {
                return cdss_error_response(&CdssError::NotPeerRelation {
                    peer: batch.peer.clone(),
                    relation: relation.clone(),
                });
            };
            for t in tuples {
                if t.arity() != schema.arity() {
                    return cdss_error_response(&CdssError::ArityMismatch {
                        relation: relation.clone(),
                        expected: schema.arity(),
                        actual: t.arity(),
                    });
                }
            }
        }
    }

    let ops = batch.ops() as u64;
    let mut ingest = shared.lock_ingest("publish-edits");
    let seq = ingest.next_seq;
    ingest.next_seq += 1;
    ingest.batches.push_back((seq, batch));
    Response::EditsQueued { seq, ops }.to_bytes()
}

/// Drain the ingestion queue in admission order and run an update
/// exchange, all under the write lock — exchanges are serialized and the
/// result is identical to a serial replay of the admitted batches. A
/// single-peer exchange drains only that peer's batches; everyone else's
/// stay queued (and counted in `Stats.pending_batches`) until an exchange
/// covers them.
fn handle_exchange(shared: &Shared, peer: Option<&str>) -> Vec<u8> {
    let mut cdss = shared.write_cdss("update-exchange");
    // Drain *after* taking the write lock: batches admitted from here on
    // belong to the next exchange.
    let drained: Vec<(u64, EditBatch)> = {
        let mut ingest = shared.lock_ingest("update-exchange");
        match peer {
            Some(p) => {
                let (drain, keep): (VecDeque<_>, VecDeque<_>) = ingest
                    .batches
                    .drain(..)
                    .partition(|(_, batch)| batch.peer == p);
                ingest.batches = keep;
                drain.into_iter().collect()
            }
            None => ingest.batches.drain(..).collect(),
        }
    };

    let mut summary = ExchangeSummary {
        batches_applied: drained.len() as u64,
        ..ExchangeSummary::default()
    };

    for (_seq, batch) in &drained {
        for (relation, tuples) in &batch.inserts {
            for t in tuples {
                if let Err(e) = cdss.insert_local(&batch.peer, relation, t.clone()) {
                    return cdss_error_response(&e);
                }
            }
        }
        for (relation, tuples) in &batch.deletes {
            for t in tuples {
                if let Err(e) = cdss.delete_local(&batch.peer, relation, t.clone()) {
                    return cdss_error_response(&e);
                }
            }
        }
    }

    let exchanged = match peer {
        Some(p) => cdss.update_exchange(p).map(|(pub_report, reports)| {
            summary.peers_exchanged = u64::from(!pub_report.is_empty());
            reports
        }),
        None => cdss.update_exchange_all().map(|results| {
            let mut reports = Vec::new();
            for (_peer, pub_report, peer_reports) in results {
                if !pub_report.is_empty() {
                    summary.peers_exchanged += 1;
                }
                reports.extend(peer_reports);
            }
            reports
        }),
    };
    match exchanged {
        Ok(reports) => {
            for report in &reports {
                summary.inserted += report.total_inserted() as u64;
                summary.deleted += report.total_deleted() as u64;
            }
            summary.epoch = cdss.current_epoch();
            Response::ExchangeDone(summary).to_bytes()
        }
        Err(e) => cdss_error_response(&e),
    }
}

fn handle_stats(shared: &Shared, version: u8) -> Vec<u8> {
    // The server-side counters come from the obs registry in one place, so
    // the `Stats` frame and the `Metrics` exposition can never disagree.
    let (requests, connections, snapshot_reads) = shared.obs.stats_counters();
    // Instance counters come from the view (consistent as of its epoch);
    // queue depth, connection and request counters are live.
    let view = shared.snapshot_view();
    let peers = view.peer_ids();
    let relations: usize = peers
        .iter()
        .map(|p| view.peer(p).map(|peer| peer.relations.len()).unwrap_or(0))
        .sum();
    let stats = ServerStats {
        peers: peers.len() as u64,
        relations: relations as u64,
        total_tuples: view.total_tuples() as u64,
        output_tuples: view.total_output_tuples() as u64,
        pending_batches: shared.lock_ingest("stats").batches.len() as u64,
        epoch: view.durable_epoch(),
        connections,
        intern_hits: view.intern_stats().hits,
        intern_misses: view.intern_stats().misses,
        plan_cache_hits: view.plan_cache_hits(),
        pool_values: view.intern_stats().distinct,
        pool_live_values: view.pool_live_values() as u64,
        pool_compactions: view.compactions_run(),
        snapshot_epoch: view.epoch(),
        snapshots_published: view.snapshots_published(),
        snapshot_reads,
        requests,
    };
    Response::Stats(stats).to_bytes_versioned(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_agree_with_the_registry_exposition() {
        let obs = ServerObs::new();
        obs.record(RequestKind::Stats, Duration::from_micros(120));
        obs.record(RequestKind::Stats, Duration::from_micros(80));
        obs.record(RequestKind::PublishEdits, Duration::from_micros(50));
        obs.connections.inc();
        obs.snapshot_reads.inc();
        obs.snapshot_reads.inc();

        // The Stats payload fields are read back from the registry…
        let (requests, connections, snapshot_reads) = obs.stats_counters();
        assert_eq!(
            requests,
            vec![("publish-edits".to_string(), 1), ("stats".to_string(), 2)]
        );
        assert_eq!((connections, snapshot_reads), (1, 2));

        // …and the text exposition reports the very same numbers, so the
        // wire Stats frame and a Metrics scrape can never disagree.
        let text = obs.registry.render();
        assert!(text.contains("requests_total{request=\"stats\"} 2"));
        assert!(text.contains("requests_total{request=\"publish-edits\"} 1"));
        assert!(text.contains("requests_total{request=\"compact\"} 0"));
        assert!(text.contains("connections_total 1"));
        assert!(text.contains("snapshot_reads_total 2"));
        assert!(text.contains("request_latency_seconds{request=\"stats\",quantile=\"0.99\"}"));
        assert!(text.contains("request_latency_seconds_count{request=\"stats\"} 2"));
    }
}
