//! The blocking client library: [`NetClient`].
//!
//! One client owns one TCP connection and issues request/response pairs
//! synchronously. Clients are cheap: a benchmark opens one per concurrent
//! role (`cdss_bench`'s `served_mixed` runs a writer and a reader side by
//! side).

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use orchestra_core::{PageDirection, ProvenanceNeighbor, TrustPolicy};
use orchestra_persist::codec::{Decode, Encode};
use orchestra_storage::{Tuple, Value};

use crate::error::NetError;
use crate::frame::{read_frame_expecting, write_frame, FrameKind};
use crate::proto::{EditBatch, ExchangeSummary, Request, Response, ServerStats};
use crate::Result;

/// A blocking connection to an `orchestrad` server.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

/// One page of a tuple's provenance neighbors, returned by
/// [`NetClient::provenance_page`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenancePage {
    /// Total neighbors on this side of the tuple (across all pages).
    pub total: u64,
    /// This page's neighbors, in cursor order.
    pub items: Vec<ProvenanceNeighbor>,
    /// Resume token for the next page; `None` when this page is the last.
    pub next: Option<String>,
}

/// Provenance answer returned by [`NetClient::provenance_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteProvenance {
    /// The provenance expression, rendered in the paper's notation.
    pub expression: String,
    /// Number of alternative derivations.
    pub derivations: u64,
    /// Is the tuple currently derivable from base data?
    pub derivable: bool,
}

impl NetClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|e| NetError::io("connecting to server", &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("configuring socket", &e))?;
        Ok(NetClient { stream })
    }

    /// Connect, retrying `attempts` times with `delay` between attempts —
    /// for clients racing a server that is still binding its listener.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: usize,
        delay: Duration,
    ) -> Result<Self> {
        let mut last = NetError::protocol("connect_with_retry called with zero attempts");
        for attempt in 0..attempts.max(1) {
            match NetClient::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            if attempt + 1 < attempts.max(1) {
                std::thread::sleep(delay);
            }
        }
        Err(last)
    }

    /// Issue one raw request and decode the response frame.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        write_frame(&mut self.stream, FrameKind::Request, &request.to_bytes())?;
        let payload = read_frame_expecting(&mut self.stream, FrameKind::Response)?;
        Ok(Response::from_bytes(&payload)?)
    }

    fn expect_error(response: Response) -> NetError {
        match response {
            Response::Error { code, message } => NetError::Remote { code, message },
            other => NetError::protocol(format!("unexpected response variant: {other:?}")),
        }
    }

    /// Queue a batch of edits on the server. Returns the admission
    /// sequence number (the server's total order over concurrent
    /// publishes) and the number of admitted operations.
    pub fn publish_edits(&mut self, batch: EditBatch) -> Result<(u64, u64)> {
        match self.call(&Request::PublishEdits(batch))? {
            Response::EditsQueued { seq, ops } => Ok((seq, ops)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Drain the server's ingestion queue and run an update exchange for
    /// one peer (`Some`) or every peer (`None`).
    pub fn update_exchange(&mut self, peer: Option<&str>) -> Result<ExchangeSummary> {
        let request = Request::UpdateExchange {
            peer: peer.map(str::to_string),
        };
        match self.call(&request)? {
            Response::ExchangeDone(summary) => Ok(summary),
            other => Err(Self::expect_error(other)),
        }
    }

    /// The full local instance of a peer's relation, sorted.
    pub fn query_local(&mut self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        let request = Request::QueryLocal {
            peer: peer.to_string(),
            relation: relation.to_string(),
        };
        match self.call(&request)? {
            Response::Tuples(tuples) => Ok(tuples),
            other => Err(Self::expect_error(other)),
        }
    }

    /// The certain answers of a peer's relation, sorted.
    pub fn query_certain(&mut self, peer: &str, relation: &str) -> Result<Vec<Tuple>> {
        let request = Request::QueryCertain {
            peer: peer.to_string(),
            relation: relation.to_string(),
        };
        match self.call(&request)? {
            Response::Tuples(tuples) => Ok(tuples),
            other => Err(Self::expect_error(other)),
        }
    }

    /// The provenance of a tuple of a logical relation.
    pub fn provenance_of(&mut self, relation: &str, tuple: Tuple) -> Result<RemoteProvenance> {
        let request = Request::ProvenanceOf {
            relation: relation.to_string(),
            tuple,
        };
        match self.call(&request)? {
            Response::Provenance {
                expression,
                derivations,
                derivable,
            } => Ok(RemoteProvenance {
                expression,
                derivations,
                derivable,
            }),
            other => Err(Self::expect_error(other)),
        }
    }

    /// A peer's current trust policy.
    pub fn trust_policy(&mut self, peer: &str) -> Result<TrustPolicy> {
        let request = Request::GetTrustPolicy {
            peer: peer.to_string(),
        };
        match self.call(&request)? {
            Response::Policy(policy) => Ok(policy),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Replace a peer's trust policy.
    pub fn set_trust_policy(&mut self, peer: &str, policy: TrustPolicy) -> Result<()> {
        let request = Request::SetTrustPolicy {
            peer: peer.to_string(),
            policy,
        };
        match self.call(&request)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Server and instance statistics.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fold the server's WAL into a durable snapshot.
    pub fn checkpoint(&mut self) -> Result<()> {
        match self.call(&Request::Checkpoint)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Compact the server's value pool now, unconditionally. Returns the
    /// distinct pool sizes `(before, after)` of the pass.
    pub fn compact(&mut self) -> Result<(u64, u64)> {
        match self.call(&Request::Compact)? {
            Response::Compacted { before, after } => Ok((before, after)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// The server's metrics registry in Prometheus-style text exposition:
    /// per-request counters and latency histograms, plus the engine-level
    /// series (exchange phases, WAL timings, eval counters).
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Point query over the local instance of a peer's relation: tuples
    /// whose columns equal the `Some` entries of `binding`, sorted. Only
    /// matching tuples cross the wire.
    pub fn query_local_where(
        &mut self,
        peer: &str,
        relation: &str,
        binding: Vec<Option<Value>>,
    ) -> Result<Vec<Tuple>> {
        let request = Request::QueryLocalWhere {
            peer: peer.to_string(),
            relation: relation.to_string(),
            binding,
        };
        match self.call(&request)? {
            Response::Tuples(tuples) => Ok(tuples),
            other => Err(Self::expect_error(other)),
        }
    }

    /// [`NetClient::query_local_where`] restricted to certain answers
    /// (tuples with labeled nulls dropped).
    pub fn query_certain_where(
        &mut self,
        peer: &str,
        relation: &str,
        binding: Vec<Option<Value>>,
    ) -> Result<Vec<Tuple>> {
        let request = Request::QueryCertainWhere {
            peer: peer.to_string(),
            relation: relation.to_string(),
            binding,
        };
        match self.call(&request)? {
            Response::Tuples(tuples) => Ok(tuples),
            other => Err(Self::expect_error(other)),
        }
    }

    /// One page of a tuple's one-hop provenance neighbors. Pass `None` as
    /// `token` to open the cursor, then the previous page's `next` to
    /// resume; a token outliving the snapshot epoch it was issued at is
    /// refused by the server (`BadRequest`) and pagination must restart.
    pub fn provenance_page(
        &mut self,
        relation: &str,
        tuple: Tuple,
        direction: PageDirection,
        token: Option<String>,
        limit: u32,
    ) -> Result<ProvenancePage> {
        let request = Request::ProvenancePage {
            relation: relation.to_string(),
            tuple,
            direction,
            token,
            limit,
        };
        match self.call(&request)? {
            Response::ProvenancePageResult { total, items, next } => {
                Ok(ProvenancePage { total, items, next })
            }
            other => Err(Self::expect_error(other)),
        }
    }

    /// Install a new schema mapping on the running server, e.g.
    /// `client.add_mapping("m2", "B(i, n) -> U(n)")`. The server re-runs
    /// its static analyzer over the extended mapping set first; a rejected
    /// program surfaces as a `BadRequest` error whose message carries the
    /// rendered diagnostics (`error[E001]: …`), and the server keeps its
    /// previous mappings.
    pub fn add_mapping(&mut self, name: &str, text: &str) -> Result<()> {
        let request = Request::AddMapping {
            name: name.to_string(),
            text: text.to_string(),
        };
        match self.call(&request)? {
            Response::Ok => Ok(()),
            other => Err(Self::expect_error(other)),
        }
    }
}
