//! Hermetic observability for the ORCHESTRA stack.
//!
//! Like the `vendor/` stand-ins, this crate has **no external
//! dependencies** — it gives the workspace three small, composable
//! facilities without pulling in a metrics or tracing ecosystem:
//!
//! * [`metrics`] — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   HDR-style log-bucketed latency [`Histogram`]s (p50/p95/p99/max with
//!   no stored samples, wait-free recording), rendering to a
//!   Prometheus-style text exposition. The [`global`] registry carries
//!   process-wide engine series (`exchange_phase_seconds`,
//!   `wal_fsync_seconds`, `snapshot_publishes_total`, ...); components
//!   that need isolation own their own registry (each `orchestrad`
//!   server instance does).
//! * [`trace`] — span/event recording into a fixed-size lock-free ring,
//!   exported as Chrome trace-event JSON (`chrome://tracing`). Disabled
//!   by default; when off, a span costs an atomic load and a branch.
//! * [`log`] — structured logfmt events to stderr (replacing ad-hoc
//!   `eprintln!`s), counted in the global registry and mirrored onto the
//!   trace timeline.
//!
//! The paper's experiments reason about update-exchange cost phase by
//! phase; this crate is how the running system exposes those phases —
//! per-request latency histograms over the wire (`Metrics` frame, v5),
//! and exchange → fixpoint → snapshot-publish → WAL-fsync cascades on
//! one trace timeline.

#![warn(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod hist;
pub mod log;
pub mod metrics;
pub mod trace;

pub use hist::HistogramCore;
pub use metrics::{Counter, Gauge, Histogram, Registry};

use std::sync::OnceLock;

/// The process-global metrics registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Global-registry counter, registered on first use.
pub fn counter(name: &'static str) -> Counter {
    global().counter(name)
}

/// Global-registry counter with labels.
pub fn counter_with(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    global().counter_with(name, labels)
}

/// Global-registry gauge.
pub fn gauge(name: &'static str) -> Gauge {
    global().gauge(name)
}

/// Global-registry histogram.
pub fn histogram(name: &'static str) -> Histogram {
    global().histogram(name)
}

/// Global-registry histogram with labels.
pub fn histogram_with(name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
    global().histogram_with(name, labels)
}

/// Open a span on the global trace recorder (see [`trace::span`]).
#[must_use = "a span measures until it is dropped"]
pub fn span(name: &'static str, cat: &'static str) -> trace::Span {
    trace::span(name, cat)
}
