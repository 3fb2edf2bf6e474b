//! Structured tracing: spans and instant events recorded into a
//! fixed-size lock-free ring buffer, exported as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or `ui.perfetto.dev`).
//!
//! The global API is gated on one atomic flag: when tracing is disabled
//! (the default), [`span`] costs a relaxed atomic load and a branch — no
//! clock read, no allocation. When enabled, dropping a span guard records
//! one event: a `fetch_add` to claim a slot plus a handful of atomic
//! stores. Writers never lock and never wait; the ring overwrites the
//! oldest events on wrap. Span *names* are interned into a small global
//! table (one read-locked map probe per recorded event) so slots stay
//! plain integers.
//!
//! Nesting needs no explicit parent tracking: events carry thread ids and
//! microsecond timestamps, and the Chrome trace viewer nests complete
//! (`"ph":"X"`) events on the same thread by time containment — an
//! exchange span encloses its phase spans on the timeline exactly as it
//! does in the code.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Capacity of the process-global event ring.
pub const GLOBAL_RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn global_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(GLOBAL_RING_CAPACITY))
}

/// Turn the global trace recorder on. Pins the time epoch on first call.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turn the global trace recorder off; already-recorded events remain.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span; the guard records one complete event when dropped.
/// Near-free when tracing is disabled.
#[must_use = "a span measures until it is dropped"]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !is_enabled() {
        return Span { armed: None };
    }
    Span {
        armed: Some(SpanData {
            name,
            cat,
            start_us: now_us(),
        }),
    }
}

/// Record an instant event (zero duration) at the current time.
pub fn event(name: &'static str, cat: &'static str) {
    if !is_enabled() {
        return;
    }
    let ts = now_us();
    global_ring().record(RawEvent {
        name_id: intern(name),
        cat_id: intern(cat),
        ts_us: ts,
        dur_us: INSTANT_MARK,
        tid: thread_tag(),
    });
}

struct SpanData {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
}

/// RAII guard for one traced region.
pub struct Span {
    armed: Option<SpanData>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(data) = self.armed.take() {
            let end = now_us();
            global_ring().record(RawEvent {
                name_id: intern(data.name),
                cat_id: intern(data.cat),
                ts_us: data.start_us,
                dur_us: end.saturating_sub(data.start_us),
                tid: thread_tag(),
            });
        }
    }
}

/// Total events recorded into the global ring so far (monotonic; exceeds
/// [`GLOBAL_RING_CAPACITY`] once the ring has wrapped).
pub fn recorded() -> u64 {
    global_ring().recorded()
}

/// Snapshot the global ring's current contents, oldest first.
pub fn drain() -> Vec<TraceEvent> {
    global_ring().snapshot()
}

/// Write the global ring's contents as Chrome trace-event JSON. Returns
/// the number of events written.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<usize> {
    let events = drain();
    let json = chrome_trace_json(&events);
    let mut f = File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.flush()?;
    Ok(events.len())
}

/// `dur_us` marker distinguishing instant events from spans in a slot.
const INSTANT_MARK: u64 = u64::MAX;

// ── name interning ──────────────────────────────────────────────────────
// Slots hold integers only; names are `&'static str` interned once by
// pointer identity. Duplicated literals across crates get distinct ids
// with identical text, which is harmless.

/// Pointer-keyed id map plus the id-indexed name list.
type InternTable = (HashMap<usize, u32>, Vec<&'static str>);

fn intern_table() -> &'static RwLock<InternTable> {
    static TABLE: OnceLock<RwLock<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new((HashMap::new(), Vec::new())))
}

fn intern(name: &'static str) -> u32 {
    let key = name.as_ptr() as usize;
    {
        let table = intern_table().read().expect("trace intern lock");
        if let Some(&id) = table.0.get(&key) {
            return id;
        }
    }
    let mut table = intern_table().write().expect("trace intern lock");
    if let Some(&id) = table.0.get(&key) {
        return id;
    }
    let id = table.1.len() as u32;
    table.1.push(name);
    table.0.insert(key, id);
    id
}

fn resolve(id: u32) -> &'static str {
    let table = intern_table().read().expect("trace intern lock");
    table.1.get(id as usize).copied().unwrap_or("?")
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

// ── the ring ────────────────────────────────────────────────────────────

struct RawEvent {
    name_id: u32,
    cat_id: u32,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or event name.
    pub name: &'static str,
    /// Category (by convention, the crate that recorded it).
    pub cat: &'static str,
    /// Start time, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Recording thread's small integer tag.
    pub tid: u64,
}

/// A slot is a handful of atomics guarded by a sequence word: writers
/// zero the sequence, store the fields, then publish the claim index + 1.
/// A reader accepts a slot only if the sequence reads the same non-zero
/// value before and after the field loads, so a torn slot (a writer
/// racing the snapshot) is skipped, never misread.
struct Slot {
    seq: AtomicU64,
    ids: AtomicU64, // name_id << 32 | cat_id
    ts_us: AtomicU64,
    dur_us: AtomicU64,
    tid: AtomicU64,
}

/// Fixed-capacity lock-free trace event ring; wraps by overwriting the
/// oldest events.
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding up to `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity > 0, "trace ring capacity must be positive");
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ids: AtomicU64::new(0),
                ts_us: AtomicU64::new(0),
                dur_us: AtomicU64::new(0),
                tid: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TraceRing {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded (monotonic, not capped at capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn record(&self, e: RawEvent) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.ids.store(
            (u64::from(e.name_id) << 32) | u64::from(e.cat_id),
            Ordering::Release,
        );
        slot.ts_us.store(e.ts_us, Ordering::Release);
        slot.dur_us.store(e.dur_us, Ordering::Release);
        slot.tid.store(e.tid, Ordering::Release);
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Record a complete span into this ring (instance-level API; the
    /// global [`span`] guard records into the global ring).
    pub fn record_span(&self, name: &'static str, cat: &'static str, ts_us: u64, dur_us: u64) {
        self.record(RawEvent {
            name_id: intern(name),
            cat_id: intern(cat),
            ts_us,
            dur_us: dur_us.min(INSTANT_MARK - 1),
            tid: thread_tag(),
        });
    }

    /// Consistent snapshot of the ring's current events, sorted by start
    /// time. Slots mid-write during the snapshot are skipped.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let ids = slot.ids.load(Ordering::Acquire);
            let ts_us = slot.ts_us.load(Ordering::Acquire);
            let dur_us = slot.dur_us.load(Ordering::Acquire);
            let tid = slot.tid.load(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Acquire);
            if before != after {
                continue;
            }
            out.push(TraceEvent {
                name: resolve((ids >> 32) as u32),
                cat: resolve((ids & 0xFFFF_FFFF) as u32),
                ts_us,
                dur_us: if dur_us == INSTANT_MARK {
                    None
                } else {
                    Some(dur_us)
                },
                tid,
            });
        }
        out.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        out
    }
}

// ── Chrome trace-event export ───────────────────────────────────────────

/// Render events as a Chrome trace-event JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match e.dur_us {
            Some(dur) => out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                json_string(e.name),
                json_string(e.cat),
                e.ts_us,
                dur,
                e.tid
            )),
            None => out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                json_string(e.name),
                json_string(e.cat),
                e.ts_us,
                e.tid
            )),
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_keeps_the_newest_events() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.record(RawEvent {
                name_id: intern("w"),
                cat_id: intern("test"),
                ts_us: i,
                dur_us: 1,
                tid: 1,
            });
        }
        assert_eq!(ring.recorded(), 20);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        // The oldest 12 were overwritten; timestamps 12..20 survive.
        let ts: Vec<u64> = events.iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, (12..20).collect::<Vec<_>>());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "1600 ring writes across 8 threads are slow under the interpreter"
    )]
    fn concurrent_writers_lose_nothing_below_capacity() {
        let ring = std::sync::Arc::new(TraceRing::new(4096));
        let threads = 8;
        let per_thread = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        ring.record_span("concurrent", "test", (t * per_thread + i) as u64, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), threads * per_thread);
        assert!(events.iter().all(|e| e.name == "concurrent"));
        // Every claimed timestamp appears exactly once.
        let mut ts: Vec<u64> = events.iter().map(|e| e.ts_us).collect();
        ts.sort_unstable();
        assert_eq!(ts, (0..(threads * per_thread) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn chrome_json_is_valid_and_nests_by_containment() {
        let events = vec![
            TraceEvent {
                name: "exchange",
                cat: "core",
                ts_us: 100,
                dur_us: Some(500),
                tid: 1,
            },
            TraceEvent {
                name: "deletion-round",
                cat: "core",
                ts_us: 120,
                dur_us: Some(100),
                tid: 1,
            },
            TraceEvent {
                name: "poison \"quote\"\n",
                cat: "net",
                ts_us: 130,
                dur_us: None,
                tid: 2,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\\\"quote\\\"\\n"));
        // Minimal structural validation: balanced braces/brackets outside
        // strings, and the phase events carry ts+dur for containment.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in json.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
                // A backslash that was itself escaped does not escape the
                // next character.
                prev = if prev == '\\' && c == '\\' { ' ' } else { c };
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            prev = c;
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
        assert!(json.contains("\"ts\":120,\"dur\":100"));
    }

    #[test]
    fn global_api_records_only_when_enabled() {
        // One test owns the global toggle to avoid cross-test interference.
        disable();
        let before = recorded();
        {
            let _s = span("idle", "test");
        }
        event("idle-event", "test");
        assert_eq!(recorded(), before);

        enable();
        {
            let _s = span("active", "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        event("active-event", "test");
        disable();
        assert_eq!(recorded(), before + 2);
        let events = drain();
        assert!(events
            .iter()
            .any(|e| e.name == "active" && e.dur_us.unwrap_or(0) >= 1000));
        assert!(events
            .iter()
            .any(|e| e.name == "active-event" && e.dur_us.is_none()));
    }
}
