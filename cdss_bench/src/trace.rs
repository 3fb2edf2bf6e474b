//! The traced run: benchmark-side spans around each public call, the
//! program's own `orchestra_obs` ring events attached beneath them by time
//! containment, self time, a Chrome trace file, and read-only scrapes of
//! the series the program already exports.
//!
//! Spans live in a `Vec` and are written out only when the run ends.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use orchestra_obs::trace::{self as obs_trace, TraceEvent};

/// One finished benchmark-side span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `layer.what`; the prefix is the crate the call goes into.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span of the same thread.
    pub parent: Option<usize>,
    /// The step that caused it: spans of one step share the identifier.
    pub step: u32,
    pub tid: u32,
    /// Was the program recording its own spans meanwhile? Only then can
    /// the span have children from the `obs` ring.
    pub obs_on: bool,
}

/// Token of a span opened with [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan(Option<usize>);

/// Span recorder of one thread. Disabled, it still times (`timed` returns
/// the duration) but stores nothing, so both runs execute the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    step: u32,
    obs_on: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, tid: u32) -> Self {
        Tracer {
            epoch,
            enabled,
            tid,
            step: 0,
            obs_on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Later spans belong to this step, during which the program's own
    /// span recording is on or off.
    pub fn set_step(&mut self, step: u32, obs_on: bool) {
        self.step = step;
        self.obs_on = obs_on;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that encloses later `timed` calls until it is closed.
    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        let start_ns = self.since_epoch(Instant::now());
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            tid: self.tid,
            obs_on: self.obs_on,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        OpenSpan(Some(index))
    }

    pub fn close(&mut self, span: OpenSpan) {
        if let Some(index) = span.0 {
            self.spans[index].end_ns = self.since_epoch(Instant::now());
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }

    /// Run `f` under a span and return its result with its wall time in
    /// nanoseconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        if self.enabled {
            let start_ns = self.since_epoch(start);
            self.spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.open.last().copied(),
                step: self.step,
                tid: self.tid,
                obs_on: self.obs_on,
            });
        }
        (result, ns)
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Take over another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Total seconds and count of the spans with this name.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut count = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            count += 1;
        }
        (ns as f64 / 1e9, count)
    }
}

/// Parent of every interval by containment: the innermost other interval
/// that covers it. Ties (equal intervals) nest in input order.
pub fn nest(intervals: &[(u64, u64)]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].0, std::cmp::Reverse(intervals[i].1), i));
    let mut parents = vec![None; intervals.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if intervals[top].1 >= intervals[i].1 {
                break;
            }
            stack.pop();
        }
        parents[i] = stack.last().copied();
        stack.push(i);
    }
    parents
}

/// Self time of every interval: its length minus the part its children
/// cover. Children may overlap one another (spans of worker threads under
/// one fixpoint round); covered time is the length of their union.
pub fn self_times(intervals: &[(u64, u64)], parents: &[Option<usize>]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); intervals.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            children[*p].push(i);
        }
    }
    intervals
        .iter()
        .enumerate()
        .map(|(i, &(start, end))| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (intervals[c].0.max(start), intervals[c].1.min(end)))
                .filter(|(s, e)| e > s)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for (s, e) in kids {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            (end - start) - covered
        })
        .collect()
}

/// Collects the program's own trace events from the global `obs` ring and
/// maps them onto the benchmark's clock.
#[derive(Debug)]
pub struct ObsEvents {
    /// `obs` microseconds minus benchmark microseconds.
    offset_us: i64,
    drained_at: u64,
    seen: HashSet<(u64, u64, u64, usize)>,
    events: Vec<TraceEvent>,
}

const SYNC_EVENT: &str = "cdss-bench-sync";

impl ObsEvents {
    /// Pin the ring's clock against `epoch`. Leaves recording off.
    pub fn start(epoch: Instant) -> Self {
        obs_trace::enable();
        // The first event allocates the ring; that must not sit between
        // the two clock readings around the second.
        obs_trace::event(SYNC_EVENT, "bench");
        let before = epoch.elapsed();
        obs_trace::event(SYNC_EVENT, "bench");
        let after = epoch.elapsed();
        obs_trace::disable();
        let sync = obs_trace::drain()
            .into_iter()
            .rfind(|e| e.name == SYNC_EVENT)
            .expect("the sync events were just recorded");
        let mid_us = (before + after).as_micros() as i64 / 2;
        ObsEvents {
            offset_us: sync.ts_us as i64 - mid_us,
            drained_at: obs_trace::recorded(),
            seen: HashSet::new(),
            events: Vec::new(),
        }
    }

    /// Copy new events out of the ring. The ring keeps no cursor, so an
    /// event is new when no identical one was copied before.
    pub fn drain(&mut self) {
        self.drained_at = obs_trace::recorded();
        for e in obs_trace::drain() {
            if e.name == SYNC_EVENT {
                continue;
            }
            let key = (
                e.ts_us,
                e.dur_us.unwrap_or(u64::MAX),
                e.tid,
                e.name.as_ptr() as usize,
            );
            if self.seen.insert(key) {
                self.events.push(e);
            }
        }
    }

    /// Drain once the ring is half full of unread events, so none is
    /// overwritten before it is read.
    pub fn drain_if_due(&mut self) {
        let unread = obs_trace::recorded() - self.drained_at;
        if unread > (obs_trace::GLOBAL_RING_CAPACITY / 2) as u64 {
            self.drain();
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events as `(name, category, start_ns, end_ns, tid)` on the
    /// benchmark's clock; instant events have no extent.
    ///
    /// The ring's clock ticks in microseconds and the two clocks are pinned
    /// to about one more, so an event can stick out of the benchmark span
    /// that caused it by a tick or two. Such an overhang is cut back to the
    /// span, or containment would not see the event as the span's child.
    fn on_bench_clock(&self, tracer: &Tracer) -> Vec<(&'static str, &'static str, u64, u64, u64)> {
        const SLACK_NS: u64 = 3_000;
        let mut spans: Vec<(u64, u64)> = tracer
            .spans()
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        spans.sort_unstable();
        self.events
            .iter()
            .map(|e| {
                let start_us = (e.ts_us as i64 - self.offset_us).max(0) as u64;
                let (mut start, mut end) =
                    (start_us * 1000, (start_us + e.dur_us.unwrap_or(0)) * 1000);
                let mid = start + (end - start) / 2;
                // The innermost benchmark span around the event's middle;
                // spans of one thread nest at most a few deep.
                let upto = spans.partition_point(|s| s.0 <= mid);
                let around = spans[upto.saturating_sub(4)..upto]
                    .iter()
                    .filter(|s| s.1 >= mid)
                    .min_by_key(|s| s.1 - s.0);
                if let Some(&(span_start, span_end)) = around {
                    if start < span_start && span_start - start <= SLACK_NS {
                        start = span_start;
                    }
                    if end > span_end && end - span_end <= SLACK_NS {
                        end = span_end;
                    }
                }
                (e.name, e.cat, start, end.max(start), e.tid)
            })
            .collect()
    }
}

/// Self time per span name over benchmark spans and the program's events
/// beneath them, largest first: `(name, self seconds, count)`. Only spans
/// of steps that had the program's recording on take part: the others
/// have no children to subtract.
pub fn self_time_table(tracer: &Tracer, obs: &ObsEvents) -> Vec<(String, f64, usize)> {
    let mut names: Vec<String> = Vec::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    for s in tracer.spans().iter().filter(|s| s.obs_on) {
        names.push(s.name.to_string());
        intervals.push((s.start_ns, s.end_ns));
    }
    for (name, cat, start, end, _) in obs.on_bench_clock(tracer) {
        names.push(format!("{cat}:{name}"));
        intervals.push((start, end));
    }
    let own = self_times(&intervals, &nest(&intervals));
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (name, ns) in names.iter().zip(own) {
        let slot = by_name.entry(name).or_default();
        slot.0 += ns;
        slot.1 += 1;
    }
    let mut table: Vec<(String, f64, usize)> = by_name
        .into_iter()
        .map(|(name, (ns, count))| (name.to_string(), ns as f64 / 1e9, count))
        .collect();
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): benchmark spans
/// as process 1 with their step in `args`, the program's events as
/// process 2.
pub fn chrome_trace_json(tracer: &Tracer, obs: &ObsEvents) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };
    for s in tracer.spans() {
        push(format!(
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"step\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.step
        ));
    }
    for (name, cat, start, end, tid) in obs.on_bench_clock(tracer) {
        push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":2,\"tid\":{tid}}}",
            start as f64 / 1e3,
            (end - start) as f64 / 1e3,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The value of one series in a Prometheus-style exposition, e.g.
/// `wal_fsync_seconds_sum` or
/// `exchange_phase_seconds_sum{phase="snapshot-publish"}`.
pub fn scrape(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        line.strip_prefix(series)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|value| value.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // 0: root 0..100; 1: child 10..40; 2: child 30..60 (overlaps 1);
        // 3: grandchild 12..20 under 1; 4: sibling root 200..250.
        let intervals = [(0, 100), (10, 40), (30, 60), (12, 20), (200, 250)];
        let parents = nest(&intervals);
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(1), None]);
        let own = self_times(&intervals, &parents);
        assert_eq!(own[0], 100 - 50, "children cover 10..60 once");
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 8);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let intervals = [(0, 100), (90, 130)];
        // Not contained, so not a child by containment; hand it the link
        // a thread's own stack would give and check the clipping.
        let own = self_times(&intervals, &[None, Some(0)]);
        assert_eq!(own[0], 90);
        assert_eq!(nest(&intervals), vec![None, None]);
    }

    #[test]
    fn timed_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(Instant::now(), true, 1);
        t.set_step(7, true);
        let step = t.open("bench.step");
        let (v, ns) = t.timed("core.exchange", || 42);
        t.close(step);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].step, 7);
        assert_eq!(spans[1].end_ns - spans[1].start_ns, ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(Instant::now(), false, 1);
        let step = off.open("bench.step");
        off.timed("core.exchange", || ());
        off.close(step);
        assert!(off.spans().is_empty(), "a disabled tracer stores nothing");
    }

    #[test]
    fn scrape_reads_plain_and_labelled_series() {
        let text = "# TYPE wal_fsync_seconds histogram\n\
wal_fsync_seconds{quantile=\"0.5\"} 0.000100000\n\
wal_fsync_seconds_sum 0.250000000\n\
wal_fsync_seconds_count 12\n\
exchange_phase_seconds_sum{phase=\"snapshot-publish\"} 1.500000000\n\
eval_pool_steals_total 3\n";
        assert_eq!(scrape(text, "wal_fsync_seconds_sum"), Some(0.25));
        assert_eq!(scrape(text, "wal_fsync_seconds_count"), Some(12.0));
        assert_eq!(
            scrape(
                text,
                "exchange_phase_seconds_sum{phase=\"snapshot-publish\"}"
            ),
            Some(1.5)
        );
        assert_eq!(scrape(text, "eval_pool_steals_total"), Some(3.0));
        assert_eq!(scrape(text, "wal_append_seconds_sum"), None);
    }
}
