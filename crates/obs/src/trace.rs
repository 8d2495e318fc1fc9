//! Lightweight structured tracing: spans, events and pluggable
//! subscribers.
//!
//! A **span** is a named region of work with monotonic start/duration
//! timing, a per-process unique id and a parent (tracked through a
//! thread-local stack, so nesting works across call layers without
//! threading a context argument through the pipeline). An **event** is
//! a point-in-time observation with an optional numeric value,
//! attributed to the current span.
//!
//! The hot-path contract mirrors the metrics registry: when tracing is
//! disabled (the default), [`span`] and [`event`] cost one relaxed
//! atomic load and a branch — no clock read, no thread-local access,
//! no allocation. Enabling tracing means installing a [`Subscriber`]:
//!
//! * [`NullSubscriber`] — receives and drops everything; used by the
//!   overhead-guard tests to price the record-building machinery alone;
//! * [`RingRecorder`] — keeps the last N records in memory, for tests
//!   and post-mortem digging;
//! * [`JsonlSubscriber`] — writes each record as one JSON line to a
//!   file or stderr; what `STS_TRACE` installs (see
//!   [`crate::init_from_env`]).
//!
//! Span records are delivered on **close** (so the duration is known),
//! from the closing thread; subscribers must be `Send + Sync` and do
//! their own locking. Record delivery order is completion order per
//! thread, interleaved arbitrarily across threads — consumers sort by
//! `start_ns` when they need timeline order.

use crate::json::write_json_str;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A closed span, as delivered to a [`Subscriber`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (1-based; ids are never reused).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Static span name (e.g. `"job.run"`).
    pub name: &'static str,
    /// Small per-process thread id (not the OS tid) — stable within a
    /// run, suitable for grouping records by worker.
    pub thread: u64,
    /// Start time, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A point-in-time event, as delivered to a [`Subscriber`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Static event name (e.g. `"job.tile.spilled"`).
    pub name: &'static str,
    /// Id of the span the event occurred in, or 0 outside any span.
    pub span: u64,
    /// Small per-process thread id (see [`SpanRecord::thread`]).
    pub thread: u64,
    /// Event time, nanoseconds since the process's trace epoch.
    pub t_ns: u64,
    /// The event's numeric payload (count, size, seconds — the name
    /// defines the unit).
    pub value: f64,
}

/// Receives closed spans and events. Implementations are responsible
/// for their own synchronization; delivery happens on the recording
/// thread.
pub trait Subscriber: Send + Sync {
    /// A span closed.
    fn on_span(&self, span: &SpanRecord);
    /// An event fired.
    fn on_event(&self, event: &EventRecord);
}

/// Fast-path switch: `true` iff a subscriber is installed.
static TRACE_ON: AtomicBool = AtomicBool::new(false);
/// The installed subscriber (locked only when tracing is enabled).
static SUBSCRIBER: Mutex<Option<Arc<dyn Subscriber>>> = Mutex::new(None);
/// Span id allocator (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Thread id allocator for [`thread_id`].
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Is a subscriber installed?
#[inline]
pub fn tracing_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Installs `sub` as the process-wide subscriber and enables tracing.
/// Returns the previously installed subscriber, if any.
pub fn set_subscriber(sub: Arc<dyn Subscriber>) -> Option<Arc<dyn Subscriber>> {
    let prev = SUBSCRIBER.lock().unwrap().replace(sub);
    TRACE_ON.store(true, Ordering::Relaxed);
    prev
}

/// Removes the subscriber and disables tracing. Returns the subscriber
/// that was installed, if any.
pub fn clear_subscriber() -> Option<Arc<dyn Subscriber>> {
    TRACE_ON.store(false, Ordering::Relaxed);
    SUBSCRIBER.lock().unwrap().take()
}

/// The current subscriber handle (None when tracing is disabled).
fn subscriber() -> Option<Arc<dyn Subscriber>> {
    SUBSCRIBER.lock().unwrap().clone()
}

/// Nanoseconds since the process's trace epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// This thread's small per-process id (1-based, assigned on first use).
pub fn thread_id() -> u64 {
    thread_local! {
        static ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// An open span; closing (dropping) it delivers a [`SpanRecord`] to the
/// subscriber. Created by [`span`]. Inert — a zero-cost token — when
/// tracing was disabled at creation time.
#[must_use = "a span measures the scope it is bound to; dropping it immediately closes it"]
pub struct Span {
    /// `None` when tracing was off at creation (the inert form).
    armed: Option<ArmedSpan>,
}

struct ArmedSpan {
    id: u64,
    parent: u64,
    /// What this thread's span stack held before us — restored on drop.
    /// Differs from `parent` only for cross-thread spans.
    prev: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
}

/// Opens a span named `name`. When tracing is disabled this is one
/// relaxed load and returns an inert guard; when enabled it reads the
/// clock, allocates an id and pushes itself on the thread's span stack.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_impl(name, None)
}

/// Opens a span with an explicit `parent` id instead of this thread's
/// innermost open span. The span stack is thread-local, so work handed
/// to another thread (a pool worker, a watcher) starts a fresh root
/// there; passing the dealing span's [`Span::id`] stitches the pieces
/// back into one tree. Parent 0 (an inert span's id) means "root", so
/// forwarding an id is always safe whether or not tracing was on when
/// it was taken.
#[inline]
pub fn span_with_parent(name: &'static str, parent: u64) -> Span {
    span_impl(name, Some(parent))
}

#[inline]
fn span_impl(name: &'static str, explicit_parent: Option<u64>) -> Span {
    if !tracing_enabled() {
        return Span { armed: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT_SPAN.with(|c| c.replace(id));
    Span {
        armed: Some(ArmedSpan {
            id,
            parent: explicit_parent.unwrap_or(prev),
            prev,
            name,
            start: Instant::now(),
            start_ns: now_ns(),
        }),
    }
}

impl Span {
    /// The span's id (0 for an inert span) — what [`EventRecord::span`]
    /// refers to.
    pub fn id(&self) -> u64 {
        self.armed.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        CURRENT_SPAN.with(|c| c.set(armed.prev));
        let record = SpanRecord {
            id: armed.id,
            parent: armed.parent,
            name: armed.name,
            thread: thread_id(),
            start_ns: armed.start_ns,
            dur_ns: u64::try_from(armed.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        if let Some(sub) = subscriber() {
            sub.on_span(&record);
        }
    }
}

/// Fires an event named `name` with numeric payload `value`, attributed
/// to the innermost open span on this thread. One relaxed load when
/// tracing is disabled.
#[inline]
pub fn event(name: &'static str, value: f64) {
    if !tracing_enabled() {
        return;
    }
    let record = EventRecord {
        name,
        span: CURRENT_SPAN.with(|c| c.get()),
        thread: thread_id(),
        t_ns: now_ns(),
        value,
    };
    if let Some(sub) = subscriber() {
        sub.on_event(&record);
    }
}

/// The innermost open span id on this thread (0 = none) — what a
/// coordinator forwards to a remote worker as the parent for its span
/// tree. Same semantics as [`Span::id`] on the enclosing span.
#[inline]
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// Delivers a pre-built span record to the installed subscriber, if
/// any. This is the re-emission door for spans that were recorded in
/// *another process* (a shipped worker span buffer): the coordinator
/// remaps ids/clocks and replays them here so one subscriber sees the
/// whole fleet. No-op when tracing is disabled.
pub fn emit_span(record: &SpanRecord) {
    if !tracing_enabled() {
        return;
    }
    if let Some(sub) = subscriber() {
        sub.on_span(record);
    }
}

/// [`emit_span`]'s counterpart for events.
pub fn emit_event(record: &EventRecord) {
    if !tracing_enabled() {
        return;
    }
    if let Some(sub) = subscriber() {
        sub.on_event(record);
    }
}

/// Interns a runtime string as a `&'static str` — span/event names in
/// records are static, but names arriving over the wire are not.
/// Interned names live for the process lifetime; the table holds one
/// entry per *distinct* name, and span vocabularies are small static
/// sets, so the leak is bounded.
pub fn intern_name(name: &str) -> &'static str {
    static TABLE: Mutex<Option<std::collections::BTreeSet<&'static str>>> = Mutex::new(None);
    let mut table = TABLE.lock().unwrap();
    let table = table.get_or_insert_with(Default::default);
    if let Some(existing) = table.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// Maps another process's monotonic-ns trace clock onto this one.
///
/// Each process's [`now_ns`] counts from its own arbitrary epoch (the
/// first call in that process), so raw worker timestamps are
/// meaningless coordinator-side. The wire handshake has the worker
/// report its current `now_ns` reading; the coordinator pairs it with
/// its own reading at receipt, and the difference maps every
/// subsequent worker timestamp into coordinator time. The mapping
/// absorbs the network latency of the handshake leg (worker spans can
/// appear up to one round-trip early); on loopback that skew is
/// microseconds — fine for timelines, not for auditing causality.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockMap {
    /// Added to remote timestamps to land in local trace time.
    pub offset_ns: i64,
}

impl ClockMap {
    /// A mapping from a remote clock reading paired with the local
    /// reading taken when it arrived.
    pub fn from_exchange(remote_now_ns: u64, local_now_ns: u64) -> ClockMap {
        ClockMap {
            offset_ns: i64::try_from(local_now_ns)
                .unwrap_or(i64::MAX)
                .saturating_sub(i64::try_from(remote_now_ns).unwrap_or(i64::MAX)),
        }
    }

    /// A remote timestamp in local trace time (saturating at 0).
    pub fn to_local(&self, remote_ns: u64) -> u64 {
        let shifted = i64::try_from(remote_ns)
            .unwrap_or(i64::MAX)
            .saturating_add(self.offset_ns);
        u64::try_from(shifted).unwrap_or(0)
    }
}

/// Fans records out to several subscribers — e.g. a [`RingRecorder`]
/// for in-test assertions *and* a [`JsonlSubscriber`] for timeline
/// export, simultaneously.
pub struct FanoutSubscriber {
    subs: Vec<Arc<dyn Subscriber>>,
}

impl FanoutSubscriber {
    /// A fanout over `subs`, delivered in order.
    pub fn new(subs: Vec<Arc<dyn Subscriber>>) -> Self {
        FanoutSubscriber { subs }
    }
}

impl Subscriber for FanoutSubscriber {
    fn on_span(&self, span: &SpanRecord) {
        for sub in &self.subs {
            sub.on_span(span);
        }
    }

    fn on_event(&self, event: &EventRecord) {
        for sub in &self.subs {
            sub.on_event(event);
        }
    }
}

/// A subscriber that receives and discards everything — the cost
/// baseline for the overhead-guard tests (record building + dispatch,
/// no I/O).
#[derive(Debug, Default)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    fn on_span(&self, _span: &SpanRecord) {}
    fn on_event(&self, _event: &EventRecord) {}
}

/// Keeps the most recent records in memory, dropping the oldest past
/// the capacity — the black-box flight recorder for tests and
/// post-mortems.
#[derive(Debug)]
pub struct RingRecorder {
    spans: Mutex<VecDeque<SpanRecord>>,
    events: Mutex<VecDeque<EventRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` spans and `capacity`
    /// events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            spans: Mutex::new(VecDeque::new()),
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().iter().cloned().collect()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears both rings (the dropped count is kept).
    pub fn clear(&self) {
        self.spans.lock().unwrap().clear();
        self.events.lock().unwrap().clear();
    }
}

impl Subscriber for RingRecorder {
    fn on_span(&self, span: &SpanRecord) {
        let mut ring = self.spans.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span.clone());
    }

    fn on_event(&self, event: &EventRecord) {
        let mut ring = self.events.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event.clone());
    }
}

/// Writes each record as one JSON line:
///
/// ```text
/// {"type":"span","name":"job.run","id":7,"parent":0,"thread":1,"start_ns":123,"dur_ns":456}
/// {"type":"event","name":"job.tile.spilled","span":7,"thread":1,"t_ns":200,"value":3}
/// ```
///
/// Output is buffered and flushed after every record — tracing is a
/// diagnostic mode, and a crash must not eat the records leading up to
/// it. Write errors are counted, not propagated (telemetry must never
/// take the pipeline down).
pub struct JsonlSubscriber {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    write_errors: AtomicU64,
}

impl JsonlSubscriber {
    /// Writes records to `w`.
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        JsonlSubscriber {
            out: Mutex::new(BufWriter::new(w)),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Writes records to standard error.
    pub fn to_stderr() -> Self {
        Self::new(Box::new(io::stderr()))
    }

    /// Writes records to the file at `path` (created or truncated).
    pub fn to_file(path: &Path) -> io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }

    /// Records that failed to write.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap();
        let result = writeln!(out, "{line}").and_then(|()| out.flush());
        if result.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Subscriber for JsonlSubscriber {
    fn on_span(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"span\",\"name\":");
        write_json_str(&mut line, span.name);
        line.push_str(&format!(
            ",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            span.id, span.parent, span.thread, span.start_ns, span.dur_ns
        ));
        self.write_line(&line);
    }

    fn on_event(&self, event: &EventRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"event\",\"name\":");
        write_json_str(&mut line, event.name);
        line.push_str(&format!(
            ",\"span\":{},\"thread\":{},\"t_ns\":{},\"value\":",
            event.span, event.thread, event.t_ns
        ));
        crate::json::write_json_f64(&mut line, event.value);
        line.push('}');
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_valid_json;
    use std::sync::MutexGuard;

    /// The subscriber slot is process-global; tests that install one
    /// must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_yields_inert_spans() {
        let _guard = serial();
        clear_subscriber();
        let s = span("never.recorded");
        assert_eq!(s.id(), 0);
        drop(s);
        event("never.recorded", 1.0);
        // Nothing to assert beyond "did not panic / did not allocate a
        // subscriber" — the recorder tests prove the enabled path.
        assert!(!tracing_enabled());
    }

    #[test]
    fn ring_recorder_captures_nesting_and_threads() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::new(64));
        set_subscriber(ring.clone());
        {
            let outer = span("outer");
            event("tick", 2.5);
            {
                let _inner = span("inner");
                event("tock", 7.0);
            }
            assert!(outer.id() > 0);
        }
        clear_subscriber();

        let spans = ring.spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        // Spans close inner-first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns.max(1));

        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].span, outer.id, "tick fired in the outer span");
        assert_eq!(events[1].span, inner.id, "tock fired in the inner span");
        assert_eq!(events[0].value, 2.5);
    }

    #[test]
    fn explicit_parent_stitches_across_threads() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::new(64));
        set_subscriber(ring.clone());
        {
            let dealer = span("dealer");
            let dealer_id = dealer.id();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let handed = span_with_parent("handed", dealer_id);
                    {
                        // Nested spans on the worker stack under it.
                        let _local = span("local");
                    }
                    drop(handed);
                    // The worker stack is restored: a fresh span here
                    // is a root again, not a child of `handed`.
                    let _after = span("after");
                });
            });
        }
        clear_subscriber();

        let spans = ring.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (dealer, handed, local, after) = (
            by_name("dealer"),
            by_name("handed"),
            by_name("local"),
            by_name("after"),
        );
        assert_eq!(handed.parent, dealer.id);
        assert_ne!(handed.thread, dealer.thread);
        assert_eq!(local.parent, handed.id);
        assert_eq!(after.parent, 0, "{spans:?}");
    }

    #[test]
    fn ring_recorder_evicts_oldest() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::new(2));
        set_subscriber(ring.clone());
        for _ in 0..5 {
            let _s = span("evicted");
        }
        clear_subscriber();
        assert_eq!(ring.spans().len(), 2);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn parallel_spans_get_distinct_threads_and_roots() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::new(64));
        set_subscriber(ring.clone());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = span("worker");
                });
            }
        });
        clear_subscriber();
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.parent == 0));
        assert_ne!(spans[0].thread, spans[1].thread);
        assert_ne!(spans[0].id, spans[1].id);
    }

    #[test]
    fn jsonl_subscriber_emits_parseable_lines() {
        let _guard = serial();
        let path = std::env::temp_dir().join(format!("sts-obs-trace-{}.jsonl", std::process::id()));
        let sub = Arc::new(JsonlSubscriber::to_file(&path).unwrap());
        set_subscriber(sub.clone());
        {
            let _s = span("stage.one");
            event("progress", 0.5);
        }
        clear_subscriber();
        assert_eq!(sub.write_errors(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        for line in &lines {
            assert!(is_valid_json(line), "unparseable: {line}");
        }
        assert!(lines[0].contains("\"type\":\"event\""), "{}", lines[0]);
        assert!(lines[1].contains("\"type\":\"span\""), "{}", lines[1]);
        assert!(lines[1].contains("\"name\":\"stage.one\""), "{}", lines[1]);
    }

    #[test]
    fn clock_map_shifts_remote_timestamps() {
        // Worker clock started 1000ns "after" ours: remote 50 ↔ local 1050.
        let map = ClockMap::from_exchange(50, 1050);
        assert_eq!(map.offset_ns, 1000);
        assert_eq!(map.to_local(50), 1050);
        assert_eq!(map.to_local(0), 1000);
        // Negative offsets clamp at zero rather than wrapping.
        let map = ClockMap::from_exchange(5000, 10);
        assert_eq!(map.to_local(0), 0);
        assert_eq!(map.to_local(6000), 1010);
    }

    #[test]
    fn intern_name_dedups_to_one_static() {
        let a = intern_name("shard.tile.lease");
        let b = intern_name(&String::from("shard.tile.lease"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "shard.tile.lease");
    }

    #[test]
    fn fanout_and_emit_replay_remote_records() {
        let _guard = serial();
        let ring_a = Arc::new(RingRecorder::new(8));
        let ring_b = Arc::new(RingRecorder::new(8));
        set_subscriber(Arc::new(FanoutSubscriber::new(vec![
            ring_a.clone(),
            ring_b.clone(),
        ])));
        let shipped = SpanRecord {
            id: (3 << 32) | 7,
            parent: 2,
            name: intern_name("worker.chunk"),
            thread: 99,
            start_ns: 123,
            dur_ns: 456,
        };
        emit_span(&shipped);
        emit_event(&EventRecord {
            name: intern_name("worker.tile"),
            span: shipped.id,
            thread: 99,
            t_ns: 150,
            value: 4.0,
        });
        clear_subscriber();
        for ring in [&ring_a, &ring_b] {
            assert_eq!(ring.spans(), vec![shipped.clone()]);
            assert_eq!(ring.events().len(), 1);
            assert_eq!(ring.events()[0].span, shipped.id);
        }
        // Disabled tracing makes emit a no-op, like span()/event().
        emit_span(&shipped);
        assert!(ring_a.spans().len() == 1);
    }

    #[test]
    fn null_subscriber_discards_everything() {
        let _guard = serial();
        set_subscriber(Arc::new(NullSubscriber));
        assert!(tracing_enabled());
        let _s = span("into.the.void");
        event("gone", 1.0);
        let prev = clear_subscriber();
        assert!(prev.is_some());
        assert!(!tracing_enabled());
    }
}
