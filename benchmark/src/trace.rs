//! Span capture and per-layer accounting for the traced pass.
//!
//! The traced pass wraps each call into a layer's public function in a
//! span named after that layer (`stats.kde`, `core.stprob.bridge`, …),
//! under one `bench.*` root span per request (pair, query, ping or job).
//! Spans the program emits on its own (`sts.prepare`, `job.tiled`,
//! `tile.save`, …) nest under them. Spans are kept in memory and
//! written out once the pass ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sts_obs::trace::{self, JsonlSubscriber, RingRecorder, SpanRecord, Subscriber};

/// Spans kept per traced pass; a pass that overflows this is an error,
/// not a silently truncated trace.
const CAPACITY: usize = 2_000_000;

/// An in-memory recorder installed as the process subscriber.
struct Capture {
    ring: Arc<RingRecorder>,
}

impl Capture {
    /// Installs a fresh recorder; tracing is on until [`Capture::finish`].
    fn start() -> Capture {
        let ring = Arc::new(RingRecorder::new(CAPACITY));
        trace::set_subscriber(ring.clone());
        Capture { ring }
    }

    /// Turns tracing off and returns every span recorded.
    fn finish(self) -> Result<Vec<SpanRecord>, String> {
        trace::clear_subscriber();
        if self.ring.dropped() > 0 {
            return Err(format!(
                "trace ring overflowed: {} records dropped",
                self.ring.dropped()
            ));
        }
        Ok(self.ring.spans())
    }
}

/// Untraced and traced replays compared for the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// What [`off_and_on`] measured.
pub struct Traced<T> {
    /// Median wall time of the untraced replays.
    pub off: Duration,
    /// Median wall time of the traced replays.
    pub on: Duration,
    /// Wall time of the last traced replay, whose spans these are.
    pub wall: Duration,
    /// Spans of the last traced replay.
    pub spans: Vec<SpanRecord>,
    /// What the last traced replay returned.
    pub value: T,
}

/// Runs `f` once to warm up, then alternately with tracing off and on,
/// [`OVERHEAD_PAIRS`] times each. The first call fills what is built
/// lazily and touches fresh memory; without it the untraced side paid
/// for that and the overhead read negative. `f` must do identical work
/// on every call.
pub fn off_and_on<T>(mut f: impl FnMut() -> T) -> Result<Traced<T>, String> {
    std::hint::black_box(f());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let started = Instant::now();
        std::hint::black_box(f());
        off.push(started.elapsed());
        let capture = Capture::start();
        let started = Instant::now();
        let value = f();
        let wall = started.elapsed();
        on.push(wall);
        last = Some((wall, capture.finish()?, value));
    }
    let (wall, spans, value) = last.expect("at least one traced replay");
    off.sort();
    on.sort();
    Ok(Traced {
        off: off[OVERHEAD_PAIRS / 2],
        on: on[OVERHEAD_PAIRS / 2],
        wall,
        spans,
        value,
    })
}

impl<T> Traced<T> {
    /// Layer self time on the replay thread over the traced replay's
    /// wall time.
    pub fn coverage(&self, layers: &Layers) -> f64 {
        layers.layer_self.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// How much slower the traced replays ran, percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.on.as_secs_f64() - self.off.as_secs_f64()) / self.off.as_secs_f64() * 100.0
    }
}

/// Per-name span totals, and the layers' self time: a span's duration
/// minus the part its same-thread children cover.
#[derive(Debug, Default)]
pub struct Layers {
    by_name: HashMap<String, (u64, Duration)>,
    /// Self time of every non-`bench.*` span recorded on the replay
    /// thread.
    pub layer_self: Duration,
}

impl Layers {
    /// Accounts `spans`; only spans recorded on `thread` (the replay
    /// thread) count toward [`Layers::layer_self`], since spans on pool
    /// threads overlap the replay thread's in wall time.
    pub fn of(spans: &[SpanRecord], thread: u64) -> Layers {
        let thread_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if thread_of.get(&s.parent) == Some(&s.thread) {
                *child_ns.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut layers = Layers::default();
        for s in spans {
            let own = Duration::from_nanos(
                s.dur_ns
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            );
            let entry = layers
                .by_name
                .entry(s.name.to_string())
                .or_insert((0, Duration::ZERO));
            entry.0 += 1;
            entry.1 += Duration::from_nanos(s.dur_ns);
            if s.thread == thread && !s.name.starts_with("bench.") {
                layers.layer_self += own;
            }
        }
        layers
    }

    /// Summed duration of spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.by_name.get(name).map_or(Duration::ZERO, |e| e.1)
    }

    /// Mean duration of spans named `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> Duration {
        match self.by_name.get(name) {
            Some(&(n, total)) if n > 0 => total / n as u32,
            _ => Duration::ZERO,
        }
    }
}

/// Writes `spans` to `path` in the `sts-obs` trace JSONL format.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> io::Result<()> {
    let buf = SharedBuf::default();
    let sub = JsonlSubscriber::new(Box::new(buf.clone()));
    for s in spans {
        sub.on_span(s);
    }
    if sub.write_errors() > 0 {
        return Err(io::Error::other("trace records failed to serialize"));
    }
    drop(sub);
    let bytes = std::mem::take(&mut *buf.0.lock().expect("trace buffer lock"));
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.sync_all()
}

/// An in-memory sink the JSONL subscriber writes through.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, thread: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            rec(1, 0, "bench.pair", 1, 100),
            rec(2, 1, "core.stprob.bridge", 1, 60),
            rec(3, 2, "inner", 1, 10),
            rec(4, 1, "core.colocation", 1, 30),
            // A pool thread's span under the root: not subtracted from
            // the root, not counted as replay-thread layer time.
            rec(5, 1, "pool.chunk", 2, 80),
        ];
        let l = Layers::of(&spans, 1);
        assert_eq!(l.total("core.stprob.bridge"), Duration::from_nanos(60));
        assert_eq!(l.total("pool.chunk"), Duration::from_nanos(80));
        // The bridge's 60 less its child's 10, plus the child's 10 and
        // the dot product's 30, all on the replay thread; the root and
        // the pool thread's span do not count.
        assert_eq!(l.layer_self, Duration::from_nanos(90));
        assert_eq!(l.mean("core.colocation"), Duration::from_nanos(30));
        assert_eq!(l.mean("missing"), Duration::ZERO);
    }
}
