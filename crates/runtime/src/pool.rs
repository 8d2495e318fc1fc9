//! The supervised worker pool — the in-process executor of every
//! matrix job.
//!
//! Work arrives as [`PairChunk`]s in a shared queue; workers deal
//! themselves chunks, checking the [`CancelToken`] and [`Budget`] at
//! every chunk boundary. A chunk whose work function panics is
//! contained and recorded as [`ChunkStatus::Failed`] while the other
//! chunks run on. The pool does not retry: callers retry inside their
//! work function, per cell, where a retry costs one cell rather than a
//! chunk. A watchdog thread marks chunks that exceed the per-chunk
//! soft timeout (it cannot preempt them — Rust threads are not
//! killable — but a marked chunk tells the operator *which* pairs
//! wedged). Completed chunk results are streamed back to the caller's
//! thread through [`run_supervised`]'s `on_complete` sink, so the
//! caller can fold cells into its matrix without any shared mutable
//! state.

use crate::{Budget, CancelToken, PairChunk, StopReason};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sts_obs::{static_counter, static_gauge, static_histogram, trace};

/// Saturating nanosecond count of a [`Duration`].
fn as_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Locks a mutex tolerating poisoning. Every critical section in this
/// module leaves its protected state consistent at each drop point, so
/// a worker thread that panicked while holding a lock (only possible
/// outside `catch_unwind`, e.g. in an allocation failure) must not
/// cascade into a supervisor panic that loses the whole run.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool-level configuration.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker threads; `0` selects automatically via
    /// [`thread_count`](crate::thread_count) capped at the chunk count.
    pub threads: usize,
    /// Per-chunk soft timeout: chunks running (or having run) longer
    /// are marked slow in [`PoolRun::slow_chunks`]. `None` disables
    /// the watchdog.
    pub soft_timeout: Option<Duration>,
    /// Work/wall-clock budget, checked at every chunk boundary.
    pub budget: Budget,
    /// Cooperative cancellation, checked at every chunk boundary.
    pub cancel: CancelToken,
}

/// Terminal status of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkStatus {
    /// The chunk's work function returned; its cells were delivered to
    /// the sink.
    Completed,
    /// The work function panicked; the panic was contained to the
    /// chunk.
    Failed,
    /// The chunk was never run: the job stopped first.
    Skipped(StopReason),
}

/// What one supervised run did.
#[derive(Debug)]
pub struct PoolRun {
    /// Status of every chunk, indexed like the input slice.
    pub statuses: Vec<ChunkStatus>,
    /// Pairs covered by completed chunks.
    pub pairs_completed: usize,
    /// [`PairChunk::id`]s of chunks that exceeded the soft timeout,
    /// ascending.
    pub slow_chunks: Vec<usize>,
    /// Why the run stopped early, if it did.
    pub stop: Option<StopReason>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Total time chunks spent queued before a worker picked them up.
    pub chunk_wait: Duration,
    /// Total time workers spent inside the work function (including
    /// calls that panicked).
    pub chunk_run: Duration,
}

/// One queue entry: the chunk and its position in the status vector.
struct WorkItem {
    idx: usize,
    chunk: PairChunk,
}

/// Shared supervisor state.
struct Shared {
    queue: Mutex<VecDeque<WorkItem>>,
    statuses: Mutex<Vec<Option<ChunkStatus>>>,
    pairs_done: AtomicUsize,
    stop: Mutex<Option<StopReason>>,
    slow: Mutex<Vec<usize>>,
    /// When every chunk entered the queue.
    started: Instant,
    wait_ns: AtomicU64,
    run_ns: AtomicU64,
    /// The `pool.run` span id — workers parent their `pool.chunk`
    /// spans on it so the trace stitches across threads.
    span: u64,
    done: AtomicBool,
    /// `(chunk id, start instant)` per worker slot, for the watchdog.
    in_flight: Vec<Mutex<Option<(usize, Instant)>>>,
}

impl Shared {
    fn mark_slow(&self, id: usize) {
        let mut slow = lock_unpoisoned(&self.slow);
        if !slow.contains(&id) {
            slow.push(id);
            static_counter!("runtime.pool.soft_timeouts").incr();
        }
    }

    /// Publishes the current queue length to the depth gauge. Called
    /// with fresh lengths after every push/pop — last write wins, which
    /// is the right semantics for an instantaneous gauge.
    fn report_depth(&self, len: usize) {
        static_gauge!("runtime.pool.queue_depth").set(i64::try_from(len).unwrap_or(i64::MAX));
    }
}

/// Runs `work` over every chunk under supervision.
///
/// `work(chunk)` returns the computed cells as `(linear index, value)`
/// pairs; they are handed — in completion order, on the calling
/// thread — to `on_complete(chunk, cells)`, which is where the caller
/// folds them into its result. A panic inside `work` is caught and
/// fails that chunk alone; `on_complete` must not panic.
///
/// The call returns when every chunk is completed, terminally failed,
/// or skipped because the budget/cancel stopped the run.
pub fn run_supervised<T, F, S>(
    chunks: &[PairChunk],
    cfg: &PoolConfig,
    work: F,
    on_complete: S,
) -> PoolRun
where
    T: Send,
    F: Fn(&PairChunk) -> Vec<(usize, T)> + Sync,
    S: FnMut(&PairChunk, Vec<(usize, T)>),
{
    run_supervised_with(chunks, cfg, |_| (), |_, chunk| work(chunk), on_complete)
}

/// [`run_supervised`] with per-worker state: `init(slot)` runs once on
/// each worker thread when it starts, and the resulting state is handed
/// mutably to every `work` call that worker performs. This is how the
/// scoring paths thread a reusable scratch arena (`sts-core`'s
/// `StpScratch`) through the pool without sharing it across threads.
///
/// A panic inside `work` is caught and the worker goes on to its next
/// chunk with the same state, so the state must stay usable after an
/// unwound call (buffers that are cleared at the start of each use
/// satisfy this).
pub fn run_supervised_with<W, T, I, F, S>(
    chunks: &[PairChunk],
    cfg: &PoolConfig,
    init: I,
    work: F,
    mut on_complete: S,
) -> PoolRun
where
    T: Send,
    I: Fn(usize) -> W + Sync,
    F: Fn(&mut W, &PairChunk) -> Vec<(usize, T)> + Sync,
    S: FnMut(&PairChunk, Vec<(usize, T)>),
{
    let started = Instant::now();
    let run_span = trace::span("pool.run");
    let n_threads = if cfg.threads > 0 {
        cfg.threads.min(chunks.len().max(1))
    } else {
        crate::thread_count(chunks.len())
    };
    let shared = Shared {
        queue: Mutex::new(
            chunks
                .iter()
                .enumerate()
                .map(|(idx, &chunk)| WorkItem { idx, chunk })
                .collect(),
        ),
        statuses: Mutex::new(vec![None; chunks.len()]),
        pairs_done: AtomicUsize::new(0),
        stop: Mutex::new(None),
        slow: Mutex::new(Vec::new()),
        started,
        wait_ns: AtomicU64::new(0),
        run_ns: AtomicU64::new(0),
        span: run_span.id(),
        done: AtomicBool::new(false),
        in_flight: (0..n_threads).map(|_| Mutex::new(None)).collect(),
    };
    shared.report_depth(chunks.len());

    let (tx, rx) = mpsc::channel::<(PairChunk, Vec<(usize, T)>)>();
    std::thread::scope(|scope| {
        for slot in 0..n_threads {
            let tx = tx.clone();
            let shared = &shared;
            let init = &init;
            let work = &work;
            scope.spawn(move || worker_loop(slot, shared, cfg, init, work, tx));
        }
        if let Some(soft) = cfg.soft_timeout {
            let shared = &shared;
            scope.spawn(move || watchdog_loop(shared, soft));
        }
        // The collector runs on the calling thread: fold completed
        // chunks as they stream in. When every worker exits, the last
        // sender drops and the loop ends.
        drop(tx);
        for (chunk, cells) in rx {
            on_complete(&chunk, cells);
        }
        shared.done.store(true, Ordering::Release);
    });
    shared.report_depth(0);

    let stop = *lock_unpoisoned(&shared.stop);
    let statuses: Vec<ChunkStatus> = shared
        .statuses
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|s| s.unwrap_or(ChunkStatus::Skipped(stop.unwrap_or(StopReason::Cancelled))))
        .collect();
    let mut slow_chunks = shared
        .slow
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    slow_chunks.sort_unstable();
    PoolRun {
        statuses,
        pairs_completed: shared.pairs_done.into_inner(),
        slow_chunks,
        stop,
        elapsed: started.elapsed(),
        chunk_wait: Duration::from_nanos(shared.wait_ns.into_inner()),
        chunk_run: Duration::from_nanos(shared.run_ns.into_inner()),
    }
}

fn worker_loop<W, T, I, F>(
    slot: usize,
    shared: &Shared,
    cfg: &PoolConfig,
    init: &I,
    work: &F,
    tx: mpsc::Sender<(PairChunk, Vec<(usize, T)>)>,
) where
    T: Send,
    I: Fn(usize) -> W + Sync,
    F: Fn(&mut W, &PairChunk) -> Vec<(usize, T)> + Sync,
{
    // Per-worker state (e.g. a scoring scratch arena), created once and
    // reused for every chunk — including after a caught panic, so
    // `work` must leave it reusable (clear-on-entry buffers do).
    let mut state = init(slot);
    loop {
        // Cooperative stop check, once per chunk boundary.
        let reason = if cfg.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else {
            cfg.budget.check(shared.pairs_done.load(Ordering::Relaxed))
        };
        let mut queue = lock_unpoisoned(&shared.queue);
        if let Some(reason) = reason {
            // First stop reason wins; drain everything still queued.
            lock_unpoisoned(&shared.stop).get_or_insert(reason);
            let mut statuses = lock_unpoisoned(&shared.statuses);
            while let Some(item) = queue.pop_front() {
                statuses[item.idx] = Some(ChunkStatus::Skipped(reason));
            }
            shared.report_depth(0);
            return;
        }
        let Some(item) = queue.pop_front() else {
            return;
        };
        shared.report_depth(queue.len());
        drop(queue);

        let waited = shared.started.elapsed();
        shared.wait_ns.fetch_add(as_ns(waited), Ordering::Relaxed);
        static_histogram!("runtime.pool.chunk_wait_ns").record_duration(waited);

        *lock_unpoisoned(&shared.in_flight[slot]) = Some((item.chunk.id, Instant::now()));
        let chunk_started = Instant::now();
        let result = {
            let _span = trace::span_with_parent("pool.chunk", shared.span);
            catch_unwind(AssertUnwindSafe(|| work(&mut state, &item.chunk)))
        };
        let took = chunk_started.elapsed();
        *lock_unpoisoned(&shared.in_flight[slot]) = None;
        shared.run_ns.fetch_add(as_ns(took), Ordering::Relaxed);
        static_histogram!("runtime.pool.chunk_run_ns").record_duration(took);
        if cfg.soft_timeout.is_some_and(|soft| took > soft) {
            shared.mark_slow(item.chunk.id);
        }

        let status = match result {
            Ok(cells) => {
                shared
                    .pairs_done
                    .fetch_add(item.chunk.len, Ordering::Relaxed);
                // The collector holds the receiver for the whole
                // scope; a send failure means the caller's scope is
                // unwinding already, so dropping the cells is fine.
                let _ = tx.send((item.chunk, cells));
                ChunkStatus::Completed
            }
            Err(_) => ChunkStatus::Failed,
        };
        lock_unpoisoned(&shared.statuses)[item.idx] = Some(status);
    }
}

/// Periodically scans the in-flight table and marks overrunning chunks
/// slow *while they run* — an operator watching the job report sees a
/// wedged chunk before it finishes (if it ever does).
fn watchdog_loop(shared: &Shared, soft: Duration) {
    let tick = (soft / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !shared.done.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        for slot in &shared.in_flight {
            if let Some((id, since)) = *lock_unpoisoned(slot) {
                if since.elapsed() > soft {
                    shared.mark_slow(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairSpace;

    fn chunks_of(rows: usize, cols: usize, size: usize) -> Vec<PairChunk> {
        PairSpace::new(rows, cols).chunks(size).collect()
    }

    /// Runs `f` with panic output silenced (the containment test panics
    /// on purpose).
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn clean_run_completes_every_chunk_and_delivers_every_cell() {
        let space = PairSpace::new(6, 7);
        let chunks = chunks_of(6, 7, 5);
        let mut cells = vec![u64::MAX; space.len()];
        let run = run_supervised(
            &chunks,
            &PoolConfig::default(),
            |c| c.range().map(|lin| (lin, lin as u64 * 3)).collect(),
            |_c, computed| {
                for (lin, v) in computed {
                    cells[lin] = v;
                }
            },
        );
        assert!(run.statuses.iter().all(|s| *s == ChunkStatus::Completed));
        assert_eq!(run.pairs_completed, space.len());
        assert_eq!(run.stop, None);
        for (lin, v) in cells.iter().enumerate() {
            assert_eq!(*v, lin as u64 * 3);
        }
    }

    #[test]
    fn panicking_chunk_fails_alone_and_the_rest_complete() {
        quietly(|| {
            let chunks = chunks_of(4, 1, 1); // 4 chunks of 1 pair
            let calls = AtomicUsize::new(0);
            let mut delivered = Vec::new();
            let run = run_supervised(
                &chunks,
                &PoolConfig::default(),
                |c| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if c.start == 2 {
                        panic!("poisoned chunk");
                    }
                    vec![(c.start, c.start)]
                },
                |_c, cells| delivered.extend(cells),
            );
            assert_eq!(run.statuses[2], ChunkStatus::Failed);
            for idx in [0, 1, 3] {
                assert_eq!(run.statuses[idx], ChunkStatus::Completed, "chunk {idx}");
            }
            assert_eq!(calls.load(Ordering::Relaxed), 4, "no chunk runs twice");
            assert_eq!(run.pairs_completed, 3);
            assert_eq!(run.stop, None);
            delivered.sort_unstable();
            assert_eq!(delivered, vec![(0, 0), (1, 1), (3, 3)]);
        });
    }

    #[test]
    fn zero_pair_budget_skips_everything() {
        let chunks = chunks_of(4, 4, 4);
        let cfg = PoolConfig {
            budget: Budget::with_max_pairs(0),
            ..PoolConfig::default()
        };
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| c.range().map(|lin| (lin, ())).collect(),
            |_, _| panic!("no chunk may complete"),
        );
        assert_eq!(run.stop, Some(StopReason::PairBudgetExhausted));
        assert_eq!(run.pairs_completed, 0);
        assert!(run
            .statuses
            .iter()
            .all(|s| *s == ChunkStatus::Skipped(StopReason::PairBudgetExhausted)));
    }

    #[test]
    fn pair_budget_stops_mid_run_with_completed_chunks_intact() {
        let chunks = chunks_of(10, 10, 5); // 20 chunks of 5
        let cfg = PoolConfig {
            threads: 1, // deterministic deal order
            budget: Budget::with_max_pairs(12),
            ..PoolConfig::default()
        };
        let mut got = 0usize;
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| c.range().map(|lin| (lin, ())).collect(),
            |c, _| got += c.len,
        );
        // 12 pairs = 2.4 chunks -> the 3rd chunk completes (15 done),
        // then the boundary check trips.
        assert_eq!(run.stop, Some(StopReason::PairBudgetExhausted));
        assert_eq!(run.pairs_completed, 15);
        assert_eq!(got, 15);
        let completed = run
            .statuses
            .iter()
            .filter(|s| **s == ChunkStatus::Completed)
            .count();
        assert_eq!(completed, 3);
    }

    #[test]
    fn cancellation_skips_the_rest() {
        let token = CancelToken::new();
        let chunks = chunks_of(8, 8, 8);
        let cfg = PoolConfig {
            threads: 1,
            cancel: token.clone(),
            ..PoolConfig::default()
        };
        let mut completed = 0usize;
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| {
                if c.id == 1 {
                    token.cancel();
                }
                c.range().map(|lin| (lin, ())).collect()
            },
            |_, _| completed += 1,
        );
        assert_eq!(run.stop, Some(StopReason::Cancelled));
        assert!(completed >= 2, "chunks before the cancel completed");
        assert!(
            run.statuses
                .iter()
                .any(|s| *s == ChunkStatus::Skipped(StopReason::Cancelled)),
            "chunks after the cancel were skipped"
        );
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let chunks = chunks_of(4, 4, 4);
        let cfg = PoolConfig {
            budget: Budget::with_deadline(Duration::ZERO),
            ..PoolConfig::default()
        };
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| c.range().map(|lin| (lin, ())).collect(),
            |_, _| {},
        );
        assert_eq!(run.stop, Some(StopReason::DeadlineExceeded));
        assert_eq!(run.pairs_completed, 0);
    }

    #[test]
    fn slow_chunk_is_marked_by_the_watchdog() {
        let chunks = chunks_of(3, 1, 1);
        let cfg = PoolConfig {
            soft_timeout: Some(Duration::from_millis(5)),
            ..PoolConfig::default()
        };
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| {
                if c.id == 1 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                vec![(c.start, ())]
            },
            |_, _| {},
        );
        assert!(run.slow_chunks.contains(&1), "slow: {:?}", run.slow_chunks);
        assert!(run.statuses.iter().all(|s| *s == ChunkStatus::Completed));
    }

    #[test]
    fn slow_chunks_are_named_by_chunk_id_not_position() {
        // A slab dealt from the middle of a larger space: ids 10..13.
        let chunks: Vec<PairChunk> = (0..3)
            .map(|k| PairChunk {
                id: 10 + k,
                start: 40 + k,
                len: 1,
            })
            .collect();
        let cfg = PoolConfig {
            soft_timeout: Some(Duration::from_millis(5)),
            ..PoolConfig::default()
        };
        let run = run_supervised(
            &chunks,
            &cfg,
            |c| {
                if c.id == 11 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                vec![(c.start, ())]
            },
            |_, _| {},
        );
        assert_eq!(run.slow_chunks, vec![11]);
    }

    #[test]
    fn empty_chunk_list_returns_immediately() {
        let run = run_supervised(
            &[],
            &PoolConfig::default(),
            |_c| Vec::<(usize, ())>::new(),
            |_, _| {},
        );
        assert!(run.statuses.is_empty());
        assert_eq!(run.stop, None);
        assert_eq!(run.pairs_completed, 0);
    }
}
