#![warn(missing_docs)]
//! # sts-isolate — process-isolated worker supervision
//!
//! `catch_unwind` (the in-process supervised pool) contains panics,
//! but not the failure modes that actually kill long batch jobs at
//! production scale: aborts, stack overflows, OOM kills, and wedged
//! computations that never reach a cancellation checkpoint. The
//! standard answer is process-level isolation — a crashed worker must
//! cost one chunk, not the job. This crate supplies it, measure-free
//! and std-only:
//!
//! * [`protocol`] — a length-prefixed line protocol over stdin/stdout
//!   (same in-repo text style as the tile and `sts-traj::io`
//!   formats), whose length prefix makes *garbage output* a detectable
//!   [`ProtocolError`] instead of silent corruption;
//! * [`transport`] — the same frames over TCP loopback: a
//!   [`FrameConn`] with socket read deadlines and an injectable
//!   [`NetInjector`] chaos seam (drop/delay/corrupt/duplicate/
//!   disconnect/wedge), the substrate of `sts-core`'s sharded tile
//!   coordinator and the network-chaos suite in `sts-robust`;
//! * [`supervise`] — a fleet of worker subprocesses dealt
//!   [`PairChunk`](sts_runtime::PairChunk)s from a shared queue, with
//!   **hard timeouts via kill** (upgrading the in-process watchdog,
//!   which can only mark), restarts under a budget with
//!   [`DecorrelatedJitter`](sts_runtime::DecorrelatedJitter) backoff,
//!   and **crash attribution**: a chunk that kills a worker is
//!   bisected down to the single poison pair, quarantined as a
//!   [`PoisonPair`] with the worker's
//!   [`WorkerExit`](sts_runtime::WorkerExit).
//!
//! The crate moves chunks and opaque result payloads, never
//! trajectories: `sts-core` builds the STS-specific worker loop and
//! the `ExecMode::Subprocess` job path on top (its preamble frames
//! describe the grid, measure config and corpus; this crate does not
//! interpret them). That keeps `sts-isolate` below `sts-core` in the
//! dependency DAG — the same layering discipline as `sts-runtime`.
//!
//! Everything is instrumented through `sts-obs`: worker spawns,
//! restarts, kills, protocol errors, poisoned pairs, bisection depth
//! and per-worker chunk throughput.

pub mod protocol;
mod supervisor;
pub mod transport;

pub use protocol::{ProtocolError, MAX_FRAME_BYTES};
pub use supervisor::{supervise, IsolateConfig, IsolateRun, PoisonPair, WorkerSpec};
pub use transport::{is_timeout, FrameConn, NetDirection, NetFault, NetInjector};
