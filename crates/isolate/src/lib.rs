#![warn(missing_docs)]
//! # sts-isolate — the worker frame codec and transport
//!
//! `sts-core` runs isolated and distributed matrix jobs on a fleet of
//! `sts-worker` processes, and `sts-serve` answers clients over the
//! same wire. This crate is what both speak, measure-free and
//! std-only:
//!
//! * [`protocol`] — a length-prefixed line codec (same in-repo text
//!   style as the tile and `sts-traj::io` formats), whose length
//!   prefix makes *garbage output* a detectable [`ProtocolError`]
//!   instead of silent corruption;
//! * [`transport`] — those frames over TCP loopback: a [`FrameConn`]
//!   with socket read deadlines and an injectable [`NetInjector`]
//!   chaos seam (drop/delay/corrupt/duplicate/disconnect/wedge), the
//!   substrate of `sts-core`'s lease coordinator and the
//!   network-chaos suites in `sts-robust`.
//!
//! The crate moves frames, never trajectories: `sts-core` gives the
//! frames their meaning (the worker preamble describes the grid,
//! measure config and corpus). That keeps `sts-isolate` below
//! `sts-core` in the dependency DAG.

pub mod protocol;
pub mod transport;

pub use protocol::{ProtocolError, MAX_FRAME_BYTES};
pub use transport::{is_timeout, FrameConn, NetDirection, NetFault, NetInjector};
