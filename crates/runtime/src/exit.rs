//! How a worker subprocess died.
//!
//! Crash attribution needs a compact, serializable description of the
//! death so a poisoned pair can be persisted, reported and replayed.
//! [`WorkerExit`] is that description: it round-trips through a single
//! whitespace-free token (`code:1`, `signal:6`, `hard-timeout`,
//! `protocol`), which is what the tile `x` record and the job report
//! print. It lives in `sts-runtime` — below both the record codec and
//! the `sts-core` fleet coordinator — so the two agree on one type
//! without a dependency cycle.

use std::fmt;
use std::str::FromStr;

/// Why a worker subprocess was lost while holding a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkerExit {
    /// The process exited with a status code (`abort()`-free death:
    /// e.g. an explicit `exit(1)` or a Rust panic=abort runtime error).
    Code(i32),
    /// The process was terminated by a signal (Unix): SIGABRT from
    /// `std::process::abort`, SIGSEGV from a stack overflow, SIGKILL
    /// from the OOM killer.
    Signal(i32),
    /// The coordinator killed the process because a chunk exceeded the
    /// hard timeout (a wedged computation that never returned).
    HardTimeout,
    /// The process broke the wire protocol (garbage output, torn or
    /// malformed frame, unexpected EOF) and was discarded.
    Protocol,
    /// The worker refused the handshake — protocol version or job
    /// fingerprint mismatch. A rejection is permanent for the pair of
    /// binaries involved: restarting the same worker cannot fix it.
    Rejected,
}

impl fmt::Display for WorkerExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerExit::Code(c) => write!(f, "code:{c}"),
            WorkerExit::Signal(s) => write!(f, "signal:{s}"),
            WorkerExit::HardTimeout => write!(f, "hard-timeout"),
            WorkerExit::Protocol => write!(f, "protocol"),
            WorkerExit::Rejected => write!(f, "rejected"),
        }
    }
}

/// Error parsing a [`WorkerExit`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkerExitError(String);

impl fmt::Display for ParseWorkerExitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad worker exit token `{}`", self.0)
    }
}

impl std::error::Error for ParseWorkerExitError {}

impl FromStr for WorkerExit {
    type Err = ParseWorkerExitError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseWorkerExitError(s.to_string());
        if let Some(c) = s.strip_prefix("code:") {
            return c.parse().map(WorkerExit::Code).map_err(|_| bad());
        }
        if let Some(sig) = s.strip_prefix("signal:") {
            return sig.parse().map(WorkerExit::Signal).map_err(|_| bad());
        }
        match s {
            "hard-timeout" => Ok(WorkerExit::HardTimeout),
            "protocol" => Ok(WorkerExit::Protocol),
            "rejected" => Ok(WorkerExit::Rejected),
            _ => Err(bad()),
        }
    }
}

impl WorkerExit {
    /// Classifies a finished [`std::process::ExitStatus`]: the exit
    /// code when there is one, the killing signal on Unix otherwise.
    pub fn from_status(status: std::process::ExitStatus) -> Self {
        if let Some(code) = status.code() {
            return WorkerExit::Code(code);
        }
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            if let Some(sig) = status.signal() {
                return WorkerExit::Signal(sig);
            }
        }
        // No code and no signal: an exotic platform state; report the
        // most generic code rather than invent a signal number.
        WorkerExit::Code(-1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for exit in [
            WorkerExit::Code(0),
            WorkerExit::Code(101),
            WorkerExit::Code(-7),
            WorkerExit::Signal(6),
            WorkerExit::Signal(9),
            WorkerExit::HardTimeout,
            WorkerExit::Protocol,
            WorkerExit::Rejected,
        ] {
            let token = exit.to_string();
            assert!(
                !token.contains(char::is_whitespace),
                "token `{token}` must be a single field"
            );
            assert_eq!(token.parse::<WorkerExit>().unwrap(), exit);
        }
    }

    #[test]
    fn bad_tokens_are_errors() {
        for bad in [
            "", "code:", "code:x", "signal:", "sig:9", "timeout", "CODE:1",
        ] {
            assert!(bad.parse::<WorkerExit>().is_err(), "`{bad}` must not parse");
        }
    }
}
