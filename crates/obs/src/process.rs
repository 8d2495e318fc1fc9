//! Process-level resource introspection.
//!
//! The out-of-core tiled engine claims bounded memory; this module is
//! how the claim is *measured* rather than asserted. On Linux the
//! kernel tracks the high-water mark of resident memory (`VmHWM` in
//! `/proc/self/status`); elsewhere the probe degrades to `None` and
//! callers fall back to their own accounting (the engine's
//! `max_resident_cells` counter, which is platform-independent).

/// The process's peak resident set size in bytes (`VmHWM`), when the
/// platform exposes it. `None` on non-Linux platforms or when
/// `/proc/self/status` cannot be read or parsed.
///
/// Note this is a *high-water mark*: it never decreases over the
/// process lifetime, and it covers the whole process (code, corpus,
/// allocator slack) — comparisons are only meaningful against the same
/// process's earlier value or a sibling process with the same setup.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Samples [`peak_rss_bytes`] into the `process.peak_rss_bytes` gauge
/// and returns it. Call at the end of memory-sensitive phases (such as
/// the tiled merge) so the high-water mark lands in telemetry
/// snapshots.
pub fn record_peak_rss() -> Option<u64> {
    let v = peak_rss_bytes();
    if let Some(bytes) = v {
        crate::static_gauge!("process.peak_rss_bytes")
            .set(i64::try_from(bytes).unwrap_or(i64::MAX));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_where_supported() {
        match peak_rss_bytes() {
            // On Linux the probe must produce something sane: more
            // than a page, less than a petabyte.
            Some(bytes) => {
                assert!(bytes > 4096, "{bytes}");
                assert!(bytes < (1 << 50), "{bytes}");
            }
            // Elsewhere the documented fallback is None.
            None => assert!(!cfg!(target_os = "linux"), "Linux must report VmHWM"),
        }
    }

    #[test]
    fn record_sets_the_gauge() {
        let v = record_peak_rss();
        if let Some(bytes) = v {
            let g = crate::metrics::global()
                .snapshot()
                .gauge("process.peak_rss_bytes")
                .unwrap_or(0);
            assert!(g > 0, "gauge recorded");
            assert!(g as u64 <= bytes.max(i64::MAX as u64));
        }
    }
}
