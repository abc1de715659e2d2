//! The host a report was taken on: cores, the worker count derived from
//! them, and the process's peak memory.

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// **T**: worker threads, ranks, render threads and closed-loop clients —
/// `min(nproc, 4)`, so the load generator never oversubscribes the host.
pub fn threads() -> usize {
    nproc().min(4)
}

/// Whether a threaded-over-serial ratio taken with `threads` workers on
/// `nproc` cores may be read as wall-clock scaling. With more workers than
/// cores, or a single worker, it is a count of work done, not a speed-up.
pub fn scaling_is_wall_clock(threads: usize, nproc: usize) -> bool {
    threads > 1 && threads <= nproc
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_never_exceeds_the_host() {
        assert!(threads() >= 1 && threads() <= nproc() && threads() <= 4);
    }

    #[test]
    fn scaling_claims_need_real_cores() {
        assert!(scaling_is_wall_clock(2, 2));
        assert!(scaling_is_wall_clock(4, 8));
        assert!(!scaling_is_wall_clock(4, 2), "oversubscribed: counts only");
        assert!(!scaling_is_wall_clock(1, 1), "one worker is not scaling");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
