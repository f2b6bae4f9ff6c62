//! What the host and this process look like: thread count, peak memory,
//! a fixed calibration loop, and the hardware fingerprint.

use std::time::{Duration, Instant};

fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Live threads of this process (`Threads:` in `/proc/self/status`).
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Restart the peak-RSS count from the current resident set (Linux
/// `clear_refs` value 5), so the next reading is one section's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wait up to `grace` for the process to shrink back to `baseline`
/// threads; returns how many extra threads are still alive.
pub fn settle_threads(baseline: u64, grace: Duration) -> u64 {
    let t0 = Instant::now();
    loop {
        let n = threads();
        if n <= baseline || t0.elapsed() >= grace {
            return n.saturating_sub(baseline);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A fixed single-thread integer loop (xorshift over a 1 MiB table), in
/// milliseconds. It does the same work on every call, so a slow host phase
/// shows up as a larger number beside the benchmark's own figures.
pub fn calibrate_ms() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..24 {
        for slot in table.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x);
        }
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

fn cache_size(level: &str) -> String {
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(l) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let kind = std::fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
        if l.trim() == level && kind.trim() != "Instruction" {
            if let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

/// nproc, CPU model and L2/L3 sizes, for the record line.
pub fn fingerprint() -> (usize, String, String, String) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (
        crate::workload::nproc(),
        model,
        cache_size("2"),
        cache_size("3"),
    )
}
