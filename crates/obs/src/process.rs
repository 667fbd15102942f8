//! Process resource telemetry read from `/proc` ([`ProcessStats`],
//! [`ResourceSampler`]), std-only, so servers can export the standard
//! `process_*` gauges without libc.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc;
/// the value is 100 on every Linux configuration Rust supports (the
/// USER_HZ ABI constant, fixed independently of the scheduler HZ).
const CLK_TCK: f64 = 100.0;

/// Bytes per page for `/proc/self/statm` (4096 on every supported
/// Linux target; huge pages don't change the statm unit).
const PAGE_SIZE: u64 = 4096;

/// A point-in-time snapshot of the process's resource usage, read from
/// `/proc/self/stat`, `/proc/self/statm` and `/proc/self/fd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessStats {
    /// CPU utilization in percent of one core (user + system). A
    /// one-shot sample reports the process-lifetime average; a
    /// [`ResourceSampler`] reports the rate over its tick interval.
    pub cpu_percent: f64,
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Kernel thread count.
    pub threads: u64,
    /// Open file descriptors.
    pub open_fds: u64,
    /// Process start time as seconds since the Unix epoch (the
    /// Prometheus `process_start_time_seconds` convention).
    pub start_time_seconds: f64,
    /// Cumulative user + system CPU ticks (internal rate basis).
    total_ticks: u64,
}

impl ProcessStats {
    /// Reads a one-shot snapshot, or `None` when `/proc` is
    /// unavailable (non-Linux hosts, locked-down sandboxes).
    pub fn sample() -> Option<ProcessStats> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm can contain spaces and parentheses; fields restart after
        // the last ')'.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // 0-based after comm: state=0, ..., utime=11, stime=12,
        // num_threads=17, starttime=19.
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        let threads: u64 = fields.get(17)?.parse().ok()?;
        let starttime: u64 = fields.get(19)?.parse().ok()?;

        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;

        let open_fds = std::fs::read_dir("/proc/self/fd")
            .map(|entries| entries.count() as u64)
            .unwrap_or(0);

        let btime = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|line| line.strip_prefix("btime "))
                    .and_then(|v| v.trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
        let start_time_seconds = btime as f64 + starttime as f64 / CLK_TCK;

        let total_ticks = utime + stime;
        // Lifetime average as the rate baseline for a one-shot sample.
        let now_since_boot = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
            - start_time_seconds;
        let cpu_percent = if now_since_boot > 0.0 {
            (total_ticks as f64 / CLK_TCK) / now_since_boot * 100.0
        } else {
            0.0
        };

        Some(ProcessStats {
            cpu_percent,
            rss_bytes: resident_pages * PAGE_SIZE,
            threads,
            open_fds,
            start_time_seconds,
            total_ticks,
        })
    }
}

/// A background thread that re-reads [`ProcessStats`] on a fixed tick
/// and keeps the latest snapshot available, with `cpu_percent`
/// recomputed from the tick-over-tick delta. Dropping the sampler stops
/// the thread.
pub struct ResourceSampler {
    latest: Arc<Mutex<Option<ProcessStats>>>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ResourceSampler {
    /// Spawns the sampler with the given tick interval.
    pub fn spawn(interval: Duration) -> ResourceSampler {
        let latest: Arc<Mutex<Option<ProcessStats>>> = Arc::new(Mutex::new(ProcessStats::sample()));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let latest_thread = Arc::clone(&latest);
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("whart-obs-resources".to_string())
            .spawn(move || {
                let mut prev: Option<(u64, Instant)> = None;
                let (lock, cvar) = &*stop_thread;
                loop {
                    {
                        let stopped = lock.lock().expect("resource sampler flag poisoned");
                        if *stopped {
                            break;
                        }
                        let (stopped, _) = cvar
                            .wait_timeout(stopped, interval)
                            .expect("resource sampler flag poisoned");
                        if *stopped {
                            break;
                        }
                    }
                    let Some(mut stats) = ProcessStats::sample() else {
                        continue;
                    };
                    let now = Instant::now();
                    if let Some((prev_ticks, prev_at)) = prev {
                        let wall = now.duration_since(prev_at).as_secs_f64();
                        if wall > 0.0 {
                            let delta = stats.total_ticks.saturating_sub(prev_ticks) as f64;
                            stats.cpu_percent = (delta / CLK_TCK) / wall * 100.0;
                        }
                    }
                    prev = Some((stats.total_ticks, now));
                    *latest_thread.lock().expect("resource sampler poisoned") = Some(stats);
                }
            })
            .expect("spawn resource sampler thread");
        ResourceSampler {
            latest,
            stop,
            handle: Some(handle),
        }
    }

    /// The most recent snapshot, or `None` when `/proc` is unreadable.
    pub fn latest(&self) -> Option<ProcessStats> {
        *self.latest.lock().expect("resource sampler poisoned")
    }
}

impl Drop for ResourceSampler {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("resource sampler flag poisoned") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_stats_read_plausible_values() {
        let Some(stats) = ProcessStats::sample() else {
            // Non-Linux host: the facade degrades to absence, not error.
            return;
        };
        assert!(stats.rss_bytes > 0);
        assert!(stats.threads >= 1);
        assert!(stats.open_fds >= 1);
        assert!(stats.start_time_seconds > 0.0);
    }

    #[test]
    fn resource_sampler_serves_latest() {
        let sampler = ResourceSampler::spawn(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(40));
        if let Some(stats) = sampler.latest() {
            assert!(stats.rss_bytes > 0);
            assert!(stats.cpu_percent >= 0.0);
        }
    }
}
