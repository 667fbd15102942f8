//! whart-obs: the workspace's metrics and timing facade.
//!
//! Production fleets need to see where solve time goes — cache hit
//! rates, per-backend solve latencies, compile vs. solve splits — but
//! the hot paths must not pay for that visibility when nobody is
//! looking. This crate provides exactly that trade:
//!
//! * [`Metrics`] — a cloneable handle to a named-instrument registry.
//!   [`Metrics::disabled`] (the default) carries no registry at all:
//!   every instrument resolved through it is a no-op whose record path
//!   is a single `Option` branch, no locks, no clock reads, no
//!   allocation.
//! * [`Counter`] / [`Gauge`] — atomic monotone counts and last/max
//!   values.
//! * [`Histogram`] — fixed log2-bucket latency/size histograms with an
//!   explicit overflow bucket, exact `count`/`sum`/`min`/`max`.
//! * [`MetricsSnapshot`] — a point-in-time copy of every instrument,
//!   serializable to and from JSON (machine-readable CLI/CI artifacts).
//! * [`RollingCounter`] / [`RollingHistogram`] — sliding-window
//!   instruments (a ring of K sub-windows over an explicit clock) for
//!   "last 30 seconds" views next to the cumulative ones.
//! * [`ProcessStats`] / [`ResourceSampler`] — process resource readings
//!   from `/proc` behind the `process_*` gauges a server exports.
//!
//! Instrument handles resolve their storage once — hot loops should
//! resolve outside the loop and reuse the handle; each record is then
//! lock-free.
//!
//! ```
//! use whart_obs::Metrics;
//!
//! let metrics = Metrics::new();
//! metrics.counter("engine.path_cache.hits").add(3);
//! metrics.histogram("solver.fast.solve_ns").record(1_250);
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.counter("engine.path_cache.hits"), Some(3));
//! assert_eq!(snapshot.histogram("solver.fast.solve_ns").unwrap().count, 1);
//!
//! // Disabled: same call sites, no effect, no cost beyond one branch.
//! let off = Metrics::disabled();
//! off.counter("engine.path_cache.hits").add(3);
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod process;
pub mod prometheus;
mod snapshot;
pub mod window;

pub use histogram::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
pub use process::{ProcessStats, ResourceSampler};
pub use snapshot::MetricsSnapshot;
pub use window::{RollingCounter, RollingHistogram, DEFAULT_SUB_WINDOWS};

use histogram::HistogramCore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The named-instrument registry behind an enabled [`Metrics`] handle.
#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramCore>>>,
}

/// A cloneable handle to a metrics registry, or a no-op stand-in.
///
/// Cloning shares the registry: instruments resolved through any clone
/// land in the same snapshot. The default handle is disabled.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
}

impl Metrics {
    /// A fresh, enabled registry.
    pub fn new() -> Metrics {
        Metrics {
            registry: Some(Arc::new(Registry::default())),
        }
    }

    /// The no-op handle: every instrument resolved through it records
    /// nothing and costs one branch per operation.
    pub fn disabled() -> Metrics {
        Metrics { registry: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.registry.as_ref().map(|r| {
                let mut counters = r.counters.lock().expect("metrics lock");
                Arc::clone(counters.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.registry.as_ref().map(|r| {
                let mut gauges = r.gauges.lock().expect("metrics lock");
                Arc::clone(gauges.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            core: self.registry.as_ref().map(|r| {
                let mut histograms = r.histograms.lock().expect("metrics lock");
                Arc::clone(histograms.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// A point-in-time copy of every instrument. Empty for disabled
    /// handles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(registry) = &self.registry else {
            return MetricsSnapshot::default();
        };
        let counters = registry
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = registry
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = registry
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A monotone event counter.
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    pub fn increment(&self) {
        self.add(1);
    }
}

/// A last-written / running-max value.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the value to `value` if larger.
    pub fn record_max(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }
}

/// A fixed log2-bucket histogram of non-negative values (latencies in
/// nanoseconds, sizes, counts). The default histogram is disabled.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Whether this histogram records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let metrics = Metrics::new();
        let a = metrics.counter("events");
        let b = metrics.clone().counter("events");
        a.add(2);
        b.increment();
        assert_eq!(metrics.snapshot().counter("events"), Some(3));
    }

    #[test]
    fn gauges_set_and_max() {
        let metrics = Metrics::new();
        let g = metrics.gauge("depth");
        g.set(5);
        g.record_max(3);
        assert_eq!(metrics.snapshot().gauge("depth"), Some(5));
        g.record_max(9);
        assert_eq!(metrics.snapshot().gauge("depth"), Some(9));
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let metrics = Metrics::disabled();
        assert!(!metrics.is_enabled());
        metrics.counter("c").add(7);
        metrics.gauge("g").set(7);
        metrics.histogram("h").record(7);
        assert!(!metrics.histogram("h").is_enabled());
        assert!(metrics.snapshot().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Metrics::default().is_enabled());
    }
}
