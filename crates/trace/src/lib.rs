//! whart-trace: the workspace's instrumentation spine.
//!
//! One [`Instruments`] handle carries the three sinks an instrumented
//! call site can report into, and one [`Span`] guard feeds them:
//!
//! * **metrics** — the `whart-obs` registry answers *how much*
//!   (counters, log2 latency histograms);
//! * **trace** — the [`Trace`] journal answers *why* and *where*:
//!   hierarchical spans (scenario → compile → path solve → per-hop link
//!   resolution) and typed provenance events (per-hop `p_fl`/`p_rc`,
//!   per-cycle transition mass into goal/loss states, chain sizes,
//!   Monte-Carlo seeds), drained to JSONL or Chrome `trace_event` JSON
//!   (loadable in `chrome://tracing`/Perfetto);
//! * **profiler** — the [`Profiler`] answers *where the time goes*:
//!   per-thread activity stacks sampled into flamegraph-collapsed
//!   profiles.
//!
//! [`Instruments::span`] reads the clock once on entry and once on
//! exit, pushes the profiler frame `{cat}.{name}`, and on exit records
//! `{cat}.{name}_ns` and emits the trace event `(name, cat)` — each only
//! on the sinks that are enabled. Sites whose names do not follow that
//! pattern spell them out with [`SpanNames`].
//!
//! Every sink is disabled by default and then costs one `Option` branch
//! per site: no allocation, no lock. Enabled sinks keep their per-thread
//! state (journal buffers, activity slots) in one thread-local
//! registration, so the per-event hot path takes no lock; journal
//! chunks flush to the shared sink every [`FLUSH_CHUNK`] events and
//! when a thread exits. The journal is bounded: once `capacity` events
//! have been admitted between drains, further events are counted in
//! [`TraceLog::dropped`] instead of stored.
//!
//! Instrumentation must never perturb results: instrumented solves are
//! bit-identical to uninstrumented ones (asserted by the backend parity
//! tests in `whart-engine`).
//!
//! ```
//! use whart_trace::{Instruments, SpanNames, Trace};
//!
//! let instruments = Instruments {
//!     trace: Trace::new(),
//!     ..Instruments::default()
//! };
//! {
//!     let mut span = instruments.span_with(SpanNames::event("solver.fast", "solve"));
//!     span.arg("hops", 3u64);
//!     instruments
//!         .trace
//!         .instant("hop", "solver.fast", [("p_fl", 0.25.into())]);
//! }
//! let log = instruments.trace.drain();
//! assert_eq!(log.len(), 2);
//! assert!(log.to_jsonl().lines().count() == 2);
//!
//! // Disabled: same call sites, no effect, one branch each.
//! let off = Instruments::default();
//! assert!(!off.span("engine", "plan").is_recording());
//! assert!(off.trace.drain().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod instruments;
mod journal;
mod local;
pub mod prof;

pub use event::{ArgValue, Phase, TraceEvent, TraceLog};
pub use instruments::{Instruments, Span, SpanNames};
pub use journal::{ContextGuard, Trace, DEFAULT_CAPACITY, FLUSH_CHUNK};
pub use prof::{parse_folded, Capture, Profile, Profiler, ThreadProfile, DEFAULT_HZ};
