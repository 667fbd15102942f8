//! The instrumentation spine: one [`Instruments`] handle carrying the
//! metrics registry, the trace journal and the profiler, and one
//! [`Span`] guard that feeds whichever of them are enabled.

use std::time::{Duration, Instant};

use whart_obs::{Histogram, Metrics};

use crate::event::ArgValue;
use crate::journal::{OpenEvent, Trace};
use crate::prof::{ActivityGuard, Profiler};

/// The three sinks an instrumented call site reports into. Cloning
/// shares them; the default has all three disabled, so every span
/// resolved through it costs a few branches.
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// Counters, gauges and latency histograms.
    pub metrics: Metrics,
    /// The structured event journal.
    pub trace: Trace,
    /// The sampling profiler's activity stacks.
    pub profiler: Profiler,
}

/// The names one span site reports under, sink by sink; `None` skips
/// that sink. [`Instruments::span`] covers the common pattern; sites
/// whose names do not follow it spell them out here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanNames {
    /// Trace category of the event.
    pub cat: &'static str,
    /// Trace event name.
    pub event: Option<&'static str>,
    /// Profiler frame label.
    pub frame: Option<&'static str>,
    /// Histogram receiving the elapsed nanoseconds.
    pub histogram: Option<&'static str>,
}

impl SpanNames {
    /// A trace event `name` in category `cat`, and no other sink.
    pub const fn event(cat: &'static str, name: &'static str) -> SpanNames {
        SpanNames {
            cat,
            event: Some(name),
            frame: None,
            histogram: None,
        }
    }

    /// A profiler frame, and no other sink.
    pub const fn frame(label: &'static str) -> SpanNames {
        SpanNames {
            cat: "",
            event: None,
            frame: Some(label),
            histogram: None,
        }
    }

    /// A latency histogram, and no other sink.
    pub const fn histogram(name: &'static str) -> SpanNames {
        SpanNames {
            cat: "",
            event: None,
            frame: None,
            histogram: Some(name),
        }
    }

    /// These names plus a profiler frame.
    pub const fn with_frame(mut self, label: &'static str) -> SpanNames {
        self.frame = Some(label);
        self
    }

    /// These names plus a latency histogram.
    pub const fn with_histogram(mut self, name: &'static str) -> SpanNames {
        self.histogram = Some(name);
        self
    }
}

impl Instruments {
    /// Opens the span `name` in category `cat` on every sink: trace event
    /// `(name, cat)`, profiler frame `{cat}.{name}` and histogram
    /// `{cat}.{name}_ns`. The span is always timed, so [`Span::finish`]
    /// reports its duration even with every sink disabled.
    ///
    /// ```
    /// use whart_trace::{Instruments, Trace};
    /// use whart_obs::Metrics;
    ///
    /// let instruments = Instruments {
    ///     metrics: Metrics::new(),
    ///     trace: Trace::new(),
    ///     ..Instruments::default()
    /// };
    /// let mut span = instruments.span("engine", "plan");
    /// span.arg("scenarios", 3u64);
    /// let elapsed = span.finish();
    /// let snapshot = instruments.metrics.snapshot();
    /// assert_eq!(snapshot.histogram("engine.plan_ns").unwrap().count, 1);
    /// let log = instruments.trace.drain();
    /// assert_eq!(log.events[0].dur_ns(), elapsed.as_nanos() as u64);
    /// ```
    pub fn span(&self, cat: &'static str, name: &'static str) -> Span {
        let histogram = if self.metrics.is_enabled() {
            self.metrics.histogram(&format!("{cat}.{name}_ns"))
        } else {
            Histogram::default()
        };
        self.open(cat, Some(name), Some((cat, name)), histogram, true)
    }

    /// Opens a span reporting under explicit per-sink `names`. It reads
    /// the clock only when an enabled journal or histogram will use the
    /// reading, so a site whose sinks are all disabled costs no clock
    /// read.
    pub fn span_with(&self, names: SpanNames) -> Span {
        let histogram = match names.histogram {
            Some(name) if self.metrics.is_enabled() => self.metrics.histogram(name),
            _ => Histogram::default(),
        };
        self.open(
            names.cat,
            names.event,
            names.frame.map(|f| (f, "")),
            histogram,
            false,
        )
    }

    fn open(
        &self,
        cat: &'static str,
        event: Option<&'static str>,
        frame: Option<(&'static str, &'static str)>,
        histogram: Histogram,
        timed: bool,
    ) -> Span {
        let event = event.filter(|_| self.trace.is_enabled());
        let timed = timed || event.is_some() || histogram.is_enabled();
        let start = timed.then(Instant::now);
        Span {
            start,
            frame: frame.and_then(|(prefix, name)| self.profiler.enter(prefix, name)),
            event: start.and_then(|at| self.trace.open(event?, cat, at)),
            histogram,
            closed: false,
        }
    }
}

/// A scoped span: pushes its profiler frame on entry, and on exit pops
/// it, records the elapsed nanoseconds into its histogram and emits its
/// trace event. A timed span reads the clock once on entry and once on
/// exit.
pub struct Span {
    /// The entry time; `None` for an untimed span.
    start: Option<Instant>,
    frame: Option<ActivityGuard>,
    event: Option<OpenEvent>,
    histogram: Histogram,
    closed: bool,
}

impl Span {
    /// Whether the span emits a trace event; guard expensive argument
    /// values with this.
    pub fn is_recording(&self) -> bool {
        self.event.is_some()
    }

    /// Attaches a typed argument to the trace event. When the span is
    /// not recording the value is not converted.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(event) = &mut self.event {
            event.args.push((key, value.into()));
        }
    }

    /// Ends the span now and returns its elapsed time, zero for an
    /// untimed span (dropping ends it too).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.map_or(Duration::ZERO, |start| start.elapsed());
        self.closed = true;
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.frame = None;
        self.histogram.record(nanos);
        if let Some(event) = self.event.take() {
            event.close(nanos);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> Instruments {
        Instruments {
            metrics: Metrics::new(),
            trace: Trace::new(),
            profiler: Profiler::new(),
        }
    }

    #[test]
    fn one_span_feeds_every_enabled_sink_under_derived_names() {
        let instruments = enabled();
        let capture = instruments.profiler.start_capture(4000).unwrap();
        {
            let mut span = instruments.span("engine", "plan");
            assert!(span.is_recording());
            span.arg("scenarios", 2u64);
            std::thread::sleep(Duration::from_millis(20));
        }
        let profile = capture.stop();
        assert!(profile.frame_total("engine.plan") > 0, "{profile:?}");
        let snapshot = instruments.metrics.snapshot();
        assert_eq!(snapshot.histogram("engine.plan_ns").unwrap().count, 1);
        let log = instruments.trace.drain();
        assert_eq!(log.len(), 1);
        assert_eq!(
            (log.events[0].name.as_str(), log.events[0].cat),
            ("plan", "engine")
        );
        assert_eq!(
            log.events[0].arg("scenarios").and_then(ArgValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn explicit_names_feed_only_the_sinks_they_name() {
        let instruments = enabled();
        let names =
            SpanNames::event("solver.fast", "path_solve").with_histogram("solver.fast.solve_ns");
        instruments.span_with(names).finish();
        instruments
            .span_with(SpanNames::frame("cache.path_get"))
            .finish();
        let snapshot = instruments.metrics.snapshot();
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histogram("solver.fast.solve_ns").unwrap().count, 1);
        let log = instruments.trace.drain();
        assert_eq!(log.len(), 1);
        assert_eq!(log.events[0].name, "path_solve");
    }

    #[test]
    fn finish_reports_the_duration_the_sinks_saw() {
        let instruments = enabled();
        let span = instruments.span("engine", "execute");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = span.finish();
        assert!(elapsed >= Duration::from_millis(2));
        let nanos = elapsed.as_nanos() as u64;
        let snapshot = instruments.metrics.snapshot();
        assert_eq!(snapshot.histogram("engine.execute_ns").unwrap().sum, nanos);
        assert_eq!(instruments.trace.drain().events[0].dur_ns(), nanos);
    }

    #[test]
    fn span_with_reads_no_clock_without_a_timed_sink() {
        let names = SpanNames::event("solver.fast", "path_solve")
            .with_frame("solver.fast")
            .with_histogram("solver.fast.solve_ns");
        let profiled = Instruments {
            profiler: Profiler::new(),
            ..Instruments::default()
        };
        for instruments in [Instruments::default(), profiled] {
            let span = instruments.span_with(names);
            assert!(span.start.is_none());
            assert_eq!(span.finish(), Duration::ZERO);
        }
        let traced = Instruments {
            trace: Trace::new(),
            ..Instruments::default()
        };
        assert!(traced.span_with(names).start.is_some());
    }

    #[test]
    fn disabled_instruments_still_time_the_span() {
        let instruments = Instruments::default();
        let mut span = instruments.span("engine", "assemble");
        assert!(!span.is_recording());
        span.arg("scenarios", 1u64);
        std::thread::sleep(Duration::from_millis(1));
        assert!(span.finish() >= Duration::from_millis(1));
        assert!(instruments.metrics.snapshot().is_empty());
        assert!(instruments.trace.drain().is_empty());
    }
}
