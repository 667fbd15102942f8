//! `whart-stress`: an HTTP load harness for `whart serve`.
//!
//! Two generation modes drive the server:
//!
//! - **Open loop** (`rate: Some(r)`): arrivals are scheduled on a fixed
//!   grid at `r` requests/second, independent of how fast the server
//!   answers. Latency is measured from the *scheduled* arrival time, not
//!   the send time, so a stalled server inflates the tail instead of
//!   silently thinning the load (coordinated-omission correction).
//! - **Closed loop** (`rate: None`): every connection issues requests
//!   back-to-back as fast as responses return, optionally pipelined.
//!   This measures the ceiling — and is how the keep-alive vs
//!   `Connection: close` speedup is established.
//!
//! Latencies land in a `whart-obs` log2 histogram; [`StressOutcome`]
//! carries the snapshot plus request/error counts. `report` turns
//! outcomes into `BENCH_serve.json` lines and gates them against a
//! committed baseline, mirroring `bench-engine --check`.
//!
//! The generator is itself instrumented with profiler activity frames
//! (`stress.open_loop` / `stress.closed_loop` on named
//! `whart-stress-{i}` worker threads): [`run_instrumented`] under a
//! live capture shows where the *client* spends its time, which is how
//! you prove a disappointing throughput number is the server's fault
//! and not the harness saturating first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod report;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use whart_obs::{HistogramSnapshot, Metrics};
use whart_trace::{Instruments, SpanNames};

use crate::client::{HttpClient, HttpResponse};

/// One load-generation run against a single endpoint.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Server address, `ip:port`.
    pub addr: String,
    /// Request target, e.g. `/v1/analyze`.
    pub endpoint: String,
    /// Request method.
    pub method: String,
    /// Request body sent with every request.
    pub body: Vec<u8>,
    /// Target arrival rate in requests/second (open loop), or `None`
    /// for closed-loop maximum throughput.
    pub rate: Option<f64>,
    /// How long to generate load for.
    pub duration: Duration,
    /// Number of concurrent connections (worker threads).
    pub connections: usize,
    /// Reuse connections across requests (HTTP keep-alive).
    pub keep_alive: bool,
    /// Closed-loop pipelining depth per connection: how many requests
    /// may be in flight on one connection before reading a response.
    /// Only effective with `keep_alive`; open-loop mode ignores it.
    pub pipeline: usize,
}

impl StressConfig {
    /// A closed-loop keep-alive config with defaults matching the CLI.
    pub fn closed_loop(addr: impl Into<String>, endpoint: impl Into<String>) -> StressConfig {
        StressConfig {
            addr: addr.into(),
            endpoint: endpoint.into(),
            method: "GET".to_string(),
            body: Vec::new(),
            rate: None,
            duration: Duration::from_secs(10),
            connections: 4,
            keep_alive: true,
            pipeline: 32,
        }
    }
}

/// How many error correlation ids a run retains: enough to look the
/// failures up in the server's request log and flight recorder, small
/// enough to print.
pub const MAX_ERROR_IDS: usize = 16;

/// The slowest completed request of a run, by end-to-end latency.
#[derive(Debug, Clone)]
pub struct SlowestRequest {
    /// Its measured latency.
    pub latency: Duration,
    /// Its `X-Request-Id` (`-` when the server sent none) — the handle
    /// for `GET /v1/debug/requests/<id>` on the server.
    pub id: String,
}

/// Aggregated result of one run.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// Per-request latency distribution, nanoseconds.
    pub latency: HistogramSnapshot,
    /// Requests that completed with a non-5xx response.
    pub requests: u64,
    /// Requests that failed (transport error or 5xx status).
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Connections the run used.
    pub connections: usize,
    /// `X-Request-Id`s of failed (5xx) responses, first
    /// [`MAX_ERROR_IDS`] seen. Transport errors carry no id.
    pub error_ids: Vec<String>,
    /// The slowest completed request, with its correlation id.
    pub slowest: Option<SlowestRequest>,
}

impl StressOutcome {
    /// Successful requests per second of wall-clock time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// Errors as a fraction of all attempted requests (0 when idle).
    pub fn error_rate(&self) -> f64 {
        let attempted = self.requests + self.errors;
        if attempted > 0 {
            self.errors as f64 / attempted as f64
        } else {
            0.0
        }
    }
}

/// Shared per-run counters the workers update.
struct Counters {
    metrics: Metrics,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Fast max-latency watermark so the notes mutex is only taken on a
    /// new slowest request or an error, never on the hot path.
    slowest_ns: AtomicU64,
    notes: Mutex<Notes>,
}

/// Correlation-id bookkeeping, updated off the hot path.
#[derive(Default)]
struct Notes {
    error_ids: Vec<String>,
    slowest: Option<SlowestRequest>,
}

const LATENCY_HISTOGRAM: &str = "stress.latency_ns";

/// Runs one load generation pass and aggregates the outcome.
///
/// # Errors
///
/// Invalid configuration (zero connections, non-positive rate), or every
/// single request failing — which almost always means the address is
/// wrong or the server is down, and deserves a hard error rather than a
/// 100% error-rate report.
pub fn run(config: &StressConfig) -> Result<StressOutcome, String> {
    run_instrumented(config, &Instruments::default())
}

/// [`run`], with the generator's own hot loops published to the
/// instruments' profiler as activity frames. Each worker thread is
/// named `whart-stress-{i}` and spends its life inside a
/// `stress.open_loop` or `stress.closed_loop` frame, so a capture taken
/// during the run attributes every sampled tick to the generation mode
/// that burned it. With disabled instruments this is exactly [`run`].
///
/// # Errors
///
/// Same as [`run`].
pub fn run_instrumented(
    config: &StressConfig,
    instruments: &Instruments,
) -> Result<StressOutcome, String> {
    if config.connections == 0 {
        return Err("connections must be at least 1".to_string());
    }
    if let Some(rate) = config.rate {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("rate must be a positive number, got {rate}"));
        }
    }
    if config.pipeline == 0 {
        return Err("pipeline depth must be at least 1".to_string());
    }

    let counters = Arc::new(Counters {
        metrics: Metrics::new(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        slowest_ns: AtomicU64::new(0),
        notes: Mutex::new(Notes::default()),
    });
    let mode = SpanNames::frame(match config.rate {
        Some(_) => "stress.open_loop",
        None => "stress.closed_loop",
    });
    let start = Instant::now();
    let workers: Vec<_> = (0..config.connections)
        .map(|worker| {
            let config = config.clone();
            let counters = Arc::clone(&counters);
            let instruments = instruments.clone();
            std::thread::Builder::new()
                .name(format!("whart-stress-{worker}"))
                .spawn(move || {
                    let _mode = instruments.span_with(mode);
                    match config.rate {
                        Some(rate) => open_loop_worker(&config, rate, worker, start, &counters),
                        None => closed_loop_worker(&config, start, &counters),
                    }
                })
                .expect("spawn stress worker thread")
        })
        .collect();
    for worker in workers {
        worker
            .join()
            .map_err(|_| "stress worker panicked".to_string())?;
    }
    let elapsed = start.elapsed();

    let requests = counters.requests.load(Ordering::Relaxed);
    let errors = counters.errors.load(Ordering::Relaxed);
    if requests == 0 {
        return Err(format!(
            "no request against {} succeeded ({errors} errors) — is the server up?",
            config.addr
        ));
    }
    let snapshot = counters.metrics.snapshot();
    let latency = snapshot
        .histogram(LATENCY_HISTOGRAM)
        .cloned()
        .ok_or_else(|| "latency histogram missing from metrics snapshot".to_string())?;
    let notes = std::mem::take(&mut *counters.notes.lock().map_err(|_| "notes poisoned")?);
    Ok(StressOutcome {
        latency,
        requests,
        errors,
        duration: elapsed,
        connections: config.connections,
        error_ids: notes.error_ids,
        slowest: notes.slowest,
    })
}

/// Records one completed exchange: non-5xx statuses count as successes.
/// Tracks the slowest request's correlation id and the ids of failed
/// responses so a run's outliers can be looked up on the server.
fn record(counters: &Counters, response: &HttpResponse, latency: Duration) {
    let id = || response.request_id.clone().unwrap_or_else(|| "-".into());
    if response.status < 500 {
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let ns = latency.as_nanos() as u64;
        counters.metrics.histogram(LATENCY_HISTOGRAM).record(ns);
        if ns > counters.slowest_ns.fetch_max(ns, Ordering::Relaxed) {
            let mut notes = counters.notes.lock().expect("stress notes");
            let is_new_max = match &notes.slowest {
                Some(slowest) => latency > slowest.latency,
                None => true,
            };
            if is_new_max {
                notes.slowest = Some(SlowestRequest { latency, id: id() });
            }
        }
    } else {
        counters.errors.fetch_add(1, Ordering::Relaxed);
        let mut notes = counters.notes.lock().expect("stress notes");
        if notes.error_ids.len() < MAX_ERROR_IDS {
            notes.error_ids.push(id());
        }
    }
}

/// Open loop: worker `w` owns arrivals `w, w + C, w + 2C, ...` on the
/// global schedule `start + i / rate`. Requests are issued sequentially
/// per connection; latency runs from the scheduled arrival so queueing
/// behind a slow server shows up in the measurement.
fn open_loop_worker(
    config: &StressConfig,
    rate: f64,
    worker: usize,
    start: Instant,
    counters: &Counters,
) {
    let total = (rate * config.duration.as_secs_f64()).floor() as u64;
    let mut client = HttpClient::new(config.addr.clone(), config.keep_alive);
    let mut arrival = worker as u64;
    while arrival < total {
        let scheduled = start + Duration::from_secs_f64(arrival as f64 / rate);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        match client.request(&config.method, &config.endpoint, &config.body) {
            Ok(response) => record(counters, &response, scheduled.elapsed()),
            Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        arrival += config.connections as u64;
    }
}

/// Closed loop: issue requests back-to-back until the deadline.
///
/// With keep-alive and `pipeline > 1` the worker runs in batches: one
/// buffered write of `pipeline` requests (a single syscall — see
/// [`HttpClient::send_batch`]), then `pipeline` reads. Each response's
/// latency runs from the batch send instant, which over-counts early
/// responses slightly and is exactly right for the last — conservative
/// for a throughput-ceiling measurement. Without keep-alive (or at
/// depth 1) requests go one at a time.
fn closed_loop_worker(config: &StressConfig, start: Instant, counters: &Counters) {
    let deadline = start + config.duration;
    let mut client = HttpClient::new(config.addr.clone(), config.keep_alive);
    let depth = if config.keep_alive {
        config.pipeline
    } else {
        1
    };
    while Instant::now() < deadline {
        let sent = Instant::now();
        let dispatched = if depth == 1 {
            client
                .send(&config.method, &config.endpoint, &config.body)
                .map(|()| 1)
        } else {
            client
                .send_batch(&config.method, &config.endpoint, &config.body, depth)
                .map(|()| depth)
        };
        let dispatched = match dispatched {
            Ok(n) => n,
            Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                // Back off instead of hot-spinning against a dead server.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        let mut pending = dispatched;
        while pending > 0 {
            pending -= 1;
            match client.recv() {
                Ok(response) => record(counters, &response, sent.elapsed()),
                Err(_) => {
                    // The rest of the pipeline is lost with the connection.
                    counters
                        .errors
                        .fetch_add(1 + pending as u64, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_trace::Profiler;

    fn response(status: u16, request_id: Option<&str>) -> HttpResponse {
        HttpResponse {
            status,
            body: Vec::new(),
            close: false,
            request_id: request_id.map(String::from),
        }
    }

    #[test]
    fn record_tracks_error_ids_and_the_slowest_request() {
        let counters = Counters {
            metrics: Metrics::new(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            slowest_ns: AtomicU64::new(0),
            notes: Mutex::new(Notes::default()),
        };
        record(
            &counters,
            &response(200, Some("ok-1")),
            Duration::from_millis(2),
        );
        record(
            &counters,
            &response(200, Some("ok-2")),
            Duration::from_millis(9),
        );
        record(
            &counters,
            &response(200, Some("ok-3")),
            Duration::from_millis(4),
        );
        record(
            &counters,
            &response(500, Some("boom-1")),
            Duration::from_millis(1),
        );
        record(&counters, &response(503, None), Duration::from_millis(1));
        for i in 0..(2 * MAX_ERROR_IDS) {
            record(
                &counters,
                &response(500, Some(&format!("flood-{i}"))),
                Duration::from_millis(1),
            );
        }

        assert_eq!(counters.requests.load(Ordering::Relaxed), 3);
        assert_eq!(
            counters.errors.load(Ordering::Relaxed),
            2 + 2 * MAX_ERROR_IDS as u64
        );
        let notes = counters.notes.lock().unwrap();
        let slowest = notes.slowest.as_ref().expect("slowest recorded");
        assert_eq!(slowest.id, "ok-2");
        assert_eq!(slowest.latency, Duration::from_millis(9));
        // Errors keep their ids (transport-less `-` for missing ones),
        // capped at MAX_ERROR_IDS.
        assert_eq!(notes.error_ids.len(), MAX_ERROR_IDS);
        assert_eq!(notes.error_ids[0], "boom-1");
        assert_eq!(notes.error_ids[1], "-");
        assert_eq!(notes.error_ids[2], "flood-0");
    }

    #[test]
    fn profiled_run_attributes_worker_time_to_stress_frames() {
        use std::io::{Read as _, Write as _};
        // A minimal keep-alive server: answer every request head on one
        // connection until the client hangs up.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut pending: Vec<u8> = Vec::new();
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => pending.extend_from_slice(&buf[..n]),
                }
                while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    pending.drain(..end + 4);
                    let response =
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
                    if stream.write_all(response).is_err() {
                        return;
                    }
                }
            }
        });

        let instruments = Instruments {
            profiler: Profiler::new(),
            ..Instruments::default()
        };
        let capture = instruments
            .profiler
            .start_capture(4000)
            .expect("enabled profiler");
        let config = StressConfig {
            addr,
            endpoint: "/x".to_string(),
            method: "GET".to_string(),
            body: Vec::new(),
            rate: None,
            duration: Duration::from_millis(300),
            connections: 1,
            keep_alive: true,
            pipeline: 1,
        };
        let outcome = run_instrumented(&config, &instruments).unwrap();
        let profile = capture.stop();
        server.join().unwrap();

        assert!(outcome.requests > 0, "{outcome:?}");
        // The worker lives inside the mode frame on a named thread, so
        // a 300 ms capture at 4 kHz cannot miss it.
        assert!(
            profile.frame_total("stress.closed_loop") > 0,
            "{}",
            profile.to_folded()
        );
        assert!(profile.thread_samples("whart-stress-") > 0);
        // The plain entry point stays unprofiled: same run, inert handle.
        let disabled = Profiler::disabled();
        assert!(disabled.start_capture(4000).is_none());
    }
}
