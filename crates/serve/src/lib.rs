//! whart-serve: a dependency-free HTTP/1.1 service framework for the
//! WirelessHART workspace.
//!
//! The `whart serve` subcommand wraps this crate around the evaluation
//! engine to form a long-running service whose caches stay warm across
//! requests. The framework itself knows nothing about network specs —
//! it provides the machinery a production-traffic internal service
//! needs, on `std` alone (consistent with the workspace's
//! offline/vendored dependency policy):
//!
//! * [`http`] — HTTP/1.1 request parsing and response writing:
//!   keep-alive/`Connection` semantics, hardened `Content-Length`
//!   validation, query strings, and chunked streaming for large
//!   response bodies.
//! * [`conn`] — persistent-connection framing: a cross-request receive
//!   buffer (pipelining) and deadline-bounded reads and writes.
//! * [`poll`] — readiness polling via a thin libc-free
//!   `poll(2)` shim, plus the wake pipe workers use to interrupt the
//!   event loop.
//! * [`router`] — exact-path routing with stable route labels for
//!   metric cardinality control.
//! * [`server`] — the event loop and worker pool: parked keep-alive
//!   connections, a bounded dispatch queue with `503` + `Retry-After`
//!   admission control, built-in `GET /healthz` / `GET /readyz` probes
//!   (health flips to 503 once drain begins), per-request metrics and
//!   trace spans on the shared [`whart_trace::Instruments`], and
//!   graceful shutdown that drains every dispatched connection before
//!   [`server::Server::serve`] returns.
//! * [`log`] — the request log: one JSON line per request, written to
//!   stdout, stderr or a file.
//! * [`signal`] — SIGINT observation (no libc dependency) so Ctrl-C
//!   triggers the same drain as `POST /admin/shutdown`.
//! * [`flight`] — the tail-sampled flight recorder: per-request hop
//!   timelines for the last N requests plus retained-slow outliers,
//!   addressable by correlation id.
//! * [`windows`] — per-route sliding-window rollups (requests, errors,
//!   latency quantiles, SLO misses) for `/statusz` and the
//!   `http.*.window30s` gauges.
//!
//! Every request is assigned (or propagates) an `X-Request-Id`
//! correlation id, returned on all responses — including protocol
//! errors and `503` queue-overflow rejections — and stamped on the
//! request's trace span, its request-log line, and its flight recorder
//! entry.
//!
//! ```no_run
//! use whart_serve::{Response, Router, Server, ServerConfig};
//!
//! let mut server = Server::bind(&ServerConfig::default()).unwrap();
//! let shutdown = server.shutdown();
//! server.set_router(Router::new().route("POST", "/admin/shutdown", move |_req| {
//!     shutdown.set();
//!     Response::text(202, "draining\n")
//! }));
//! server.ready().set(); // readiness usually flips after a self-check
//! server.serve().unwrap();
//! ```

#![deny(unsafe_code)] // `signal` and `poll` opt out locally for their shims.
#![warn(missing_docs)]

// The event loop polls raw descriptors and installs a POSIX signal
// handler; there is no other platform backend.
#[cfg(not(unix))]
compile_error!("whart-serve supports Unix targets only");

pub mod conn;
pub mod flight;
pub mod http;
pub mod log;
pub mod poll;
pub mod router;
pub mod server;
pub mod signal;
pub mod windows;

pub use flight::{FlightEntry, FlightRecorder};
pub use http::{Request, RequestError, Response};
pub use log::{Level, RequestLog};
pub use router::{Handler, Router};
pub use server::{next_request_id, Flag, Server, ServerConfig};
pub use windows::{HttpWindows, RouteWindow};
