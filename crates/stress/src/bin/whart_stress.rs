//! `whart-stress` — HTTP load generator and SLO gate for `whart serve`.
//!
//! ```text
//! whart-stress --addr 127.0.0.1:8080 [--endpoint /v1/analyze]
//!              [--method POST] [--body-file spec.json]
//!              [--rate R] [--duration D] [--connections C]
//!              [--pipeline P] [--warmup W] [--compare-close]
//!              [--out BENCH_serve.json] [--check BENCH_serve.json]
//!              [--tolerance 0.25] [--profile client.folded]
//! ```
//!
//! With `--rate R` the run is open loop at R requests/second; without
//! it, closed loop at maximum throughput. `--compare-close` appends two
//! short closed-loop runs (keep-alive and `Connection: close`) plus the
//! keep-alive speedup row. `--check` gates the fresh run against a
//! committed baseline and exits nonzero on violation, exactly like
//! `bench-engine --check`. `--profile` samples the *generator's own*
//! worker threads for the whole invocation and writes a flamegraph
//! collapsed profile (or JSON, with a `.json` path) — the evidence that
//! a flat throughput number saturated the server and not the client.

use std::process::ExitCode;
use std::time::Duration;

use whart_stress::report;
use whart_stress::{run_instrumented, StressConfig, StressOutcome};
use whart_trace::{Instruments, Profiler};

const USAGE: &str = "usage: whart-stress --addr HOST:PORT [--endpoint /v1/analyze] \
[--method POST] [--body-file FILE] [--rate R] [--duration SECONDS] \
[--connections N] [--pipeline N] [--warmup SECONDS] [--compare-close] \
[--out FILE] [--check BASELINE] [--tolerance 0.25] [--profile FILE]";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got '{v}'")),
    }
}

fn positive_seconds(args: &[String], flag: &str, default: f64) -> Result<Duration, String> {
    let seconds: f64 = parse_flag(args, flag, default)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!(
            "{flag} expects a positive number of seconds, got {seconds}"
        ));
    }
    Ok(Duration::from_secs_f64(seconds))
}

/// Runs the harness; `Ok(true)` = pass, `Ok(false)` = SLO violations.
/// Prints one run's correlation-id notes: the slowest request and any
/// failed requests, by `X-Request-Id` — the handles for looking them up
/// in the server's request log and `GET /v1/debug/requests/<id>`.
fn report_request_ids(label: &str, outcome: &StressOutcome) {
    if let Some(slowest) = &outcome.slowest {
        eprintln!(
            "{label}: slowest request {:.3} ms (X-Request-Id {})",
            slowest.latency.as_secs_f64() * 1e3,
            slowest.id
        );
    }
    if !outcome.error_ids.is_empty() {
        eprintln!(
            "{label}: {} error(s); X-Request-Id of the first {}: {}",
            outcome.errors,
            outcome.error_ids.len(),
            outcome.error_ids.join(" ")
        );
    }
}

fn run_cli(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let addr = flag_value(args, "--addr")
        .ok_or_else(|| format!("--addr is required\n{USAGE}"))?
        .to_string();
    let endpoint = flag_value(args, "--endpoint")
        .unwrap_or("/v1/analyze")
        .to_string();
    let method = flag_value(args, "--method").unwrap_or("POST").to_string();
    let body = match flag_value(args, "--body-file") {
        Some(path) => {
            std::fs::read(path).map_err(|e| format!("reading --body-file {path}: {e}"))?
        }
        None => Vec::new(),
    };
    let rate = match flag_value(args, "--rate") {
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0)
                .ok_or_else(|| format!("--rate expects a positive number, got '{v}'"))?,
        ),
        None => None,
    };
    let duration = positive_seconds(args, "--duration", 10.0)?;
    let connections: usize = parse_flag(args, "--connections", 4)?;
    let pipeline: usize = parse_flag(args, "--pipeline", 32)?;
    let warmup = match flag_value(args, "--warmup") {
        Some(_) => Some(positive_seconds(args, "--warmup", 0.0)?),
        None => None,
    };
    let compare_close = args.iter().any(|a| a == "--compare-close");
    let out = flag_value(args, "--out");
    let check = flag_value(args, "--check");
    let tolerance: f64 = parse_flag(args, "--tolerance", 0.25)?;
    let profile_path = flag_value(args, "--profile");
    if let (Some(out), Some(check)) = (out, check) {
        if out == check {
            return Err(format!(
                "--out and --check both name '{out}': refusing to overwrite the \
                 baseline with the run being checked against it"
            ));
        }
    }

    let config = StressConfig {
        addr,
        endpoint,
        method,
        body,
        rate,
        duration,
        connections,
        keep_alive: true,
        pipeline,
    };

    // Self-profiling covers the whole invocation (warmup, main run and
    // the --compare-close ceilings) so the written profile attributes
    // every worker's time across all the passes.
    let instruments = Instruments {
        profiler: match profile_path {
            Some(_) => Profiler::new(),
            None => Profiler::disabled(),
        },
        ..Instruments::default()
    };
    let capture = instruments.profiler.start_capture(whart_trace::DEFAULT_HZ);

    if let Some(warmup) = warmup {
        // Untimed closed-loop pass: fills caches and gets past the
        // first-request JIT-like costs (allocator warm-up, page faults).
        eprintln!("warming up for {:.1}s ...", warmup.as_secs_f64());
        run_instrumented(
            &StressConfig {
                rate: None,
                duration: warmup,
                ..config.clone()
            },
            &instruments,
        )?;
    }

    let mut lines = String::new();
    eprintln!(
        "running {} for {:.1}s over {} connection(s) ...",
        match config.rate {
            Some(r) => format!("open loop at {r} req/s"),
            None => "closed loop at max rate".to_string(),
        },
        config.duration.as_secs_f64(),
        config.connections,
    );
    let main_outcome = run_instrumented(&config, &instruments)?;
    let id = report::row_id(&config.endpoint, config.keep_alive, config.rate);
    report_request_ids(&id, &main_outcome);
    lines.push_str(&report::stat_line(&id, &main_outcome));
    lines.push('\n');

    if compare_close {
        // Short closed-loop ceiling runs in both connection modes; the
        // ratio of their throughputs is the keep-alive speedup row.
        let ceiling = |keep_alive: bool| {
            run_instrumented(
                &StressConfig {
                    rate: None,
                    duration: Duration::from_secs(3),
                    keep_alive,
                    ..config.clone()
                },
                &instruments,
            )
        };
        eprintln!("comparing keep-alive vs Connection: close at max rate ...");
        let keepalive_max = ceiling(true)?;
        let close_max = ceiling(false)?;
        let ka_id = report::row_id(&config.endpoint, true, None);
        let close_id = report::row_id(&config.endpoint, false, None);
        report_request_ids(&ka_id, &keepalive_max);
        report_request_ids(&close_id, &close_max);
        lines.push_str(&report::stat_line(&ka_id, &keepalive_max));
        lines.push('\n');
        lines.push_str(&report::stat_line(&close_id, &close_max));
        lines.push('\n');
        lines.push_str(&report::speedup_line(
            &config.endpoint,
            &keepalive_max,
            &close_max,
        ));
        lines.push('\n');
        eprintln!(
            "keep-alive {:.0} rps vs close {:.0} rps ({:.1}x)",
            keepalive_max.throughput_rps(),
            close_max.throughput_rps(),
            keepalive_max.throughput_rps() / close_max.throughput_rps().max(1e-9),
        );
    }

    match out {
        Some(path) => {
            std::fs::write(path, &lines).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{lines}"),
    }

    if let (Some(path), Some(capture)) = (profile_path, capture) {
        let profile = capture.stop();
        let text = if path.ends_with(".json") {
            let mut text = profile.to_json().to_pretty();
            text.push('\n');
            text
        } else {
            profile.to_folded()
        };
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote client profile to {path} ({} samples)",
            profile.total_samples()
        );
    }

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading baseline {baseline_path}: {e}"))?;
        let failures = report::check_slo(&baseline, &lines, tolerance)?;
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("SLO violation: {failure}");
            }
            return Ok(false);
        }
        eprintln!("SLO check passed against {baseline_path}");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("whart-stress: {message}");
            ExitCode::FAILURE
        }
    }
}
