//! `whart-ledger` — the repository benchmark.
//!
//! ```text
//! whart-ledger --workload fleet|whatif|serve-mix|oracle --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run is
//! untraced and reports the end-to-end metrics; with `--trace 1` the
//! benchmark wraps its own calls into each layer in spans and reports the
//! per-layer metrics. Outputs are checked in both modes; the last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}`.
//! `whart-ledger whart <args...>` runs the `whart` command line in this
//! process; the `serve-mix` workload spawns its server that way.

mod common;
mod fleet;
mod oracle;
mod probes;
mod serve_mix;
mod whatif;

use std::process::ExitCode;
use std::time::Duration;

use whart_json::Json;

/// Workload parameters shared by every workload.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn flag(args: &[String], name: &str) -> Result<String, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{name} needs a value"))
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let workload = flag(args, "--workload")?;
    let seed = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag(args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok((
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
        },
    ))
}

fn metric_map(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::object(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("whart") {
        return match whart_cli::run(&args[1..]) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("whart-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "fleet" => fleet::run(&config),
        "whatif" => whatif::run(&config),
        "serve-mix" => serve_mix::run(&config),
        "oracle" => oracle::run(&config),
        other => Err(format!("unknown workload '{other}'")),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("whart-ledger: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    common::check_counts(&workload, config.seed, &mut report);
    if config.trace {
        probes::finish_layers(&mut report);
    }
    for failure in &report.failures {
        eprintln!("whart-ledger: {workload}: check failed: {failure}");
    }
    // The ledger line: error rate and exact work counts, which the result
    // line below has no room for.
    let counts = Json::object(
        report
            .counts
            .iter()
            .map(|(&name, &value)| (name, Json::from(value))),
    );
    let ledger = Json::object([
        ("workload", Json::from(workload.as_str())),
        ("seed", Json::from(config.seed)),
        ("trace", Json::from(config.trace)),
        (
            "error_rate",
            Json::from(report.failed as f64 / report.attempted.max(1) as f64),
        ),
        ("counts", counts),
    ]);
    println!("{}", ledger.to_compact());
    let metrics = if config.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    let result = Json::object([
        ("correct", Json::from(report.failed == 0)),
        ("attempted", Json::from(report.attempted.max(1))),
        ("failed", Json::from(report.failed)),
        ("metrics", metric_map(metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
