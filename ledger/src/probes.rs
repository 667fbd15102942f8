//! Per-layer probes: the benchmark times calls into each layer's public
//! functions on the workload's own meshes, and the canonical list of
//! per-layer metrics every traced run prints.

use std::hint::black_box;
use std::time::{Duration, Instant};

use whart_channel::{EbN0, LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
use whart_engine::{Engine, EngineStats, Scenario};
use whart_json::Json;
use whart_model::compose::{compose_cycle_probabilities, peer_cycle_probabilities};
use whart_model::{FastSolver, MeasurePlan, Solver};
use whart_trace::Trace;

use crate::common::{workers, Mesh, Report, Spans};

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("channel.link_ns", "ns"),
    ("core.compile_ns", "ns"),
    ("core.signature_ns", "ns"),
    ("core.fast_solve_ns", "ns"),
    ("core.fast_solves", "count"),
    ("core.fast_slot_steps", "count"),
    ("core.explicit_solve_ns", "ns"),
    ("core.explicit_states", "count"),
    ("core.compose_ns", "ns"),
    ("core.composes", "count"),
    ("dtmc.dense_bytes", "bytes"),
    ("sim.solve_ns", "ns"),
    ("sim.draws", "count"),
    ("engine.drain_ns", "ns"),
    ("engine.plan_share", "ratio"),
    ("engine.execute_share", "ratio"),
    ("engine.assemble_share", "ratio"),
    ("engine.solve_dedup_ratio", "ratio"),
    ("engine.path_hit_ratio", "ratio"),
    ("engine.link_hit_ratio", "ratio"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.stolen_tasks", "count"),
    ("opt.generate_ns", "ns"),
    ("opt.rounds", "count"),
    ("opt.candidates", "count"),
    ("json.parse_ns", "ns"),
    ("json.render_ns", "ns"),
    ("json.bytes_in", "bytes"),
    ("json.bytes_out", "bytes"),
    ("cli.analyze_ns", "ns"),
    ("serve.memo_rtt_us", "us"),
    ("serve.miss_rtt_ms", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.sched_lag_p95_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("work.paths_requested", "count"),
    ("work.distinct_solves", "count"),
    ("work.cache_hits", "count"),
    ("work.explicit_states", "count"),
    ("work.sim_draws", "count"),
    ("work.candidates", "count"),
    ("work.memo_hits", "count"),
    ("work.memo_misses", "count"),
];

/// Orders the report's per-layer metrics canonically, adds the exact
/// work counts, and fills every layer the workload did not touch with 0.
pub fn finish_layers(report: &mut Report) {
    let counts: Vec<(&'static str, f64)> = report
        .counts
        .iter()
        .map(|(&name, &value)| (name, value as f64))
        .collect();
    let measured = std::mem::take(&mut report.layers);
    for &(name, unit) in LAYERS {
        let value = measured
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .or_else(|| {
                let count = name.strip_prefix("work.")?;
                counts.iter().find(|c| c.0 == count).map(|c| c.1)
            })
            .unwrap_or(0.0);
        report.layer(name, if value.is_finite() { value } else { 0.0 }, unit);
    }
}

/// Sums engine counters and stage walls over several engines.
#[derive(Default, Clone)]
pub struct EngineTotals {
    pub drains: u64,
    pub drain_wall: Duration,
    pub stats: EngineStats,
}

impl EngineTotals {
    pub fn add(&mut self, s: &EngineStats, wall: Duration) {
        let t = &mut self.stats;
        self.drains += 1;
        self.drain_wall += wall;
        t.paths_requested += s.paths_requested;
        t.paths_evaluated += s.paths_evaluated;
        t.path_cache_hits += s.path_cache_hits;
        t.path_cache_misses += s.path_cache_misses;
        t.link_cache_hits += s.link_cache_hits;
        t.link_cache_misses += s.link_cache_misses;
        t.stolen_tasks += s.stolen_tasks;
        t.plan_wall += s.plan_wall;
        t.execute_wall += s.execute_wall;
        t.assemble_wall += s.assemble_wall;
        t.effective_workers = t.effective_workers.max(s.effective_workers);
    }

    /// The `engine.*` per-layer metrics (except parallel efficiency).
    pub fn emit(&self, report: &mut Report) {
        let s = &self.stats;
        let stages = s.total_wall().as_secs_f64();
        let share = |d: Duration| {
            if stages > 0.0 {
                d.as_secs_f64() / stages
            } else {
                0.0
            }
        };
        report.layer(
            "engine.drain_ns",
            self.drain_wall.as_secs_f64() * 1e9 / self.drains.max(1) as f64,
            "ns",
        );
        report.layer("engine.plan_share", share(s.plan_wall), "ratio");
        report.layer("engine.execute_share", share(s.execute_wall), "ratio");
        report.layer("engine.assemble_share", share(s.assemble_wall), "ratio");
        report.layer(
            "engine.solve_dedup_ratio",
            s.paths_evaluated as f64 / s.paths_requested.max(1) as f64,
            "ratio",
        );
        report.layer(
            "engine.path_hit_ratio",
            s.path_cache_hit_ratio().unwrap_or(0.0),
            "ratio",
        );
        report.layer(
            "engine.link_hit_ratio",
            s.link_cache_hit_ratio().unwrap_or(0.0),
            "ratio",
        );
        report.layer(
            "engine.stolen_tasks",
            s.stolen_tasks as f64 / self.drains.max(1) as f64,
            "count",
        );
    }
}

/// One cold drain of `meshes` on a fresh engine, optionally with a trace
/// journal attached the way `whart serve` runs its engines.
pub fn cold_drain(
    meshes: &[&Mesh],
    traced: bool,
) -> Result<(Vec<whart_engine::ScenarioResult>, EngineStats, Duration), String> {
    let start = Instant::now();
    let mut engine = Engine::new(workers());
    if traced {
        engine.set_trace(Trace::new());
    }
    for (i, mesh) in meshes.iter().enumerate() {
        engine.submit(Scenario::network(format!("s{i}"), mesh.model.clone()));
    }
    let results = engine.drain().map_err(|e| format!("drain: {e}"))?;
    Ok((results, engine.stats(), start.elapsed()))
}

/// Times the channel, core, json, cli, engine and trace layers on
/// `meshes`, recording spans and emitting their per-layer metrics.
/// `cli_sample` bounds how many meshes go through `whart analyze`.
/// Returns the totals of the probe's untraced drains.
pub fn run(
    meshes: &[&Mesh],
    spans: &mut Spans,
    report: &mut Report,
    cli_sample: usize,
) -> Result<EngineTotals, String> {
    let plan = MeasurePlan::SCALAR;
    let (mut link_calls, mut compiles, mut solves, mut slot_steps, mut composes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut bytes_in, mut bytes_out, mut cli_runs) = (0u64, 0u64, 0u64);
    let mut plain = EngineTotals::default();
    let mut traced_wall = Duration::ZERO;
    let dir = crate::common::work_dir()?;
    for (k, mesh) in meshes.iter().enumerate() {
        let links: Vec<(f64, f64)> = mesh
            .model
            .topology()
            .links()
            .map(|(_, l)| (l.availability(), l.p_rc()))
            .collect();
        spans.time("channel.link", |_| {
            for &(availability, p_rc) in &links {
                let snr = EbN0::from_linear(2.0 + 6.0 * availability);
                black_box(LinkModel::from_availability(availability, p_rc).ok());
                black_box(
                    LinkModel::from_snr(Modulation::Oqpsk, snr, WIRELESSHART_MESSAGE_BITS, p_rc)
                        .ok(),
                );
            }
        });
        link_calls += 2 * links.len() as u64;

        let model = &mesh.model;
        let problems = spans.time("core.compile", |_| {
            (0..model.paths().len())
                .map(|i| model.path_problem(i))
                .collect::<Result<Vec<_>, _>>()
        });
        let problems = problems.map_err(|e| format!("compile: {e}"))?;
        compiles += problems.len() as u64;
        spans.time("core.signature", |_| {
            for p in &problems {
                black_box(p.signature());
            }
        });
        let evals = spans.time("core.fast_solve", |_| {
            problems
                .iter()
                .map(|p| FastSolver.solve_path(p, plan))
                .collect::<Result<Vec<_>, _>>()
        });
        let evals = evals.map_err(|e| format!("fast solve: {e}"))?;
        solves += evals.len() as u64;
        slot_steps += problems
            .iter()
            .map(|p| u64::from(p.ttl()) * p.hop_count() as u64)
            .sum::<u64>();

        let interval = model.interval();
        let peers: Vec<_> = model
            .paths()
            .iter()
            .map(|path| {
                let hop = path.hops().next().expect("a path has a first hop");
                let link = model
                    .topology()
                    .link(hop.from, hop.to)
                    .expect("routes use existing links");
                peer_cycle_probabilities(link, interval)
            })
            .collect();
        spans.time("core.compose", |_| {
            for (peer, eval) in peers.iter().zip(&evals) {
                black_box(compose_cycle_probabilities(
                    peer,
                    eval.cycle_probabilities(),
                    interval,
                ));
            }
        });
        composes += evals.len() as u64;

        let parsed = spans.time("json.parse", |_| Json::parse(&mesh.spec));
        let parsed = parsed.map_err(|e| format!("parse spec: {e}"))?;
        let rendered = spans.time("json.render", |_| parsed.to_compact());
        report.check(rendered == mesh.spec, || {
            "spec JSON does not survive a parse/render round trip".into()
        });
        bytes_in += mesh.spec.len() as u64;
        bytes_out += rendered.len() as u64;

        // Alternate which drain runs first so warm caches favour neither.
        let single = [*mesh];
        for pass in 0..2 {
            let with_trace = (pass + k) % 2 == 1;
            let name = if with_trace {
                "trace.drain"
            } else {
                "engine.probe_drain"
            };
            let (_, stats, wall) = spans.time(name, |_| cold_drain(&single, with_trace))?;
            if with_trace {
                traced_wall += wall;
            } else {
                plain.add(&stats, wall);
            }
        }

        if k < cli_sample {
            let file = dir.join(format!("probe-{k}.json"));
            std::fs::write(&file, &mesh.spec).map_err(|e| format!("write spec: {e}"))?;
            let args = [
                "analyze".to_string(),
                file.display().to_string(),
                "--json".to_string(),
            ];
            let out = spans.time("cli.analyze", |_| whart_cli::run(&args));
            report.check(out.is_ok(), || format!("whart analyze failed: {out:?}"));
            cli_runs += 1;
        }
    }

    report.layer(
        "channel.link_ns",
        spans.per_call_ns("channel.link", link_calls),
        "ns",
    );
    report.layer(
        "core.compile_ns",
        spans.per_call_ns("core.compile", compiles),
        "ns",
    );
    report.layer(
        "core.signature_ns",
        spans.per_call_ns("core.signature", compiles),
        "ns",
    );
    report.layer(
        "core.fast_solve_ns",
        spans.per_call_ns("core.fast_solve", solves),
        "ns",
    );
    report.layer("core.fast_solves", solves as f64, "count");
    report.layer("core.fast_slot_steps", slot_steps as f64, "count");
    report.layer(
        "core.compose_ns",
        spans.per_call_ns("core.compose", composes),
        "ns",
    );
    report.layer("core.composes", composes as f64, "count");
    report.layer(
        "json.parse_ns",
        spans.per_call_ns("json.parse", meshes.len() as u64),
        "ns",
    );
    report.layer(
        "json.render_ns",
        spans.per_call_ns("json.render", meshes.len() as u64),
        "ns",
    );
    report.layer("json.bytes_in", bytes_in as f64, "bytes");
    report.layer("json.bytes_out", bytes_out as f64, "bytes");
    report.layer(
        "cli.analyze_ns",
        spans.per_call_ns("cli.analyze", cli_runs),
        "ns",
    );
    report.layer(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / plain.drain_wall.as_secs_f64().max(1e-12),
        "ratio",
    );
    // The plain single-threaded baseline is the serial compile + fast
    // solve above; the engine does the same work on its workers.
    let serial = spans.get("core.compile").self_time + spans.get("core.fast_solve").self_time;
    let workers = plain.stats.effective_workers.max(1) as f64;
    report.layer(
        "engine.parallel_efficiency",
        serial.as_secs_f64() / (plain.drain_wall.as_secs_f64().max(1e-12) * workers),
        "ratio",
    );
    Ok(plain)
}
