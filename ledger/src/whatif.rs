//! `whatif`: `whart_opt::optimize` on seeded 50- and 200-node meshes,
//! both objectives, a fresh engine per design.
//!
//! Candidates share most routes, so path-cache hits exceed 0.8: signature
//! hashing, cache probes and Eq. 12 composition do the work and the
//! solver does little. Each pass prices five 50-node reachability
//! designs, eleven 50-node delay designs and two 200-node reachability
//! designs. The 50-node delay designs are the middle of the mix, so the
//! median design sits inside one cluster of similar designs. A 200-node
//! delay design is left out: at about 0.7 s it would take two thirds of
//! every pass and set every figure alone.

use std::time::Instant;

use whart_engine::Engine;
use whart_opt::{generate, optimize, GeneratedNetwork, Objective, SearchConfig};

use crate::common::{
    drive, lower, mesh_config, timed_setup, workers, Mesh, Op, Pass, Report, Rng, Spans,
};
use crate::probes::{self, EngineTotals};
use crate::RunConfig;

/// Hill-climbing rounds per design.
const MAX_ROUNDS: usize = 4;

fn pool(seed: u64) -> Result<Vec<(GeneratedNetwork, Objective)>, String> {
    let mut rng = Rng::new(seed);
    let mut designs = Vec::new();
    let mut add = |nodes: u32, objectives: &[Objective]| -> Result<(), String> {
        let net =
            generate(&mesh_config(&mut rng, nodes, 4)).map_err(|e| format!("generate: {e}"))?;
        for &objective in objectives {
            designs.push((net.clone(), objective));
        }
        Ok(())
    };
    for _ in 0..5 {
        add(50, &[Objective::MaxReachability])?;
    }
    for _ in 0..11 {
        add(50, &[Objective::MinDelay])?;
    }
    for _ in 0..2 {
        add(200, &[Objective::MaxReachability])?;
    }
    Ok(designs)
}

pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, designs) = timed_setup(if config.trace { 1 } else { 3 }, || pool(config.seed))?;
    let mut objectives: Vec<Option<u64>> = vec![None; designs.len()];
    let mut engine_totals = EngineTotals::default();

    let pass = |spans: &mut Spans, pass: &mut Pass| -> Result<Vec<Op>, String> {
        let mut ops = Vec::with_capacity(designs.len());
        for (d, (net, objective)) in designs.iter().enumerate() {
            let search = SearchConfig {
                objective: *objective,
                max_rounds: MAX_ROUNDS,
            };
            let start = Instant::now();
            let (result, stats) = spans
                .time("opt.optimize", |_| {
                    let mut engine = Engine::new(workers());
                    optimize(&mut engine, net, &search).map(|r| (r, engine.stats()))
                })
                .map_err(|e| format!("optimize: {e}"))?;
            let wall = start.elapsed();
            ops.push(Op {
                wall,
                paths: stats.paths_requested,
                designs: result.candidates_evaluated,
                design_wall: wall,
            });
            pass.count("paths_requested", stats.paths_requested);
            pass.count("distinct_solves", stats.paths_evaluated);
            pass.count("cache_hits", stats.path_cache_hits);
            pass.count("candidates", result.candidates_evaluated);
            pass.count("opt_rounds", result.rounds.len() as u64);
            pass.check(result.improved_or_tied(), || {
                format!("design {d}: final objective is worse than the greedy start")
            });
            let bits = result.final_objective.to_bits();
            // Folded to 32 bits so the JSON number stays exact.
            let folded = ((bits ^ (bits >> 32)) as u32).rotate_left(d as u32);
            *pass.counts.entry("objective_hash").or_default() ^= u64::from(folded);
            let first = *objectives[d].get_or_insert(bits);
            pass.check(first == bits, || {
                format!("design {d}: objective changed between runs of one seed")
            });
            if spans.is_on() {
                engine_totals.add(&stats, wall);
            }
        }
        Ok(ops)
    };

    let seed = config.seed;
    drive(config, &mut report, setup_s, pass, |spans, report| {
        // Regenerate the pool's networks to time the generator, then lower
        // each mesh once for the layer probes.
        let mut rng = Rng::new(seed);
        let configs: Vec<_> = [50; 16]
            .into_iter()
            .chain([200; 2])
            .map(|n| mesh_config(&mut rng, n, 4))
            .collect();
        let nets = spans.time("opt.generate", |_| {
            configs
                .iter()
                .map(|c| generate(c).map_err(|e| format!("generate: {e}")))
                .collect::<Result<Vec<_>, _>>()
        })?;
        report.layer(
            "opt.generate_ns",
            spans.per_call_ns("opt.generate", configs.len() as u64),
            "ns",
        );
        let meshes = spans.time("probe.lower", |_| {
            nets.iter().map(lower).collect::<Result<Vec<Mesh>, _>>()
        })?;
        let refs: Vec<&Mesh> = meshes.iter().collect();
        probes::run(&refs, spans, report, refs.len())?;
        Ok(())
    })?;
    if config.trace {
        engine_totals.emit(&mut report);
        for (layer, count) in [
            ("opt.rounds", "opt_rounds"),
            ("opt.candidates", "candidates"),
        ] {
            let value = report.counts.get(count).copied().unwrap_or(0);
            report.layer(layer, value as f64, "count");
        }
    }
    Ok(report)
}
