//! `fleet`: cold batch drains through `Engine` on the fast backend.
//!
//! Each batch holds one generated mesh per (size, `Is`) pair, 10/50/200
//! nodes by `Is` 1/4/16, with availabilities drawn per mesh, so almost
//! every path is a distinct solve. Every drain starts a fresh engine: the
//! fast solver, IR compile and assembly do the work, while HTTP, the
//! response memo and Eq. 12 composition do none.

use std::time::Instant;

use whart_model::NetworkEvaluation;

use crate::common::{build_mesh, drive, mesh_config, timed_setup, Mesh, Op, Report, Rng, Spans};
use crate::probes::{self, cold_drain, EngineTotals};
use crate::RunConfig;

const SIZES: [u32; 3] = [10, 50, 200];
const INTERVALS: [u32; 3] = [1, 4, 16];
/// Batches in the pool; every timed pass drains each once.
const BATCHES: usize = 4;

fn pool(seed: u64) -> Result<Vec<Vec<Mesh>>, String> {
    let mut rng = Rng::new(seed);
    (0..BATCHES)
        .map(|_| {
            SIZES
                .iter()
                .flat_map(|&n| INTERVALS.iter().map(move |&is| (n, is)))
                .map(|(n, is)| build_mesh(&mesh_config(&mut rng, n, is)))
                .collect()
        })
        .collect()
}

/// Bit-for-bit comparison of an engine result with the serial evaluator.
fn identical(a: &NetworkEvaluation, b: &NetworkEvaluation) -> bool {
    a.reports().len() == b.reports().len()
        && a.reports().iter().zip(b.reports()).all(|(x, y)| {
            let (x, y) = (&x.evaluation, &y.evaluation);
            x.reachability().to_bits() == y.reachability().to_bits()
                && x.cycle_probabilities().as_slice().len()
                    == y.cycle_probabilities().as_slice().len()
                && x.cycle_probabilities()
                    .as_slice()
                    .iter()
                    .zip(y.cycle_probabilities().as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, batches) = timed_setup(if config.trace { 1 } else { 3 }, || pool(config.seed))?;
    // The seeded sample of scenarios checked against the serial evaluator.
    let mut rng = Rng::new(config.seed ^ 0xF1EE7);
    let sample: Vec<(usize, usize)> = (0..BATCHES)
        .map(|b| (b, rng.next_u64() as usize % batches[b].len()))
        .collect();
    let mut engine_totals = EngineTotals::default();
    let mut traced_pass = false;

    let pass = |spans: &mut Spans, pass: &mut crate::common::Pass| -> Result<Vec<Op>, String> {
        let mut ops = Vec::with_capacity(batches.len());
        for (b, batch) in batches.iter().enumerate() {
            let refs: Vec<&Mesh> = batch.iter().collect();
            let start = Instant::now();
            let (results, stats, _) = spans.time("engine.drain", |_| cold_drain(&refs, false))?;
            let wall = start.elapsed();
            let paths: u64 = batch.iter().map(|m| m.paths as u64).sum();
            ops.push(Op {
                wall,
                paths,
                designs: batch.len() as u64,
                design_wall: wall / batch.len() as u32,
            });
            pass.count("paths_requested", stats.paths_requested);
            pass.count("distinct_solves", stats.paths_evaluated);
            pass.count("cache_hits", stats.path_cache_hits);
            pass.check(results.len() == batch.len(), || {
                format!(
                    "batch {b}: {} results for {} scenarios",
                    results.len(),
                    batch.len()
                )
            });
            if spans.is_on() {
                traced_pass = true;
                engine_totals.add(&stats, wall);
            }
            if pass.verify {
                for &(sb, si) in sample.iter().filter(|s| s.0 == b) {
                    let serial = batch[si]
                        .model
                        .evaluate()
                        .map_err(|e| format!("serial evaluate: {e}"))?;
                    let ok = results[si].network().is_some_and(|r| identical(r, &serial));
                    pass.check(ok, || {
                        format!("batch {sb} scenario {si}: drain differs from serial evaluate")
                    });
                }
            }
        }
        Ok(ops)
    };

    let meshes: Vec<&Mesh> = batches.iter().flatten().collect();
    let seed = config.seed;
    drive(config, &mut report, setup_s, pass, |spans, report| {
        let mut rng = Rng::new(seed);
        let configs: Vec<_> = (0..BATCHES)
            .flat_map(|_| {
                SIZES
                    .iter()
                    .flat_map(|&n| INTERVALS.iter().map(move |&is| (n, is)))
                    .collect::<Vec<_>>()
            })
            .map(|(n, is)| mesh_config(&mut rng, n, is))
            .collect();
        spans.time("opt.generate", |_| -> Result<(), String> {
            for c in &configs {
                whart_opt::generate(c).map_err(|e| format!("generate: {e}"))?;
            }
            Ok(())
        })?;
        report.layer(
            "opt.generate_ns",
            spans.per_call_ns("opt.generate", configs.len() as u64),
            "ns",
        );
        probes::run(&meshes, spans, report, SIZES.len() * INTERVALS.len())?;
        Ok(())
    })?;
    if traced_pass {
        engine_totals.emit(&mut report);
    }
    Ok(report)
}
