//! `oracle`: the exact and statistical cross-checks.
//!
//! `ExplicitSolver` (Algorithm 1's absorbing chain, solved densely) and
//! `MonteCarloSolver` (fixed seed and replications) solve every path of
//! the paper's typical network and of seeded small meshes at short `Is`.
//! The dense solve and the Monte-Carlo draws do nearly all the work here
//! and none elsewhere. Meshes stay well below 50 nodes because the
//! explicit chain grows steeply with `Is`.

use std::time::Instant;

use whart_channel::LinkModel;
use whart_model::explicit::explicit_chain;
use whart_model::{ExplicitSolver, FastSolver, MeasurePlan, NetworkEvaluation, Solver};
use whart_net::typical::TypicalNetwork;
use whart_net::ReportingInterval;
use whart_sim::MonteCarloSolver;

use crate::common::{build_mesh, drive, from_parts, mesh_config, timed_setup, Mesh, Op, Pass};
use crate::common::{Report, Rng, Spans};
use crate::probes;
use crate::RunConfig;

/// Monte-Carlo base seed and replications per path: fixed, so the
/// estimates depend only on the generated networks.
const SIM_SEED: u64 = 7;
const REPLICATIONS: u64 = 4000;
/// Seeded 6–16-node meshes besides the typical network.
const MESHES: usize = 24;

struct Network {
    mesh: Mesh,
    /// Explicit chain size of each path.
    states: Vec<u64>,
}

fn pool(seed: u64) -> Result<Vec<Network>, String> {
    let mut rng = Rng::new(seed);
    let availability = 0.75 + 0.15 * rng.unit();
    let link = LinkModel::from_availability(availability, 0.9).map_err(|e| e.to_string())?;
    let typical = TypicalNetwork::new(link);
    let routes: Vec<_> = typical.paths.iter().map(|p| p.nodes().to_vec()).collect();
    // The typical network at the paper's `Is` = 4, and at `Is` = 8, whose
    // 463-state chain is the largest of every pool, so the peak memory of
    // the dense solve does not depend on the seed.
    let mut meshes = [4, 8]
        .into_iter()
        .map(|is| {
            let interval = ReportingInterval::new(is).map_err(|e| e.to_string())?;
            from_parts(
                typical.topology.clone(),
                &routes,
                typical.superframe,
                interval,
            )
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Sizes and intervals are stratified so every seed carries the same
    // amount of work; the seed sets topologies and link qualities.
    for i in 0..MESHES {
        let nodes = 6 + (i % 6) as u32 * 2;
        let interval = [1, 2][(i / 6) % 2];
        meshes.push(build_mesh(&mesh_config(&mut rng, nodes, interval))?);
    }
    meshes
        .into_iter()
        .map(|mesh| {
            let states = (0..mesh.paths)
                .map(|i| {
                    let problem = mesh.model.path_problem(i).map_err(|e| e.to_string())?;
                    Ok(explicit_chain(&problem.to_model()).state_count() as u64)
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Network { mesh, states })
        })
        .collect()
}

/// Pooled z statistic of Monte-Carlo estimates against exact values: the
/// per-path estimates are independent binomial proportions.
#[derive(Default)]
struct ZTest {
    deviation: f64,
    variance: f64,
}

impl ZTest {
    fn add(&mut self, estimate: f64, exact: f64) {
        self.deviation += estimate - exact;
        self.variance += exact * (1.0 - exact) / REPLICATIONS as f64;
    }

    fn z(&self) -> f64 {
        if self.variance > 0.0 {
            self.deviation / self.variance.sqrt()
        } else {
            self.deviation.abs() * f64::INFINITY
        }
    }
}

fn first_cycle(eval: &whart_model::PathEvaluation) -> f64 {
    eval.cycle_probabilities()
        .as_slice()
        .first()
        .copied()
        .unwrap_or(0.0)
}

fn verify(
    pass: &mut Pass,
    n: usize,
    fast: &NetworkEvaluation,
    explicit: &NetworkEvaluation,
    sim: &NetworkEvaluation,
    tests: &mut [ZTest; 2],
) {
    for (i, ((f, e), s)) in fast
        .reports()
        .iter()
        .zip(explicit.reports())
        .zip(sim.reports())
        .enumerate()
    {
        let (f, e, s) = (&f.evaluation, &e.evaluation, &s.evaluation);
        let (fc, ec) = (
            f.cycle_probabilities().as_slice(),
            e.cycle_probabilities().as_slice(),
        );
        let agree = (f.reachability() - e.reachability()).abs() <= 1e-12
            && fc.len() == ec.len()
            && fc.iter().zip(ec).all(|(a, b)| (a - b).abs() <= 1e-12);
        pass.check(agree, || {
            format!("network {n} path {i}: explicit differs from fast by more than 1e-12")
        });
        let close = (s.reachability() - f.reachability()).abs() <= 0.05
            && (first_cycle(s) - first_cycle(f)).abs() <= 0.05;
        pass.check(close, || {
            format!("network {n} path {i}: Monte-Carlo estimate is more than 0.05 off")
        });
        tests[0].add(s.reachability(), f.reachability());
        tests[1].add(first_cycle(s), first_cycle(f));
    }
}

pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, networks) = timed_setup(if config.trace { 1 } else { 3 }, || pool(config.seed))?;
    let sim = MonteCarloSolver::new(SIM_SEED, REPLICATIONS);
    let plan = MeasurePlan::SCALAR;

    let pass = |spans: &mut Spans, pass: &mut Pass| -> Result<Vec<Op>, String> {
        let mut ops = Vec::with_capacity(networks.len());
        let mut tests = [ZTest::default(), ZTest::default()];
        for (n, network) in networks.iter().enumerate() {
            let start = Instant::now();
            let problem = spans
                .time("oracle.compile", |_| network.mesh.model.compile())
                .map_err(|e| format!("compile: {e}"))?;
            let explicit = spans
                .time("core.explicit_solve", |_| {
                    ExplicitSolver.solve_network(&problem, plan)
                })
                .map_err(|e| format!("explicit solve: {e}"))?;
            let estimate = spans
                .time("sim.solve", |_| sim.solve_network(&problem, plan))
                .map_err(|e| format!("sim solve: {e}"))?;
            let wall = start.elapsed();
            ops.push(Op {
                wall,
                paths: network.mesh.paths as u64,
                designs: 1,
                design_wall: wall,
            });
            pass.count("explicit_states", network.states.iter().sum());
            pass.count("sim_draws", REPLICATIONS * network.mesh.paths as u64);
            if pass.verify {
                let fast = FastSolver
                    .solve_network(&problem, plan)
                    .map_err(|e| format!("fast solve: {e}"))?;
                verify(pass, n, &fast, &explicit, &estimate, &mut tests);
            }
        }
        if pass.verify {
            for (test, what) in tests.iter().zip(["reachability", "first-cycle delivery"]) {
                let z = test.z();
                pass.check(z.abs() < 4.0, || {
                    format!("Monte-Carlo {what} pooled over all paths has |z| = {z:.2} >= 4")
                });
            }
        }
        Ok(ops)
    };

    let meshes: Vec<&Mesh> = networks.iter().map(|n| &n.mesh).collect();
    let states: Vec<u64> = networks.iter().flat_map(|n| n.states.clone()).collect();
    let paths = states.len() as u64;
    let count = networks.len() as u64;
    drive(config, &mut report, setup_s, pass, |spans, report| {
        // The traced passes solved every path once per pass.
        let solved = spans.get("core.explicit_solve").count / count * paths;
        for (layer, span) in [
            ("core.explicit_solve_ns", "core.explicit_solve"),
            ("sim.solve_ns", "sim.solve"),
        ] {
            report.layer(layer, spans.per_call_ns(span, solved), "ns");
        }
        let totals = probes::run(&meshes, spans, report, meshes.len())?;
        totals.emit(report);
        Ok(())
    })?;
    let largest = states.iter().copied().max().unwrap_or(0) as f64;
    report.layer(
        "core.explicit_states",
        states.iter().sum::<u64>() as f64 / paths as f64,
        "count",
    );
    report.layer("dtmc.dense_bytes", largest * largest * 8.0, "bytes");
    report.layer("sim.draws", REPLICATIONS as f64, "count");
    Ok(report)
}
