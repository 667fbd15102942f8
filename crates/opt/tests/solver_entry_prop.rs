//! The single solver entry point on generated meshes: for every backend,
//! an instrumented `solve` (metrics and trace enabled) is bit-identical
//! to the uninstrumented `solve_path` / `solve_network`, Monte-Carlo's
//! network path `i` is the solve at index `i`, and the journal holds one
//! `path_solve` span per path.

use proptest::prelude::*;
use std::collections::HashSet;
use whart_model::{
    solve_network_with, ExplicitSolver, FastSolver, MeasurePlan, NetworkModel, NetworkProblem,
    SolveContext, Solver,
};
use whart_net::{Path, ReportingInterval, Schedule};
use whart_obs::Metrics;
use whart_opt::{generate, greedy_tree, GeneratorConfig};
use whart_sim::MonteCarloSolver;
use whart_trace::Trace;

/// A generated mesh routed along its greedy tree, scheduled
/// sequentially in route order, compiled.
fn mesh_problem(seed: u64, nodes: u32, interval: u32) -> NetworkProblem {
    let net = generate(&GeneratorConfig {
        seed,
        nodes,
        extra_links: nodes / 3,
        availability: (0.7, 0.98),
        reporting_interval: interval,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let paths: Vec<Path> = greedy_tree(&net)
        .unwrap()
        .routes()
        .into_iter()
        .map(|route| Path::through(&net.topology, route).unwrap())
        .collect();
    let order: Vec<usize> = (0..paths.len()).collect();
    let schedule = Schedule::sequential(&paths, &order)
        .unwrap()
        .padded(net.superframe.uplink_slots() as usize);
    NetworkModel::new(
        net.topology,
        paths,
        schedule,
        net.superframe,
        ReportingInterval::new(interval).unwrap(),
    )
    .unwrap()
    .compile()
    .unwrap()
}

fn check_backend(solver: &dyn Solver, problem: &NetworkProblem) {
    let plan = MeasurePlan::SCALAR;
    let plain = solver.solve_network(problem, plan).unwrap();

    let (metrics, trace) = (Metrics::new(), Trace::new());
    let instrumented = solve_network_with(solver, problem, plan, &metrics, &trace).unwrap();
    let journal = trace.drain();
    assert_eq!(
        journal.named("path_solve").count(),
        problem.len(),
        "{}: one span per path",
        solver.name()
    );
    if solver.name() == "sim" {
        // Every path draws from its own seed stream.
        let seeds: HashSet<u64> = journal
            .named("path_solve")
            .map(|e| e.arg("seed").and_then(|a| a.as_u64()).unwrap())
            .collect();
        assert_eq!(seeds.len(), problem.len());
    }
    let solves = metrics
        .snapshot()
        .histogram(&format!("solver.{}.solve_ns", solver.name()))
        .map(|h| h.count);
    assert_eq!(solves, Some(problem.len() as u64));

    for (i, path_problem) in problem.path_problems().iter().enumerate() {
        let (metrics, trace) = (Metrics::new(), Trace::new());
        let ctx = SolveContext {
            metrics: &metrics,
            trace: &trace,
            index: i as u64,
        };
        let solved = solver.solve(path_problem, plan, &ctx).unwrap();
        assert_eq!(trace.drain().named("path_solve").count(), 1);
        assert_eq!(
            &solved,
            &*plain.reports()[i].evaluation,
            "{} path {}",
            solver.name(),
            i
        );
        assert_eq!(&solved, &*instrumented.reports()[i].evaluation);
        if i == 0 || solver.name() != "sim" {
            // Only Monte-Carlo's seed stream depends on the index.
            assert_eq!(&solved, &solver.solve_path(path_problem, plan).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_backend_has_one_solve_on_generated_meshes(
        seed in 0u64..10_000,
        nodes in 2u32..9,
        interval in 1u32..4,
    ) {
        let problem = mesh_problem(seed, nodes, interval);
        check_backend(&FastSolver, &problem);
        check_backend(&ExplicitSolver, &problem);
        check_backend(&MonteCarloSolver::new(seed, 400), &problem);
    }
}
