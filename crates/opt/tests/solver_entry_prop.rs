//! The single solver entry point on generated meshes: for every backend,
//! an instrumented `solve` (metrics and trace enabled) is bit-identical
//! to the uninstrumented `solve_path` / `solve_network`, Monte-Carlo's
//! network path `i` is the solve at index `i`, and the journal holds one
//! `path_solve` span per path. Every result also keeps the model's own
//! invariants: probability mass is conserved, `R` is a probability,
//! `E[N] = 1/(1-R)`, the delay CDF is monotone, and Monte-Carlo lands
//! within four standard errors of the fast solver.

use proptest::prelude::*;
use std::collections::HashSet;
use whart_model::{
    solve_network_with, DelayConvention, ExplicitSolver, FastSolver, MeasurePlan, NetworkModel,
    NetworkProblem, PathEvaluation, SolveContext, Solver,
};
use whart_net::{Path, ReportingInterval, Schedule};
use whart_obs::Metrics;
use whart_opt::{generate, greedy_tree, GeneratorConfig};
use whart_sim::MonteCarloSolver;
use whart_trace::{Instruments, Trace};

/// Monte-Carlo replications per path in these checks.
const REPLICATIONS: u64 = 400;

/// Instruments with metrics and the trace journal enabled.
fn recording() -> Instruments {
    Instruments {
        metrics: Metrics::new(),
        trace: Trace::new(),
        ..Instruments::default()
    }
}

/// The model invariants every backend's path result must keep.
fn check_invariants(name: &str, path: usize, e: &PathEvaluation) {
    let r = e.reachability();
    assert!((0.0..=1.0).contains(&r), "{name} path {path}: R = {r}");
    let mass = r + e.discard_probability();
    assert!(
        (mass - 1.0).abs() <= 1e-12,
        "{name} path {path}: goal + discard = {mass}"
    );
    let en = e.expected_intervals_to_first_loss();
    let expected = 1.0 / (1.0 - r);
    assert!(
        en == expected || (en - expected).abs() <= 1e-12 * expected,
        "{name} path {path}: E[N] = {en}, 1/(1-R) = {expected}"
    );
    let delays = e.delay_distribution(DelayConvention::Absolute);
    if r > 0.0 {
        let mut last = 0.0;
        for cycle in 1..=e.interval().cycles() {
            let cdf = delays.cdf(e.delay_ms(cycle, DelayConvention::Absolute));
            assert!(
                cdf >= last,
                "{name} path {path}: delay CDF falls at cycle {cycle}"
            );
            last = cdf;
        }
        assert!(
            (last - 1.0).abs() <= 1e-9,
            "{name} path {path}: delay CDF ends at {last}"
        );
    }
}

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

    let instruments = recording();
    let instrumented = solve_network_with(solver, problem, plan, &instruments).unwrap();
    let journal = instruments.trace.drain();
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
    let solves = instruments
        .metrics
        .snapshot()
        .histogram(&format!("solver.{}.solve_ns", solver.name()))
        .map(|h| h.count);
    assert_eq!(solves, Some(problem.len() as u64));

    for (i, path_problem) in problem.path_problems().iter().enumerate() {
        let instruments = recording();
        let ctx = SolveContext {
            instruments: &instruments,
            index: i as u64,
        };
        let solved = solver.solve(path_problem, plan, &ctx).unwrap();
        assert_eq!(instruments.trace.drain().named("path_solve").count(), 1);
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
        check_invariants(solver.name(), i, &solved);
    }
}

/// Monte-Carlo reachability lies within four standard errors of the
/// fast solver's, path by path.
fn check_monte_carlo_band(seed: u64, problem: &NetworkProblem) {
    let plan = MeasurePlan::SCALAR;
    let fast = FastSolver.solve_network(problem, plan).unwrap();
    let sim = MonteCarloSolver::new(seed, REPLICATIONS)
        .solve_network(problem, plan)
        .unwrap();
    for (i, (f, s)) in fast.reports().iter().zip(sim.reports()).enumerate() {
        let r = f.evaluation.reachability();
        let sigma = (r * (1.0 - r) / REPLICATIONS as f64).sqrt();
        let gap = (s.evaluation.reachability() - r).abs();
        assert!(
            gap <= 4.0 * sigma + 1e-12,
            "path {i}: sim R {} vs fast R {r} (sigma {sigma})",
            s.evaluation.reachability()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_backend_has_one_solve_on_generated_meshes(
        seed in 0u64..10_000,
        nodes in 2u32..9,
        interval in 1u32..4,
    ) {
        let problem = mesh_problem(seed, nodes, interval);
        check_backend(&FastSolver, &problem);
        check_backend(&ExplicitSolver, &problem);
        check_backend(&MonteCarloSolver::new(seed, REPLICATIONS), &problem);
        check_monte_carlo_band(seed, &problem);
    }
}
