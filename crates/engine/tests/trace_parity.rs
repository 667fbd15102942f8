//! Tracing must never perturb results: for every solver backend, a
//! traced drain returns bit-identical evaluations to an untraced one,
//! and the journal carries the expected span/provenance structure.

use std::sync::Arc;

use whart_engine::{Engine, Scenario};
use whart_model::sweeps::section_v_model;
use whart_model::{ExplicitSolver, FastSolver, Solver};
use whart_net::ReportingInterval;
use whart_sim::MonteCarloSolver;
use whart_trace::Trace;

fn fleet() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, pi) in [0.83, 0.903, 0.948, 0.83].iter().enumerate() {
        let model = section_v_model(*pi, ReportingInterval::REGULAR).unwrap();
        scenarios.push(Scenario::paths(format!("s-{i}"), vec![model]));
    }
    scenarios
}

fn assert_traced_drain_is_bit_identical(make_solver: impl Fn() -> Arc<dyn Solver>) -> Trace {
    let mut plain = Engine::with_solver(2, make_solver());
    let mut traced = Engine::with_solver(2, make_solver());
    let trace = Trace::new();
    traced.set_trace(trace.clone());
    for scenario in fleet() {
        plain.submit(scenario.clone());
        traced.submit(scenario);
    }
    let a = plain.drain().unwrap();
    let b = traced.drain().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.path_evaluations(), y.path_evaluations());
    }
    trace
}

#[test]
fn fast_backend_results_are_bit_identical_with_tracing_enabled() {
    let trace = assert_traced_drain_is_bit_identical(|| Arc::new(FastSolver));
    let log = trace.drain();
    // 4 scenarios planned, 3 distinct solves (one operating point repeats).
    assert_eq!(log.named("scenario").count(), 4);
    let solves: Vec<_> = log.named("path_solve").collect();
    assert_eq!(solves.len(), 3);
    for span in &solves {
        assert_eq!(span.cat, "solver.fast");
        assert!(span.arg("reachability").is_some());
        assert!(span.arg("transient_steps").is_some());
    }
    // Per-hop provenance: 3 hops per section-V path, one instant each.
    assert_eq!(log.named("hop").count(), 9);
    // Engine stage spans bracket the drain.
    for stage in ["plan", "execute", "assemble"] {
        assert_eq!(log.named(stage).count(), 1, "{stage} span present");
    }
    assert_eq!(log.dropped, 0);
}

#[test]
fn explicit_backend_results_are_bit_identical_with_tracing_enabled() {
    let trace = assert_traced_drain_is_bit_identical(|| Arc::new(ExplicitSolver));
    let log = trace.drain();
    let solves: Vec<_> = log.named("path_solve").collect();
    assert_eq!(solves.len(), 3);
    for span in &solves {
        assert_eq!(span.cat, "solver.explicit");
        assert!(span.arg("states").and_then(|a| a.as_u64()).unwrap() > 0);
        assert!(span.arg("transitions").and_then(|a| a.as_u64()).unwrap() > 0);
    }
    assert_eq!(log.named("hop").count(), 9);
}

#[test]
fn sim_backend_results_are_bit_identical_with_tracing_enabled() {
    let trace = assert_traced_drain_is_bit_identical(|| Arc::new(MonteCarloSolver::new(7, 20_000)));
    let log = trace.drain();
    let solves: Vec<_> = log.named("path_solve").collect();
    assert_eq!(solves.len(), 3);
    for span in &solves {
        assert_eq!(span.cat, "solver.sim");
        assert!(span.arg("seed").is_some());
        assert_eq!(
            span.arg("replications").and_then(|a| a.as_u64()),
            Some(20_000)
        );
        assert!(span.arg("draws").and_then(|a| a.as_u64()).unwrap() > 0);
    }
    assert_eq!(log.named("hop").count(), 9);
}

#[test]
fn disabled_trace_records_nothing() {
    let mut engine = Engine::new(2);
    for scenario in fleet() {
        engine.submit(scenario);
    }
    engine.drain().unwrap();
    assert!(!engine.instruments().trace.is_enabled());
    assert!(engine.instruments().trace.drain().is_empty());
}

#[test]
fn worker_threads_record_under_distinct_tids() {
    let mut engine = Engine::with_solver(2, Arc::new(FastSolver));
    let trace = Trace::new();
    engine.set_trace(trace.clone());
    for scenario in fleet() {
        engine.submit(scenario);
    }
    engine.drain().unwrap();
    let log = trace.drain();
    let solve_tids: std::collections::HashSet<u64> =
        log.named("path_solve").map(|e| e.tid).collect();
    let plan_tids: std::collections::HashSet<u64> = log.named("plan").map(|e| e.tid).collect();
    if engine.stats().effective_workers > 1 {
        // Path solves ran on pool workers, not on the draining thread.
        assert!(solve_tids.is_disjoint(&plan_tids));
    } else {
        // A single-core machine clamps the pool to one effective worker
        // and solves inline on the draining thread.
        assert_eq!(solve_tids, plan_tids);
    }
}
