//! End-to-end acceptance tests for the what-if optimizer: determinism
//! per seed on a ~30-node mesh, improvement (or tie) over the greedy
//! initial tree, and a warm path cache (> 0.8 hit ratio) surfaced in the
//! metrics snapshot.

use whart_engine::Engine;
use whart_obs::Metrics;
use whart_opt::{generate, optimize, GeneratorConfig, Objective, SearchConfig};

fn mesh_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        nodes: 30,
        max_degree: 5,
        extra_links: 12,
        availability: (0.75, 0.99),
        ..GeneratorConfig::default()
    }
}

fn run(seed: u64, objective: Objective) -> (whart_opt::Optimized, Metrics) {
    let net = generate(&mesh_config(seed)).unwrap();
    let metrics = Metrics::new();
    let mut engine = Engine::new(2);
    engine.set_instruments(whart_trace::Instruments {
        metrics: metrics.clone(),
        ..whart_trace::Instruments::default()
    });
    let config = SearchConfig {
        objective,
        max_rounds: 6,
    };
    (optimize(&mut engine, &net, &config).unwrap(), metrics)
}

#[test]
fn thirty_node_search_is_deterministic_per_seed() {
    let (a, _) = run(42, Objective::MaxReachability);
    let (b, _) = run(42, Objective::MaxReachability);
    assert_eq!(a, b, "same seed must reproduce the whole search");
    let (c, _) = run(43, Objective::MaxReachability);
    assert_ne!(
        a.routes, c.routes,
        "different seeds should explore different networks"
    );
}

#[test]
fn search_improves_or_ties_the_greedy_tree() {
    for objective in [Objective::MaxReachability, Objective::MinDelay] {
        let (result, _) = run(42, objective);
        assert!(
            result.improved_or_tied(),
            "{objective:?}: {} -> {}",
            result.initial_objective,
            result.final_objective
        );
        assert!(result.total_hops <= result.uplink_slots as usize);
        assert_eq!(result.paths.len(), 30);
    }
}

#[test]
fn search_runs_hot_through_the_path_cache() {
    let (result, metrics) = run(42, Objective::MaxReachability);
    let ratio = result
        .cache_hit_ratio
        .expect("the search performs path lookups");
    assert!(ratio > 0.8, "path cache hit ratio {ratio} should be > 0.8");

    // The same ratio is visible in the metrics snapshot (gauge in parts
    // per million), together with the search counters.
    let snapshot = metrics.snapshot();
    let ppm = snapshot
        .gauge("opt.cache_hit_ratio")
        .expect("opt.cache_hit_ratio gauge");
    assert!(ppm > 800_000, "snapshot ratio {ppm} ppm should be > 0.8");
    assert_eq!(
        snapshot.counter("opt.candidates_evaluated"),
        Some(result.candidates_evaluated)
    );
    assert_eq!(
        snapshot.counter("opt.accepted_moves"),
        Some(result.accepted_moves)
    );
    assert!(snapshot.gauge("opt.best_objective").unwrap() > 0);
}

#[test]
fn report_and_spec_json_are_well_formed() {
    let net = generate(&mesh_config(7)).unwrap();
    let mut engine = Engine::new(2);
    let config = SearchConfig {
        objective: Objective::MinDelay,
        max_rounds: 3,
    };
    let result = optimize(&mut engine, &net, &config).unwrap();

    let report = result.to_json();
    assert_eq!(report["objective"].as_str(), Some("delay"));
    assert!(report["final_objective"].as_f64().unwrap() > 0.0);
    assert!(!report["rounds"].as_array().unwrap().is_empty());

    let spec = result.spec_json(&net);
    assert_eq!(spec["nodes"].as_array().unwrap().len(), 30);
    assert_eq!(spec["paths"].as_array().unwrap().len(), 30);
    for route in spec["paths"].as_array().unwrap() {
        let nodes = route.as_array().unwrap();
        assert_eq!(nodes.last().unwrap().as_u64(), Some(0), "routes end at G");
    }
    assert_eq!(
        spec["schedule"]["order"].as_array().unwrap().len(),
        30,
        "sequential order covers every path"
    );
}
