//! Shared pieces: seeded randomness, generated meshes, statistics, the
//! benchmark's own span recorder, and the report every workload fills.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use whart_json::Json;
use whart_model::NetworkModel;
use whart_net::{NodeId, Path, ReportingInterval, Schedule, Superframe, Topology};
use whart_opt::{generate, greedy_tree, GeneratedNetwork, GeneratorConfig};

/// SplitMix64: a tiny seeded generator so inputs depend on `--seed` only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F1E_D6E5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One network, lowered two ways: the analytical model (sequential
/// schedule in path order) and the spec JSON `whart analyze` and
/// `POST /v1/analyze` consume.
pub struct Mesh {
    pub model: Arc<NetworkModel>,
    pub spec: String,
    pub paths: usize,
}

fn numeric(node: NodeId) -> u32 {
    match node {
        NodeId::Gateway => 0,
        NodeId::Field(n) => n,
    }
}

/// Generator settings for one mesh; availabilities are drawn per mesh so
/// that nearly every path of a pool is a distinct solve.
pub fn mesh_config(rng: &mut Rng, nodes: u32, interval: u32) -> GeneratorConfig {
    let lo = 0.80 + 0.10 * rng.unit();
    let hi = (lo + 0.04 + 0.05 * rng.unit()).min(0.995);
    GeneratorConfig {
        seed: rng.next_u64(),
        nodes,
        max_degree: 4,
        max_depth: if nodes > 60 { 8 } else { 5 },
        extra_links: nodes / 4,
        availability: (lo, hi),
        slot_slack: 4,
        reporting_interval: interval,
        ..GeneratorConfig::default()
    }
}

/// Generates one mesh and lowers it.
pub fn build_mesh(config: &GeneratorConfig) -> Result<Mesh, String> {
    let net = generate(config).map_err(|e| format!("generate: {e}"))?;
    lower(&net)
}

/// Lowers a generated network along its greedy Eq. 12 routing tree.
pub fn lower(net: &GeneratedNetwork) -> Result<Mesh, String> {
    let routes = greedy_tree(net)
        .map_err(|e| format!("greedy tree: {e}"))?
        .routes();
    from_parts(net.topology.clone(), &routes, net.superframe, net.interval)
}

/// Builds the model and spec of a network routed along `routes`
/// (device first, gateway last), scheduled sequentially in route order.
pub fn from_parts(
    topology: Topology,
    routes: &[Vec<NodeId>],
    superframe: Superframe,
    interval: ReportingInterval,
) -> Result<Mesh, String> {
    let paths = routes
        .iter()
        .map(|r| Path::through(&topology, r.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let order: Vec<usize> = (0..paths.len()).collect();
    let schedule = Schedule::sequential(&paths, &order)
        .map_err(|e| e.to_string())?
        .padded(superframe.uplink_slots() as usize);
    let links = topology
        .links()
        .map(|((a, b), link)| {
            Json::object([
                ("a", Json::from(numeric(a))),
                ("b", Json::from(numeric(b))),
                ("availability", Json::from(link.availability())),
                ("p_rc", Json::from(link.p_rc())),
            ])
        })
        .collect();
    let spec = Json::object([
        ("uplink_slots", Json::from(superframe.uplink_slots())),
        ("downlink_slots", Json::from(superframe.downlink_slots())),
        ("reporting_interval", Json::from(interval.cycles())),
        ("nodes", Json::array(topology.field_devices().map(numeric))),
        ("links", Json::Array(links)),
        (
            "paths",
            Json::Array(
                routes
                    .iter()
                    .map(|r| Json::array(r.iter().map(|&n| numeric(n))))
                    .collect(),
            ),
        ),
        ("schedule", Json::object([("order", Json::array(order))])),
    ])
    .to_compact();
    let model = NetworkModel::new(topology, paths, schedule, superframe, interval)
        .map_err(|e| format!("model: {e}"))?;
    Ok(Mesh {
        paths: routes.len(),
        model: Arc::new(model),
        spec,
    })
}

/// Engine and generator workers: never more than the machine's cores, so
/// the benchmark measures the program and not oversubscription.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fast decile of repeated measurements of one quantity: the 10%
/// quantile of times (`higher_is_better == false`) or the 90% quantile of
/// rates.
pub fn fast(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.9 } else { 0.1 })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn rss_peak_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's own span recorder. Spans wrap the benchmark's calls
/// into each layer; a span's self time is its duration minus the time its
/// child spans cover. With `on == false` it only runs the closures, so
/// the untraced run pays nothing for it.
pub struct Spans {
    on: bool,
    stack: Vec<(&'static str, Instant, Duration)>,
    totals: BTreeMap<&'static str, SpanTotal>,
}

#[derive(Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.stack.push((name, Instant::now(), Duration::ZERO));
        let out = f(self);
        let (name, start, child) = self.stack.pop().expect("span stack balanced");
        let total = start.elapsed();
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += total;
        }
        let entry = self.totals.entry(name).or_default();
        entry.count += 1;
        entry.total += total;
        entry.self_time += total.saturating_sub(child);
        out
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn get(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span of `name`, in ns, spread over `calls`
    /// calls made inside those spans (0 when none ran).
    pub fn per_call_ns(&self, name: &str, calls: u64) -> f64 {
        let t = self.get(name);
        if calls == 0 {
            return 0.0;
        }
        t.self_time.as_secs_f64() * 1e9 / calls as f64
    }
}

/// What one workload run found: checks, counts and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Exact work counts for one pass over the seed's inputs.
    pub counts: BTreeMap<&'static str, u64>,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Records one checked operation; a failed check counts in
    /// `error_rate` and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }
}

/// Runs `setup` `n` times and returns the median duration in seconds
/// together with the last result.
pub fn timed_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&times), last.expect("at least one set-up")))
}

/// Flags work counts that differ between two runs of one seed on one
/// build. The counts of each `(workload, seed)` are kept beside the
/// benchmark executable, under a name that changes whenever the
/// executable is rebuilt, so a code change never compares against counts
/// of other code.
pub fn check_counts(workload: &str, seed: u64, report: &mut Report) {
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let Ok(meta) = std::fs::metadata(&exe) else {
        return;
    };
    let stamp = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = exe.with_file_name("ledger-counts");
    let file = dir.join(format!("{workload}-{seed}-{}-{stamp}.json", meta.len()));
    let text = Json::object(
        report
            .counts
            .iter()
            .map(|(&name, &value)| (name, Json::from(value))),
    )
    .to_compact();
    match std::fs::read_to_string(&file) {
        Ok(previous) => report.check(previous == text, || {
            format!("work counts differ between two runs of seed {seed}: {previous} vs {text}")
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &text));
        }
    }
}

/// A working directory for spec files, beside the benchmark executable
/// (inside the build directory of the checkout).
pub fn work_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.with_file_name("ledger-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One timed operation of an in-process workload.
pub struct Op {
    pub wall: Duration,
    /// Path evaluations it delivered.
    pub paths: u64,
    /// Network designs it priced.
    pub designs: u64,
    /// Wall time attributed to one complete design.
    pub design_wall: Duration,
}

/// What one pass over a workload's inputs produced besides its ops.
#[derive(Default)]
pub struct Pass {
    /// Verify every output of this pass (the first pass does).
    pub verify: bool,
    pub counts: BTreeMap<&'static str, u64>,
    pub checked: u64,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }
}

fn merge(report: &mut Report, pass: Pass) {
    report.attempted += pass.checked;
    report.failed += pass.failures.len() as u64;
    for failure in pass.failures {
        if report.failures.len() < 20 {
            report.failures.push(failure);
        }
    }
}

/// Drives an in-process workload: a verified warm-up pass that also
/// fixes the exact work counts, then timed passes until the budget is
/// spent. Untraced, it reports the end-to-end metrics. Traced, it repeats
/// the same number of passes untraced and traced (the difference is the
/// benchmark's own tracing overhead), runs the layer probes, and checks
/// that layer self times account for all but 10% of the traced time.
pub fn drive(
    config: &crate::RunConfig,
    report: &mut Report,
    setup_s: f64,
    mut pass: impl FnMut(&mut Spans, &mut Pass) -> Result<Vec<Op>, String>,
    probe: impl FnOnce(&mut Spans, &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let mut off = Spans::new(false);
    let mut first = Pass {
        verify: true,
        ..Pass::default()
    };
    let warm = pass(&mut off, &mut first)?;
    report.attempted += warm.len() as u64;
    report.counts = first.counts.clone();
    merge(report, first);

    let mut rounds: Vec<Vec<Op>> = Vec::new();
    let mut timed_pass = |spans: &mut Spans, report: &mut Report| -> Result<Vec<Op>, String> {
        let mut p = Pass::default();
        let ops = pass(spans, &mut p)?;
        let counts = p.counts.clone();
        report.attempted += ops.len() as u64;
        merge(report, p);
        report.check(counts == report.counts, || {
            format!("work counts changed between passes: {counts:?}")
        });
        Ok(ops)
    };
    let share = if config.trace { 0.4 } else { 1.0 };
    let budget = config.budget().mul_f64(share);
    let start = Instant::now();
    while rounds.len() < 3 || start.elapsed() < budget {
        rounds.push(timed_pass(&mut off, report)?);
    }
    let untraced = start.elapsed();

    if !config.trace {
        // Every pass repeats the same operations in the same order. Each
        // operation's time is its fast decile over the passes: the shared
        // host's speed swings by tens of percent over seconds, and the
        // fast decile is what a run reproduces. Rates and latencies are
        // then medians over the operations, so no single input sets them.
        let best = |f: &dyn Fn(&Op) -> f64| -> Vec<f64> {
            (0..rounds[0].len())
                .map(|j| fast(&rounds.iter().map(|r| f(&r[j])).collect::<Vec<_>>(), false))
                .collect()
        };
        let walls = best(&|op| ms(op.wall));
        let ops = &rounds[0];
        let per_op_rate = |f: &dyn Fn(&Op) -> f64| -> f64 {
            median(
                &ops.iter()
                    .zip(&walls)
                    .map(|(op, w)| f(op) * 1e3 / w)
                    .collect::<Vec<_>>(),
            )
        };
        report.e2e("setup_s", setup_s, "s");
        report.e2e("paths_per_s", per_op_rate(&|op| op.paths as f64), "1/s");
        report.e2e(
            "candidates_per_s",
            per_op_rate(&|op| op.designs as f64),
            "1/s",
        );
        report.e2e(
            "design_p50_ms",
            median(&best(&|op| ms(op.design_wall))),
            "ms",
        );
        report.e2e("req_p50_ms", quantile(&walls, 0.5), "ms");
        report.e2e("req_p95_ms", quantile(&walls, 0.95), "ms");
        report.e2e(
            "max_rps",
            walls.len() as f64 * 1e3 / walls.iter().sum::<f64>(),
            "1/s",
        );
        report.e2e("rss_peak_mb", rss_peak_mb("self"), "MB");
        return Ok(());
    }

    let mut spans = Spans::new(true);
    let n = rounds.len();
    spans.time("workload", |s| -> Result<(), String> {
        for _ in 0..n {
            timed_pass(s, report)?;
        }
        Ok(())
    })?;
    let traced = spans.get("workload").total;
    spans.time("probe", |s| probe(s, report))?;
    let (workload, probe) = (spans.get("workload"), spans.get("probe"));
    let unattributed = (workload.self_time + probe.self_time).as_secs_f64()
        / (workload.total + probe.total).as_secs_f64().max(1e-12);
    report.check(unattributed <= 0.10, || {
        format!("layer self times leave {unattributed:.3} of the traced time unattributed")
    });
    report.layer("unattributed_share", unattributed, "ratio");
    report.layer(
        "bench.trace_overhead",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        "ratio",
    );
    Ok(())
}
