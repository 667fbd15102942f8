//! `serve-mix`: an open-loop `POST /v1/analyze` stream against a spawned
//! `whart serve --threads <cores>` with default flags.
//!
//! Bodies come from seeded 10–50-node specs: three in four are drawn with
//! Zipf popularity from a set of 256, eight times the server's 32-entry
//! response memo, and one in four is a spec never sent before. Head specs
//! hit the memo, repeats of evicted specs hit the engine's path cache, and
//! fresh specs solve cold, so memo hits and memo inserts/evictions run
//! side by side, in the same mix at every rate. This is the only workload that runs
//! HTTP parse/write, admission, the memo, JSON rendering and the
//! always-on trace journal. A sequential warm-up precedes timing; then a
//! fixed ladder of request rates runs upward until a rung misses the
//! latency limit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use whart_channel::LinkModel;
use whart_stress::client::HttpClient;

use crate::common::{
    build_mesh, fast, from_parts, median, mesh_config, quantile, rss_peak_mb, timed_setup, workers,
    Mesh, Report, Rng, Spans,
};
use crate::probes;
use crate::RunConfig;

/// Base meshes; every spec is one of them with its link availabilities
/// scaled by a per-spec factor, so each spec is a distinct computation.
const BASES: usize = 48;
/// Popular specs, drawn with Zipf(1) popularity: eight times the memo's
/// 32 entries, so the head hits the memo and the rest of the popular set
/// hits the engine's path cache.
const POPULAR: usize = 256;
/// Share of requests that carry a spec never sent before (a cold solve).
/// Drawing these fresh keeps the mix the same from rung to rung.
const FRESH: f64 = 0.25;
/// First rank of the fresh specs; fresh ranks are never drawn twice.
const FRESH_BASE: usize = 1 << 20;
/// Sequential closed-loop requests before timing.
const WARMUP: usize = 300;
/// The reference rate: `req_p50_ms`, `req_p95_ms` and `design_p50_ms`
/// are measured at this open-loop rate, the ladder's lowest rung.
pub const REFERENCE_RATE: f64 = 200.0;
/// The ladder above the reference: `LADDER_RUNGS` rates from
/// `LADDER_FROM` requests per second in steps of 8%, through the range
/// where the server saturates on two cores.
const LADDER_FROM: f64 = 400.0;
const LADDER_RUNGS: i32 = 22;

fn ladder() -> Vec<f64> {
    (0..LADDER_RUNGS)
        .map(|k| (LADDER_FROM * 1.08f64.powi(k)).round())
        .collect()
}

/// Passes up the ladder. The first climbs from the bottom; each later
/// one starts `RESTART_BELOW` rungs under the previous pass's top.
const PASSES: usize = 3;
const RESTART_BELOW: usize = 3;
/// The run's `--seconds` in ladder rung lengths.
const RUNG_UNITS: f64 = 30.0;
/// Requests per slice of the reference rate. A slice runs before the
/// ladder and after every pass, and the reference figures are the fast
/// decile over slices: the shared host's speed swings by tens of percent
/// over seconds, and the fast decile is what a run reproduces.
const WINDOW: usize = 400;
/// A rung passes when its p95 latency, timed from each request's
/// scheduled send time, is within this limit.
pub const LIMIT_MS: f64 = 250.0;
/// A rung stops sending, as a growing backlog, once one connection has
/// more requests outstanding than arrive on it within the latency limit:
/// from then on requests miss the limit anyway.
fn max_backlog(rate: f64, lanes: usize) -> usize {
    ((rate * LIMIT_MS / 1e3) / lanes as f64).ceil().max(16.0) as usize
}
/// How long a run waits after stopping its server.
const RECOVERY: Duration = Duration::from_secs(10);
/// Specs whose first response is compared byte for byte with the
/// in-process `whart analyze --json`.
const SAMPLED: usize = 12;

/// A running `whart serve`, stopped (and waited for) on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start() -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // The server runs niced so the load generator, which shares the
        // cores with it, sends on schedule instead of queueing behind it.
        let child = Command::new("nice")
            .args(["-n", "10"])
            .arg(exe)
            .args(["whart", "serve", "--addr", &addr, "--threads"])
            .arg(workers().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn whart serve: {e}"))?;
        let mut server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("whart serve exited early: {status}"));
            }
            let mut client = HttpClient::new(server.addr.clone(), false);
            if matches!(client.request("GET", "/readyz", b""), Ok(r) if r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("whart serve did not become ready within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut client = HttpClient::new(self.addr.clone(), false);
        let response = client.request("GET", "/metrics", b"")?;
        let text = String::from_utf8_lossy(&response.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Empties the server's trace journal, as an operator collecting it
    /// would; every rung then starts with the same empty journal.
    fn drain_trace(&self) -> Result<(), String> {
        let mut client = HttpClient::new(self.addr.clone(), false);
        let response = client.request("GET", "/v1/trace?format=jsonl", b"")?;
        if response.status != 200 {
            return Err(format!("GET /v1/trace: status {}", response.status));
        }
        Ok(())
    }

    fn rss_peak_mb(&self) -> f64 {
        rss_peak_mb(&self.child.id().to_string())
    }

    fn stop(mut self) -> Result<(), String> {
        let mut client = HttpClient::new(self.addr.clone(), false);
        let _ = client.request("POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("whart serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for whart serve: {e}")),
            }
        }
        Err("whart serve did not drain within 20 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The request stream: the popularity rank of every request, and the
/// rendered spec of every rank sent so far.
struct Stream {
    seed: u64,
    bases: Vec<Mesh>,
    ranks: Vec<usize>,
    /// Whether each request is the first of its rank (a cold solve).
    cold: Vec<bool>,
    specs: BTreeMap<usize, (Arc<[u8]>, u64)>,
}

/// Inverse-CDF table of Zipf(1) ranks `0..POPULAR` (rank 0 most popular).
fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=POPULAR)
        .map(|k| {
            acc += 1.0 / k as f64;
            acc
        })
        .collect();
    let total = acc;
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

/// The spec of popularity rank `rank`: base mesh `rank % BASES` with its
/// availabilities scaled by a factor in `(0.97, 1]` drawn from the rank.
fn variant(bases: &[Mesh], rank: usize, seed: u64) -> Result<Mesh, String> {
    let base = &bases[rank % BASES].model;
    let mut rng = Rng::new(seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let factor = 1.0 - 0.03 * rng.unit();
    let mut topology = whart_net::Topology::new();
    for node in base.topology().field_devices() {
        topology.add_node(node).map_err(|e| e.to_string())?;
    }
    for ((a, b), link) in base.topology().links() {
        let scaled = LinkModel::from_availability(link.availability() * factor, link.p_rc())
            .map_err(|e| e.to_string())?;
        topology.connect(a, b, scaled).map_err(|e| e.to_string())?;
    }
    let routes: Vec<_> = base.paths().iter().map(|p| p.nodes().to_vec()).collect();
    from_parts(topology, &routes, base.superframe(), base.interval())
}

impl Stream {
    fn new(seed: u64, requests: usize) -> Result<Stream, String> {
        let mut rng = Rng::new(seed);
        // Sizes and intervals are stratified, not drawn, so every seed asks
        // the server for the same amount of work; the seed sets topologies
        // and link qualities.
        let bases = (0..BASES)
            .map(|i| {
                let nodes = 10 + (i % 16) as u32 * 40 / 15;
                let interval = [1, 2, 4][i / 16];
                build_mesh(&mesh_config(&mut rng, nodes, interval))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cdf = zipf_cdf();
        let mut fresh = FRESH_BASE;
        let ranks: Vec<usize> = (0..requests)
            .map(|_| {
                if rng.unit() < FRESH {
                    fresh += 1;
                    fresh
                } else {
                    let u = rng.unit();
                    cdf.partition_point(|&c| c < u).min(POPULAR - 1)
                }
            })
            .collect();
        let mut seen = BTreeSet::new();
        let cold = ranks.iter().map(|&r| seen.insert(r)).collect();
        Ok(Stream {
            seed,
            bases,
            ranks,
            cold,
            specs: BTreeMap::new(),
        })
    }

    /// Renders the specs of requests `range` not rendered yet, and returns
    /// their bodies.
    fn bodies(&mut self, range: std::ops::Range<usize>) -> Result<Vec<Arc<[u8]>>, String> {
        let end = range.end.min(self.ranks.len());
        let mut bodies = Vec::with_capacity(end.saturating_sub(range.start));
        for i in range.start..end {
            let rank = self.ranks[i];
            if !self.specs.contains_key(&rank) {
                let mesh = variant(&self.bases, rank, self.seed)?;
                let body = Arc::from(mesh.spec.into_bytes());
                self.specs.insert(rank, (body, mesh.paths as u64));
            }
            bodies.push(self.specs[&rank].0.clone());
        }
        Ok(bodies)
    }

    fn paths(&self, i: usize) -> u64 {
        self.specs[&self.ranks[i]].1
    }
}

/// One request of an open-loop rung.
#[derive(Clone, Default)]
struct Sample {
    /// Scheduled send time, actual send time and completion, from the
    /// rung start.
    sched: Duration,
    sent: Duration,
    done: Option<Duration>,
    status: u16,
    body: Option<Vec<u8>>,
}

/// Splits one complete `Content-Length` response off the front of `buf`:
/// `(status, body, bytes consumed)`.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response without Content-Length")?;
    let total = end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, buf[end + 4..total].to_vec(), total)))
}

/// How often a connection with requests in flight checks for responses.
const POLL: Duration = Duration::from_micros(100);

/// Writes all of `bytes` to a non-blocking socket, waiting out a full
/// send buffer.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Drives one connection of an open-loop rung: sends each of `mine` at
/// its scheduled time whether or not earlier responses arrived
/// (pipelining on the keep-alive connection), and reads responses as they
/// come. Returns `false` when the backlog bound stopped the rung early.
fn connection(
    addr: &str,
    t0: Instant,
    backlog: usize,
    mine: &mut [(usize, Sample)],
    bodies: &[Arc<[u8]>],
    keep: &BTreeSet<usize>,
) -> Result<bool, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut stopped = false;
    let last = mine.last().map_or(Duration::ZERO, |m| m.1.sched);
    loop {
        let now = t0.elapsed();
        let sending = !stopped && next < mine.len();
        if sending && now >= mine[next].1.sched {
            if inflight.len() >= backlog {
                // Stop sending, but collect what is in flight.
                stopped = true;
                continue;
            }
            let (index, sample) = &mut mine[next];
            let body = &bodies[*index];
            let head = format!(
                "POST /v1/analyze HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            let mut request = head.into_bytes();
            request.extend_from_slice(body);
            send_all(&mut stream, &request).map_err(|e| format!("send: {e}"))?;
            sample.sent = t0.elapsed();
            inflight.push_back(next);
            next += 1;
            continue;
        }
        if inflight.is_empty() && !sending {
            return Ok(!stopped);
        }
        if now > last + Duration::from_secs(30) {
            return Err("responses stalled for 30 s".into());
        }
        // Socket timeouts tick in scheduler jiffies, milliseconds apart, so
        // the connection polls a non-blocking socket and sleeps on the
        // high-resolution timer instead.
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some((status, body, used)) = parse_response(&buf)? {
                    buf.drain(..used);
                    let at = inflight.pop_front().ok_or("response without a request")?;
                    let (index, sample) = &mut mine[at];
                    sample.done = Some(t0.elapsed());
                    sample.status = status;
                    if keep.contains(index) {
                        sample.body = Some(body);
                    }
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let until_send = if sending {
            mine[next].1.sched.saturating_sub(t0.elapsed())
        } else {
            Duration::MAX
        };
        let nap = if inflight.is_empty() {
            until_send
        } else {
            until_send.min(POLL)
        };
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
}

/// Runs `requests` (indices into `bodies`) at `rate` per second over one
/// connection per core. Returns the samples in request order and whether
/// every connection kept its backlog bounded.
fn open_loop(
    addr: &str,
    rate: f64,
    requests: &[usize],
    bodies: &[Arc<[u8]>],
    keep: &BTreeSet<usize>,
) -> Result<(Vec<Sample>, bool), String> {
    let lanes = workers();
    let mut per_lane: Vec<Vec<(usize, Sample)>> = vec![Vec::new(); lanes];
    for (i, &index) in requests.iter().enumerate() {
        let sample = Sample {
            sched: Duration::from_secs_f64(i as f64 / rate),
            ..Sample::default()
        };
        per_lane[i % lanes].push((index, sample));
    }
    let backlog = max_backlog(rate, lanes);
    let t0 = Instant::now() + Duration::from_millis(5);
    let bounded = std::thread::scope(|scope| {
        let handles: Vec<_> = per_lane
            .iter_mut()
            .map(|mine| scope.spawn(move || connection(addr, t0, backlog, mine, bodies, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "generator thread panicked".to_string())?
            })
            .collect::<Result<Vec<bool>, String>>()
    })?;
    let mut samples = vec![Sample::default(); requests.len()];
    for (lane, mine) in per_lane.into_iter().enumerate() {
        for (j, (_, sample)) in mine.into_iter().enumerate() {
            samples[j * lanes + lane] = sample;
        }
    }
    Ok((samples, bounded.iter().all(|&b| b)))
}

/// An answered request: its latency in ms and whether it solved cold.
type Answered = (f64, bool);

/// What one rung of the ladder measured.
struct Rung {
    rate: f64,
    latencies_ms: Vec<f64>,
    /// Latency and coldness of every answered request, in send order.
    ordered: Vec<Answered>,
    lag_ms: Vec<f64>,
    completed: usize,
    errors: usize,
    paths: u64,
    wall: f64,
    bounded: bool,
}

impl Rung {
    fn passes(&self) -> bool {
        let attempted = self.completed + self.errors;
        self.bounded
            && attempted > 0
            && (self.errors as f64) <= 0.01 * attempted as f64
            && quantile(&self.latencies_ms, 0.95) <= LIMIT_MS
    }
}

/// Runs one open-loop rung on the stream's next requests.
fn rung(
    server: &Server,
    stream: &mut Stream,
    next: &mut usize,
    rate: f64,
    seconds: f64,
    responses: &mut BTreeMap<usize, Vec<u8>>,
    sampled: &BTreeSet<usize>,
) -> Result<Rung, String> {
    server.drain_trace()?;
    let n = (rate * seconds).ceil() as usize;
    let range = *next..*next + n;
    *next += n;
    let bodies = stream.bodies(range.clone())?;
    if bodies.len() < n {
        return Err("the planned request stream ran out".into());
    }
    // Keep the response of each sampled rank the first time it is sent.
    let keep: BTreeSet<usize> = range
        .clone()
        .enumerate()
        .filter(|&(_, i)| {
            sampled.contains(&stream.ranks[i]) && !responses.contains_key(&stream.ranks[i])
        })
        .map(|(k, _)| k)
        .collect();
    let local: Vec<usize> = (0..n).collect();
    let began = Instant::now();
    let (samples, bounded) = open_loop(&server.addr, rate, &local, &bodies, &keep)?;
    let mut rung = Rung {
        rate,
        latencies_ms: Vec::new(),
        ordered: Vec::new(),
        lag_ms: Vec::new(),
        completed: 0,
        errors: 0,
        paths: 0,
        wall: began.elapsed().as_secs_f64(),
        bounded,
    };
    for (i, sample) in range.zip(samples) {
        let Some(done) = sample.done else {
            // Never sent: the rung stopped at its backlog bound.
            continue;
        };
        let latency = (done - sample.sched).as_secs_f64() * 1e3;
        rung.lag_ms
            .push((sample.sent.saturating_sub(sample.sched)).as_secs_f64() * 1e3);
        if sample.status == 200 {
            rung.completed += 1;
            rung.paths += stream.paths(i);
            rung.latencies_ms.push(latency);
            rung.ordered.push((latency, stream.cold[i]));
        } else {
            rung.errors += 1;
            rung.latencies_ms.push(f64::INFINITY);
            rung.ordered.push((f64::INFINITY, stream.cold[i]));
        }
        if let Some(body) = sample.body {
            responses.entry(stream.ranks[i]).or_insert(body);
        }
    }
    eprintln!(
        "serve-mix: {rate} rps: p50 {:.2} ms, p95 {:.2} ms, {} ok, {} errors, lag p95 {:.3} ms{}",
        quantile(&rung.latencies_ms, 0.5),
        quantile(&rung.latencies_ms, 0.95),
        rung.completed,
        rung.errors,
        quantile(&rung.lag_ms, 0.95),
        if rung.passes() {
            ""
        } else {
            " (misses the limit)"
        }
    );
    Ok(rung)
}

pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    // Ladder rungs last `--seconds / RUNG_UNITS`; a pass usually stops
    // about halfway up the ladder.
    let unit = config.seconds / RUNG_UNITS;
    let planned = WARMUP
        + (PASSES + 1) * WINDOW
        + PASSES
            * ladder()
                .iter()
                .map(|r| (r * unit).ceil() as usize)
                .sum::<usize>();
    let (setup_s, (mut stream, server)) = timed_setup(if config.trace { 1 } else { 3 }, || {
        let mut stream = Stream::new(config.seed, planned)?;
        stream.bodies(0..WARMUP)?;
        let server = Server::start()?;
        Ok((stream, server))
    })?;
    // Earlier set-ups' servers were stopped when their result was dropped.
    let mut rng = Rng::new(config.seed ^ 0x5A3D);
    let warm: BTreeSet<usize> = stream.ranks[..WARMUP].iter().copied().collect();
    let warm: Vec<usize> = warm.into_iter().collect();
    let mut sampled: BTreeSet<usize> = [stream.ranks[0]].into();
    while sampled.len() < SAMPLED.min(warm.len()) {
        sampled.insert(warm[rng.next_u64() as usize % warm.len()]);
    }
    // The first fresh specs of the stream are sampled too.
    sampled.extend((0..SAMPLED / 2).map(|k| FRESH_BASE + 1 + 40 * k));
    let mut responses: BTreeMap<usize, Vec<u8>> = BTreeMap::new();

    // Warm-up: one closed-loop connection in stream order, so the memo's
    // hits and misses are exact counts for this seed.
    let before = server.metrics()?;
    let bodies = stream.bodies(0..WARMUP)?;
    let mut client = HttpClient::new(server.addr.clone(), true);
    for (i, body) in bodies.iter().enumerate() {
        let response = client.request("POST", "/v1/analyze", body)?;
        report.check(response.status == 200, || {
            format!("warm-up request {i}: status {}", response.status)
        });
        if sampled.contains(&stream.ranks[i]) {
            responses.entry(stream.ranks[i]).or_insert(response.body);
        }
        report.count("paths_requested", stream.paths(i));
    }
    drop(client);
    let after = server.metrics()?;
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    report.count("memo_hits", delta("serve_analyze_memo_hits") as u64);
    report.count("memo_misses", delta("serve_analyze_memo_misses") as u64);

    let mut next = WARMUP;
    let slice_seconds = WINDOW as f64 / REFERENCE_RATE;
    let mut slices = vec![rung(
        &server,
        &mut stream,
        &mut next,
        REFERENCE_RATE,
        slice_seconds,
        &mut responses,
        &sampled,
    )?];
    // Peak memory after a fixed amount of work (warm-up and one reference
    // slice), before the ladder, whose length depends on the host's speed.
    let rss_mb = server.rss_peak_mb();
    let mut rungs = Vec::new();
    // Each pass climbs the ladder until a rung misses the limit; its top
    // is the last rung that met it. `max_rps` is the fast decile of the
    // passes' tops, so one slow moment of the shared host does not set it.
    let mut tops: Vec<(f64, f64, f64)> = Vec::new();
    if !config.trace {
        let ladder = ladder();
        let mut from = 0;
        for _ in 0..PASSES {
            let mut top: Option<(usize, Rung)> = None;
            for (k, &rate) in ladder.iter().enumerate().skip(from) {
                let r = rung(
                    &server,
                    &mut stream,
                    &mut next,
                    rate,
                    unit,
                    &mut responses,
                    &sampled,
                )?;
                if !r.passes() {
                    rungs.push(r);
                    break;
                }
                if let Some((_, previous)) = top.replace((k, r)) {
                    rungs.push(previous);
                }
            }
            from = top
                .as_ref()
                .map_or(0, |t| t.0.saturating_sub(RESTART_BELOW));
            let summit = top
                .as_ref()
                .map(|t| &t.1)
                .or(Some(&slices[0]).filter(|r| r.passes()));
            tops.push(summit.map_or((0.0, 0.0, 0.0), |r| {
                (r.rate, r.paths as f64 / r.wall, r.completed as f64 / r.wall)
            }));
            if let Some((_, r)) = top {
                rungs.push(r);
            }
            slices.push(rung(
                &server,
                &mut stream,
                &mut next,
                REFERENCE_RATE,
                slice_seconds,
                &mut responses,
                &sampled,
            )?);
        }
    }
    for r in slices.iter().chain(&rungs) {
        // Requests a backlogged rung never sent were not attempted.
        report.attempted += (r.completed + r.errors) as u64;
        report.failed += r.errors as u64;
        if r.errors > 0 {
            report
                .failures
                .push(format!("{} failed requests at {} rps", r.errors, r.rate));
        }
    }

    // Correctness: every sampled response is byte-identical to the
    // in-process `whart analyze --json` of the same spec.
    let dir = crate::common::work_dir()?;
    for (rank, body) in &responses {
        let file = dir.join(format!("serve-{rank}.json"));
        std::fs::write(&file, &stream.specs[rank].0).map_err(|e| format!("write spec: {e}"))?;
        let args = [
            "analyze".to_string(),
            file.display().to_string(),
            "--json".to_string(),
        ];
        let expected = whart_cli::run(&args);
        report.check(expected.as_deref().map(str::as_bytes) == Ok(body), || {
            format!("spec rank {rank}: served body differs from whart analyze --json")
        });
    }

    if config.trace {
        let mut spans = Spans::new(true);
        spans.time("probe", |s| -> Result<(), String> {
            serve_probes(&server, &stream, s, &mut report)?;
            let refs: Vec<&Mesh> = stream.bases.iter().collect();
            probes::run(&refs, s, &mut report, refs.len())?.emit(&mut report);
            Ok(())
        })?;
        let probe = spans.get("probe");
        report.layer(
            "unattributed_share",
            probe.self_time.as_secs_f64() / probe.total.as_secs_f64().max(1e-12),
            "ratio",
        );
        report.layer(
            "serve.sched_lag_p95_ms",
            quantile(&slices[0].lag_ms, 0.95),
            "ms",
        );
        let m = server.metrics()?;
        let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
        let (hits, misses) = (
            get("serve_analyze_memo_hits"),
            get("serve_analyze_memo_misses"),
        );
        report.layer(
            "serve.memo_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        report.layer("serve.rejected", get("http_rejected_total"), "count");
    } else {
        let column = |k: usize| {
            fast(
                &tops.iter().map(|t| [t.0, t.1, t.2][k]).collect::<Vec<_>>(),
                true,
            )
        };
        let windows: Vec<&[Answered]> = slices.iter().map(|s| &s.ordered[..]).collect();
        let per_window = |f: &dyn Fn(&[Answered]) -> f64| {
            fast(&windows.iter().map(|w| f(w)).collect::<Vec<_>>(), false)
        };
        let latency =
            |w: &[Answered], q: f64| quantile(&w.iter().map(|s| s.0).collect::<Vec<_>>(), q);
        report.e2e("setup_s", setup_s, "s");
        report.e2e("paths_per_s", column(1), "1/s");
        report.e2e("candidates_per_s", column(2), "1/s");
        report.e2e(
            "design_p50_ms",
            per_window(&|w| median(&w.iter().filter(|s| s.1).map(|s| s.0).collect::<Vec<_>>())),
            "ms",
        );
        report.e2e("req_p50_ms", per_window(&|w| latency(w, 0.5)), "ms");
        report.e2e("req_p95_ms", per_window(&|w| latency(w, 0.95)), "ms");
        report.e2e("max_rps", column(0), "1/s");
        report.e2e("rss_peak_mb", rss_mb, "MB");
    }
    server.stop()?;
    // The server's memory goes back to the host of a virtual machine over
    // the next seconds, and a run that starts meanwhile meets a machine
    // about a third slower; consecutive runs then alternate between fast
    // and slow. Waiting here keeps the next run independent of this one.
    std::thread::sleep(RECOVERY);
    Ok(report)
}

/// The serve layer from outside: the HTTP floor (a memo hit, no model
/// work) and a cold miss, each a closed-loop round trip.
fn serve_probes(
    server: &Server,
    stream: &Stream,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let mut client = HttpClient::new(server.addr.clone(), true);
    let hot = &stream.specs[&stream.ranks[0]].0;
    let mut statuses = Vec::new();
    let mut round_trip = |body: &[u8], spans: &mut Spans, name| -> Result<f64, String> {
        let start = Instant::now();
        let response = spans.time(name, |_| client.request("POST", "/v1/analyze", body))?;
        statuses.push(response.status);
        Ok(start.elapsed().as_secs_f64())
    };
    round_trip(hot, spans, "serve.memo_rtt")?;
    let memo: Vec<f64> = (0..200)
        .map(|_| round_trip(hot, spans, "serve.memo_rtt"))
        .collect::<Result<_, _>>()?;
    report.layer("serve.memo_rtt_us", median(&memo) * 1e6, "us");
    // Ranks below the fresh range but beyond the popular set are never
    // drawn: always cold.
    let miss: Vec<f64> = (0..24)
        .map(|k| {
            let mesh = variant(&stream.bases, FRESH_BASE / 2 + k, stream.seed)?;
            round_trip(mesh.spec.as_bytes(), spans, "serve.miss_rtt")
        })
        .collect::<Result<_, _>>()?;
    report.layer("serve.miss_rtt_ms", median(&miss) * 1e3, "ms");
    for status in statuses {
        report.check(status == 200, || format!("probe request: status {status}"));
    }
    Ok(())
}
