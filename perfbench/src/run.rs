//! One benchmark run: set-up, the timed span, the output checks, and (with
//! tracing) the per-layer replay.
//!
//! An untraced run measures the end-to-end metrics for `seconds`, sending
//! whole passes over the request list so every request is equally
//! represented in every run. Between requests (in-process) or between
//! segments of a pass (served) it samples the [`Yardstick`], and reports
//! request times scaled by the run's mean sample to the yardstick's
//! reference speed. A traced run spends half of `seconds` on the
//! same untraced loop, then makes exactly one traced pass in which every
//! request is executed untraced and replayed stage by stage, back to back,
//! and then measures the `mapd` layer on the same requests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use tie_fault::FaultHandle;
use tie_mapd::json::escape;
use tie_mapd::protocol::{MapRequest, MapResponse, Request, Response};
use tie_mapd::{Service, ServiceOptions, TopologyCache};
use tie_trace::TraceHandle;

use crate::daemon::{peak_rss_mb, reset_peak_rss, Daemon, Launch};
use crate::replay::{check, replay, Replayed, TIMER_PHASES};
use crate::span::Spans;
use crate::stats::{coco_ratio, error_rate, median, tail, Digest};
use crate::workload::{generate, pass_order, Spec, Workload};
use crate::yardstick::{scale, Yardstick, NOMINAL_UNIT_MS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Segments per pass of a served run; the yardstick is sampled between
/// segments, while no request is in flight.
pub const SEGMENTS_PER_PASS: usize = 4;

/// Lowest `trace.coverage` a traced run may report and still be correct:
/// the stage spans of the replays must cover at least this share of the
/// untraced `Service::execute` time of the same requests.
pub const COVERAGE_FLOOR: f64 = 0.9;

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured span(s), in seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Minimal sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// How to start `mapd`.
    pub launch: Launch,
    /// Directory for the daemon's socket files.
    pub socket_dir: PathBuf,
    /// Build and source identification, copied into the report.
    pub commit: String,
    /// Digest of the sources under test, copied into the report.
    pub source: String,
}

/// A metric as the result line prints it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed, nothing failed and every metric is a
    /// finite number.
    pub correct: bool,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed or whose output failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One line of JSON: environment, counts, digest, failures.
    pub report: String,
    /// The spans of a traced run.
    pub spans: Option<Spans>,
}

/// One request as sent, and what came back.
#[derive(Debug)]
struct Exec {
    id: usize,
    latency_ms: f64,
    result: Result<MapResponse, String>,
}

/// The executions of a measured span.
#[derive(Debug, Default)]
struct Timed {
    execs: Vec<Exec>,
    /// Wall time of the whole span, yardstick samples included.
    span_s: f64,
    /// Wall time during which requests were in flight.
    busy_s: f64,
    /// Every yardstick sample of the span.
    units: Vec<f64>,
}

fn service() -> Service {
    Service::new(ServiceOptions::default())
}

/// A socket path no other daemon of this process has used.
fn socket_path(opts: &Options) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    opts.socket_dir
        .join(format!("perfbench-{}-{k}.sock", std::process::id()))
}

/// Whether a span of `seconds` that has run `passes` whole passes for
/// `elapsed` seconds is done: it is once one more pass would end further
/// from `seconds` than stopping now. At least one pass always runs.
fn span_done(passes: usize, elapsed: f64, seconds: f64) -> bool {
    passes > 0 && elapsed + elapsed / passes as f64 / 2.0 >= seconds
}

/// Whole passes for about `seconds` (at least one), one caller, with a
/// yardstick sample after every request.
fn run_inprocess(
    spec: &Spec,
    reqs: &[MapRequest],
    seed: u64,
    seconds: f64,
    ys: &Yardstick,
) -> Timed {
    let mut t = Timed::default();
    let start = Instant::now();
    let mut svc = service();
    for pass in 0.. {
        if span_done(pass, start.elapsed().as_secs_f64(), seconds) {
            break;
        }
        if spec.fresh_service_per_pass && pass > 0 {
            svc = service();
        }
        for id in pass_order(seed, pass, reqs.len()) {
            let begin = Instant::now();
            let result = svc.execute(&reqs[id]).map_err(|e| e.to_string());
            let latency_ms = begin.elapsed().as_secs_f64() * 1e3;
            t.busy_s += latency_ms / 1e3;
            t.units.push(ys.sample(1));
            t.execs.push(Exec {
                id,
                latency_ms,
                result,
            });
        }
    }
    t.span_s = start.elapsed().as_secs_f64();
    t
}

/// Hands out request ids segment by segment to the closed-loop clients,
/// and stops at the pass boundary nearest to `seconds`.
struct Dispatch {
    seed: u64,
    n: usize,
    seconds: f64,
    start: Instant,
    next: usize,
    /// One past the last sequence number of the open segment.
    end: usize,
    order: Vec<usize>,
    /// Whether the clients serve a segment after this barrier (written by
    /// the coordinator only, while every client waits at the barrier).
    open: bool,
    /// Set once the span is over or a client failed.
    stopped: bool,
}

impl Dispatch {
    fn new(seed: u64, n: usize, seconds: f64, start: Instant) -> Dispatch {
        Dispatch {
            seed,
            n,
            seconds,
            start,
            next: 0,
            end: 0,
            order: Vec::new(),
            open: false,
            stopped: false,
        }
    }

    /// Opens the next segment of at most `len` requests; at a pass
    /// boundary, stops instead once the span is done. Returns `open`.
    fn open_segment(&mut self, len: usize) -> bool {
        let seq = self.next;
        if !self.stopped && seq.is_multiple_of(self.n) {
            if span_done(
                seq / self.n,
                self.start.elapsed().as_secs_f64(),
                self.seconds,
            ) {
                self.stopped = true;
            } else {
                self.order = pass_order(self.seed, seq / self.n, self.n);
            }
        }
        let pass_end = (seq / self.n + 1) * self.n;
        self.end = (seq + len.max(1)).min(pass_end);
        self.open = !self.stopped;
        self.open
    }

    fn take(&mut self) -> Option<(usize, usize)> {
        if self.stopped || self.next >= self.end {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        Some((seq, self.order[seq % self.n]))
    }
}

/// What one closed-loop client sent, keyed by dispatch order.
type ClientLog = Vec<(usize, Exec)>;

fn lock(dispatch: &Mutex<Dispatch>) -> std::sync::MutexGuard<'_, Dispatch> {
    dispatch.lock().expect("dispatch lock poisoned")
}

/// One closed-loop client: segment by segment, takes the next request,
/// sends it and waits for the answer; between segments it waits at
/// `barrier` with the other clients and the coordinator. A failed
/// connection stops the span but keeps meeting the barrier, so nobody
/// waits for it forever.
fn client(
    daemon: &Daemon,
    wire: &[Request],
    dispatch: &Mutex<Dispatch>,
    barrier: &Barrier,
) -> Result<ClientLog, String> {
    let mut conn = daemon.connect();
    let mut failure = None;
    let mut out = Vec::new();
    loop {
        barrier.wait();
        if !lock(dispatch).open {
            break;
        }
        while failure.is_none() {
            let Some((seq, id)) = lock(dispatch).take() else {
                break;
            };
            let exchanged = match &mut conn {
                Ok(c) => c.exchange(&wire[id]),
                Err(e) => Err(e.clone()),
            };
            match exchanged {
                Ok((response, at)) => {
                    let result = match response {
                        Response::Map(m) => Ok(*m),
                        Response::Error { message } => Err(message),
                        other => Err(format!("unexpected answer {other:?}")),
                    };
                    let latency_ms = (at.decoded - at.start).as_secs_f64() * 1e3;
                    out.push((
                        seq,
                        Exec {
                            id,
                            latency_ms,
                            result,
                        },
                    ));
                }
                Err(e) => {
                    failure = Some(e);
                    lock(dispatch).stopped = true;
                }
            }
        }
        barrier.wait();
    }
    conn?;
    failure.map_or(Ok(out), Err)
}

/// Whole passes over a `mapd` socket, `spec.clients` closed-loop clients.
/// Each pass is cut into [`SEGMENTS_PER_PASS`] segments; the yardstick
/// runs on as many threads as there are clients after every segment,
/// while no request is in flight.
fn run_served(
    spec: &Spec,
    wire: &[Request],
    seed: u64,
    seconds: f64,
    daemon: &Daemon,
    ys: &Yardstick,
) -> Result<Timed, String> {
    let n = wire.len();
    let len = n.div_ceil(SEGMENTS_PER_PASS);
    let clients = spec.clients.max(1);
    let mut t = Timed::default();
    let start = Instant::now();
    let dispatch = Mutex::new(Dispatch::new(seed, n, seconds, start));
    let barrier = Barrier::new(clients + 1);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| client(daemon, wire, &dispatch, &barrier)))
            .collect();
        loop {
            let open = lock(&dispatch).open_segment(len);
            let begin = Instant::now();
            barrier.wait();
            if !open {
                break;
            }
            barrier.wait();
            t.busy_s += begin.elapsed().as_secs_f64();
            t.units.push(ys.sample(clients));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    t.span_s = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for log in logs {
        all.extend(log?);
    }
    all.sort_by_key(|(seq, _)| *seq);
    t.execs = all.into_iter().map(|(_, e)| e).collect();
    Ok(t)
}

/// Per-request verdicts and the determinism digest of a set of executions.
#[derive(Debug, Default)]
struct Verdicts {
    /// First response per request id.
    first: BTreeMap<usize, MapResponse>,
    /// Failure reason per request id (first one wins).
    bad: BTreeMap<usize, String>,
    /// Digest of every pass.
    digests: Vec<Digest>,
}

impl Verdicts {
    fn fail(&mut self, id: usize, why: String) {
        self.bad.entry(id).or_insert(why);
    }

    /// Records `execs` (whole passes of `n` requests): the first response
    /// per id, any error, and any mapping that differs from the first.
    fn absorb(&mut self, execs: &[Exec], n: usize) {
        for pass in execs.chunks(n) {
            let mut maps: Vec<&[u32]> = vec![&[]; n];
            for e in pass {
                match &e.result {
                    Ok(resp) => {
                        maps[e.id] = &resp.mapping;
                        match self.first.get(&e.id) {
                            Some(f) if f.mapping != resp.mapping => {
                                self.fail(e.id, "mapping differs between passes".to_string())
                            }
                            Some(_) => {}
                            None => {
                                self.first.insert(e.id, resp.clone());
                            }
                        }
                    }
                    Err(m) => self.fail(e.id, m.clone()),
                }
            }
            self.digests.push(Digest::of(maps));
        }
    }

    /// Runs the output checks on the first response of every request.
    fn check_all(&mut self, reqs: &[MapRequest]) {
        let results: Vec<(usize, String)> = self
            .first
            .iter()
            .filter_map(|(&id, resp)| check(&reqs[id], resp).err().map(|e| (id, e)))
            .collect();
        for (id, e) in results {
            self.fail(id, e);
        }
    }

    /// Fails every request whose first mapping differs from `mapping(id)`.
    fn compare(&mut self, what: &str, ids: &[(usize, Vec<u32>)]) {
        for (id, m) in ids {
            if self.first.get(id).is_some_and(|f| &f.mapping != m) {
                self.fail(*id, format!("{what} mapping differs"));
            }
        }
    }

    fn failed(&self, execs: &[Exec]) -> usize {
        execs
            .iter()
            .filter(|e| self.bad.contains_key(&e.id))
            .count()
    }

    fn digest_stable(&self) -> bool {
        self.digests.windows(2).all(|w| w[0] == w[1])
    }

    fn coco_pairs(&self) -> Vec<(u64, u64)> {
        self.first
            .values()
            .map(|r| (r.initial.coco, r.enhanced.coco))
            .collect()
    }
}

/// What a run starts from.
struct Setup {
    reqs: Vec<MapRequest>,
    daemon: Option<Daemon>,
    /// Seconds each set-up took.
    times: Vec<f64>,
}

/// The run's set-up, repeated [`SETUP_REPS`] times: generate the requests
/// and, when served, start `mapd` and wait for its `ping`. The last one is
/// kept. Its time is wall time: set-up is mostly sequential generation and
/// process start, which the yardstick does not track.
fn setup(spec: &Spec, opts: &Options) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = last.take().and_then(|s| s.daemon) {
            d.stop()?;
        }
        let begin = Instant::now();
        let reqs = generate(spec, opts.seed);
        let daemon = if spec.served() {
            Some(Daemon::start(&opts.launch, &socket_path(opts))?)
        } else {
            None
        };
        times.push(begin.elapsed().as_secs_f64());
        last = Some(Setup {
            reqs,
            daemon,
            times: Vec::new(),
        });
    }
    let mut kept = last.expect("at least one set-up");
    kept.times = times;
    Ok(kept)
}

/// Runs one benchmark invocation.
///
/// # Errors
/// Set-up failures: the daemon could not be started or stopped, or a
/// client connection failed. Failed requests are not errors; they are
/// counted in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = Spec::new(opts.workload, opts.smoke);
    let Setup {
        reqs,
        daemon,
        times: setup_times,
    } = setup(&spec, opts)?;
    let ys = Yardstick::new();
    let n = reqs.len();
    let measure_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };

    // In-process, the peak resident set starts from what the timed span
    // begins with (the requests themselves), not from input generation.
    let mut rss_baseline_mb = None;
    let timed = match &daemon {
        Some(d) => {
            let wire: Vec<Request> = reqs
                .iter()
                .map(|r| Request::Map(Box::new(r.clone())))
                .collect();
            run_served(&spec, &wire, opts.seed, measure_s, d, &ys)?
        }
        None => {
            rss_baseline_mb = Some(reset_peak_rss()?);
            run_inprocess(&spec, &reqs, opts.seed, measure_s, &ys)
        }
    };
    let peak_rss = match &daemon {
        Some(d) => d.peak_rss_mb(),
        None => peak_rss_mb("/proc/self/status"),
    }
    .unwrap_or(f64::NAN);

    let mut v = Verdicts::default();
    v.absorb(&timed.execs, n);
    v.check_all(&reqs);
    let mut attempted = timed.execs.len();

    // Served mappings must equal an in-process execution of the same request.
    if spec.served() {
        let svc = service();
        let mut same = Vec::new();
        for (id, req) in reqs.iter().enumerate() {
            match svc.execute(req) {
                Ok(resp) => same.push((id, resp.mapping)),
                Err(e) => v.fail(id, format!("in-process execute failed: {e}")),
            }
        }
        v.compare("served vs in-process", &same);
    }

    let mut layer = None;
    if opts.trace {
        let mut traced = trace(opts, &spec, &reqs, &v.first, &per_id_median(&timed.execs))?;
        traced.rejects += timed
            .execs
            .iter()
            .filter(|e| e.result.as_ref().is_err_and(|m| is_reject(m)))
            .count();
        attempted += traced.ids.len();
        let replayed: Vec<(usize, Vec<u32>)> = traced
            .pairs
            .iter()
            .map(|p| (p.id, p.replayed.mapping.clone()))
            .collect();
        v.compare("traced replay", &replayed);
        v.compare("served", &traced.served);
        for (id, e) in &traced.errors {
            v.fail(*id, e.clone());
        }
        layer = Some(traced);
    }
    let failed = v.failed(&timed.execs) + layer.as_ref().map_or(0, |l| l.failed(&v));

    let daemon_cache = match &daemon {
        Some(d) => Some(d.ping()?),
        None => None,
    };
    if let Some(d) = daemon {
        d.stop()?;
    }

    // Request times at the yardstick's reference speed: wall time scaled by
    // the run's mean yardstick sample.
    let unit_ms = timed.units.iter().sum::<f64>() / timed.units.len() as f64;
    let wall: Vec<f64> = timed.execs.iter().map(|e| e.latency_ms).collect();
    let latencies: Vec<f64> = wall.iter().map(|ms| ms * scale(unit_ms)).collect();
    // A served run holds enough samples to resolve p95. An in-process run
    // holds 12-45, so its slowest sample is one burst of the machine; there
    // p95 is taken over each distinct request's median latency instead,
    // which makes it the slowest request class.
    let tail_of: Vec<f64> = if spec.served() {
        latencies.clone()
    } else {
        per_id_median(&timed.execs)
            .values()
            .map(|ms| ms * scale(unit_ms))
            .collect()
    };
    let p95 = tail(&tail_of, 0.95).expect("a run sends at least one request");
    let completed = timed.execs.iter().filter(|e| e.result.is_ok()).count();
    let pairs = v.coco_pairs();

    let metrics = match &layer {
        None => vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("latency_ms_p50", median(&latencies), "ms"),
            metric("latency_ms_p95", p95.value, "ms"),
            metric(
                "throughput_rps",
                completed as f64 / (timed.busy_s * scale(unit_ms)),
                "1/s",
            ),
            metric("coco_ratio", coco_ratio(&pairs), "ratio"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ],
        Some(l) => l.metrics(),
    };
    let coverage_ok = layer
        .as_ref()
        .is_none_or(|l| l.coverage() >= COVERAGE_FLOOR);
    let correct = failed == 0
        && v.bad.is_empty()
        && v.digest_stable()
        && coverage_ok
        && v.first.len() == n
        && metrics.iter().all(|m| m.value.is_finite());

    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let clients = spec.clients.max(1);
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"mode\": \"{}\", \
         \"smoke\": {}, \"environment\": {{\"nproc\": {nproc}, \"commit\": \"{}\", \
         \"source_sha256\": \"{}\", \"profile\": \"{}\", \"clients\": {clients}, \
         \"mode_of_execution\": \"{}\", \"timer_threads\": 1, \"oversubscribed\": {}}}, \
         \"requests\": {{\"distinct\": {n}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"measured\": {}, \"passes\": {}, \"span_s\": {:.3}}}, \
         \"error_rate\": {}, \"latency_ms_p95\": {{\"value\": {:.4}, \"over\": \"{}\", \
         \"samples\": {}, \"beyond\": {}, \"resolved\": {}}}, \"coco\": {{\"initial_sum\": {}, \"enhanced_sum\": {}}}, \
         \"digest\": \"{}\", \"digest_stable\": {}, \"setup_s\": {:?}, \
         \"yardstick\": {{\"nominal_unit_ms\": {NOMINAL_UNIT_MS}, \"unit_ms_mean\": {:.4}, \
         \"samples\": {}}}, \"wall\": {{\"latency_ms_p50\": {:.4}, \"latency_ms_p95\": {:.4}, \
         \"throughput_rps\": {:.4}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { "trace" } else { "measure" },
        opts.smoke,
        escape(&opts.commit),
        escape(&opts.source),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        if spec.served() { "mapd socket" } else { "in-process" },
        clients > nproc,
        timed.execs.len(),
        timed.execs.len() / n.max(1),
        timed.span_s,
        error_rate(failed, attempted),
        p95.value,
        if spec.served() {
            "requests"
        } else {
            "per-request medians"
        },
        p95.samples,
        p95.beyond,
        p95.resolved(),
        pairs.iter().map(|p| p.0).sum::<u64>(),
        pairs.iter().map(|p| p.1).sum::<u64>(),
        v.digests.first().map_or("none".to_string(), |d| d.hex()),
        v.digest_stable(),
        setup_times,
        unit_ms,
        timed.units.len(),
        median(&wall),
        p95.value / scale(unit_ms),
        completed as f64 / timed.busy_s,
    );
    if let Some(mb) = rss_baseline_mb {
        let _ = write!(report, ", \"rss_baseline_mb\": {mb:.3}");
    }
    if let Some(l) = &layer {
        let _ = write!(
            report,
            ", \"trace_coverage\": {{\"value\": {:.4}, \"floor\": {COVERAGE_FLOOR}, \"ok\": {coverage_ok}}}",
            l.coverage()
        );
    }
    if let Some(c) = daemon_cache {
        let _ = write!(
            report,
            ", \"daemon_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}}}",
            c.entries, c.hits, c.misses
        );
    }
    report.push_str(", \"failures\": [");
    for (i, (id, why)) in v.bad.iter().take(5).enumerate() {
        if i > 0 {
            report.push_str(", ");
        }
        let _ = write!(report, "\"request {id}: {}\"", escape(why));
    }
    report.push_str("]}}");

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
        spans: layer.map(|l| l.spans),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median latency of each request id.
fn per_id_median(execs: &[Exec]) -> BTreeMap<usize, f64> {
    let mut by_id: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for e in execs {
        by_id.entry(e.id).or_default().push(e.latency_ms);
    }
    by_id.into_iter().map(|(id, v)| (id, median(&v))).collect()
}

/// One request of the traced pass: its untraced `Service::execute` time
/// and, right after, its stage-by-stage replay.
#[derive(Debug)]
struct Pair {
    id: usize,
    execute_ms: f64,
    replayed: Replayed,
}

/// What the traced part of a run measured.
#[derive(Debug, Default)]
struct Layers {
    spans: Spans,
    /// The traced pass, in the order it ran.
    pairs: Vec<Pair>,
    /// Served mapping per request id (the cross-check of in-process runs).
    served: Vec<(usize, Vec<u32>)>,
    /// Requests whose execute, replay or served cross-check failed.
    errors: Vec<(usize, String)>,
    /// Request id of every request the traced part sent or replayed.
    ids: Vec<usize>,
    cache_hits: u64,
    cache_misses: u64,
    /// Socket latency minus in-process execute, per paired request.
    transport_ms: Vec<f64>,
    /// Codec cost of each request/response pair.
    codec: Vec<Codec>,
    rejects: usize,
}

impl Layers {
    fn failed(&self, v: &Verdicts) -> usize {
        self.ids.iter().filter(|id| v.bad.contains_key(id)).count()
    }

    /// Σ stage-span time of the replays / Σ untraced execute time of the
    /// same requests. `NaN` without pairs.
    fn coverage(&self) -> f64 {
        let stages: f64 = self.pairs.iter().map(|p| p.replayed.stages_ms).sum();
        let executed: f64 = self.pairs.iter().map(|p| p.execute_ms).sum();
        if executed > 0.0 {
            stages / executed
        } else {
            f64::NAN
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let totals = self.spans.totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or((0.0, 0));
        let per = |sum: f64, count: usize| if count == 0 { 0.0 } else { sum / count as f64 };
        let n = self.pairs.len();
        let mean =
            |f: &dyn Fn(&Replayed) -> f64| per(self.pairs.iter().map(|p| f(&p.replayed)).sum(), n);
        let phase_ms = |p| mean(&|r: &Replayed| r.telemetry.phases.get(p) as f64 / 1e3);
        let [build, sweep, contract, assemble, delta, commit] = TIMER_PHASES.map(phase_ms);
        let busy = per(total("timer").0, n);
        let rounds: usize = self
            .pairs
            .iter()
            .map(|p| p.replayed.telemetry.rounds())
            .sum();
        let accepted: usize = self
            .pairs
            .iter()
            .map(|p| p.replayed.telemetry.accepted)
            .sum();
        let (eval_ms, eval_calls) = total("metrics.evaluate");
        let (rec_ms, rec_calls) = total("topology.recognize");
        let lookups = self.cache_hits + self.cache_misses;
        let codec_mean =
            |f: fn(&Codec) -> f64| per(self.codec.iter().map(f).sum(), self.codec.len());
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let executed: Vec<f64> = self.pairs.iter().map(|p| p.execute_ms).collect();
        let replayed: Vec<f64> = self.pairs.iter().map(|p| p.replayed.request_ms).collect();
        vec![
            metric("timer.busy_ms", busy, "ms"),
            metric("timer.hierarchy_build_ms", build, "ms"),
            metric("timer.sweep_ms", sweep, "ms"),
            metric("timer.contract_ms", contract, "ms"),
            metric("timer.assemble_ms", assemble, "ms"),
            metric("timer.delta_scan_ms", delta, "ms"),
            metric("timer.commit_ms", commit, "ms"),
            metric(
                "timer.other_ms",
                busy - build - assemble - delta - commit,
                "ms",
            ),
            metric("timer.rounds", per(rounds as f64, n), "count"),
            metric("timer.accepted", per(accepted as f64, n), "count"),
            metric(
                "timer.accept_ratio",
                ratio(accepted as f64, rounds as f64),
                "ratio",
            ),
            metric(
                "timer.repaired",
                mean(&|r: &Replayed| r.repaired as f64),
                "count",
            ),
            metric("timer.swaps", mean(&|r: &Replayed| r.swaps as f64), "count"),
            metric("partition.busy_ms", per(total("partition").0, n), "ms"),
            metric("partition.calls", total("partition").1 as f64, "count"),
            metric("mapping.busy_ms", per(total("mapping").0, n), "ms"),
            metric("metrics.evaluate_ms", per(eval_ms, eval_calls), "ms"),
            metric("metrics.evaluate_calls", eval_calls as f64, "count"),
            metric("topology.recognize_ms", per(rec_ms, rec_calls), "ms"),
            metric("mapd.cache.hits", self.cache_hits as f64, "count"),
            metric("mapd.cache.misses", self.cache_misses as f64, "count"),
            metric(
                "mapd.cache.hit_ratio",
                ratio(self.cache_hits as f64, lookups as f64),
                "ratio",
            ),
            metric("mapd.execute_ms", per(executed.iter().sum(), n), "ms"),
            metric("mapd.protocol.encode_ms", codec_mean(|c| c.encode_ms), "ms"),
            metric("mapd.protocol.decode_ms", codec_mean(|c| c.decode_ms), "ms"),
            metric(
                "mapd.protocol.request_bytes",
                codec_mean(|c| c.request_bytes as f64),
                "bytes",
            ),
            metric(
                "mapd.protocol.response_bytes",
                codec_mean(|c| c.response_bytes as f64),
                "bytes",
            ),
            metric(
                "mapd.transport_ms",
                per(self.transport_ms.iter().sum(), self.transport_ms.len()),
                "ms",
            ),
            metric("mapd.admission.rejects", self.rejects as f64, "count"),
            metric("trace.coverage", self.coverage(), "ratio"),
            metric(
                "trace.overhead_ms",
                median(&replayed) - median(&executed),
                "ms",
            ),
            metric("trace.requests", n as f64, "count"),
        ]
    }
}

/// Encode and decode time and frame sizes of one request/response pair.
#[derive(Clone, Copy, Debug)]
struct Codec {
    encode_ms: f64,
    decode_ms: f64,
    request_bytes: usize,
    response_bytes: usize,
}

/// Times both directions of one request/response pair with the protocol
/// calls client and daemon make, and checks the round trip is lossless.
fn codec(req: &Request, resp: &MapResponse) -> Result<Codec, String> {
    let wire_resp = Response::Map(Box::new(resp.clone()));
    let t0 = Instant::now();
    let req_json = req.to_json();
    let resp_json = wire_resp.to_json();
    let t1 = Instant::now();
    let req_back = Request::from_json(&req_json)?;
    let resp_back = Response::from_json(&resp_json)?;
    let t2 = Instant::now();
    if &req_back != req || resp_back != wire_resp {
        return Err("protocol round trip changed a frame".to_string());
    }
    Ok(Codec {
        encode_ms: (t1 - t0).as_secs_f64() * 1e3,
        decode_ms: (t2 - t1).as_secs_f64() * 1e3,
        request_bytes: req_json.len(),
        response_bytes: resp_json.len(),
    })
}

fn new_cache() -> TopologyCache {
    TopologyCache::new(
        ServiceOptions::default().cache_capacity,
        TraceHandle::off(),
        FaultHandle::off(),
    )
}

fn is_reject(message: &str) -> bool {
    message.starts_with("rejected")
}

/// The traced part of a run. First exactly one pass over the requests, in
/// the first untraced pass's order: each request is executed by
/// `Service::execute`, untraced, and then replayed stage by stage, so the
/// two times of a pair come from the same moment of the machine. The pass
/// starts from a fresh `Service` and a fresh replay cache, so the first
/// request per topology misses in both. Then the `mapd` layer: served runs
/// pair every request's untraced socket latency (`latency_ms`, the median
/// per id) with its execute and time the codec on its `first` response;
/// in-process runs serve the first request per topology through a fresh
/// `mapd` as a cross-check.
fn trace(
    opts: &Options,
    spec: &Spec,
    reqs: &[MapRequest],
    first: &BTreeMap<usize, MapResponse>,
    latency_ms: &BTreeMap<usize, f64>,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let svc = service();
    let cache = new_cache();
    let mut execute_ms = BTreeMap::new();
    for (tag, id) in pass_order(opts.seed, 0, reqs.len()).into_iter().enumerate() {
        layers.ids.push(id);
        let begin = Instant::now();
        let executed = svc.execute(&reqs[id]);
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        let resp = match executed {
            Ok(resp) => resp,
            Err(e) => {
                let e = e.to_string();
                layers.rejects += usize::from(is_reject(&e));
                layers.errors.push((id, format!("execute failed: {e}")));
                continue;
            }
        };
        match replay(&reqs[id], &cache, &mut layers.spans, tag as u64) {
            Ok(replayed) => {
                if replayed.mapping != resp.mapping {
                    layers
                        .errors
                        .push((id, "replayed mapping differs from execute".to_string()));
                }
                execute_ms.insert(id, ms);
                layers.pairs.push(Pair {
                    id,
                    execute_ms: ms,
                    replayed,
                });
            }
            Err(e) => layers.errors.push((id, format!("replay failed: {e}"))),
        }
    }
    let stats = cache.stats();
    layers.cache_hits = stats.hits;
    layers.cache_misses = stats.misses;

    if spec.served() {
        for (&id, resp) in first {
            if let (Some(sock), Some(exec)) = (latency_ms.get(&id), execute_ms.get(&id)) {
                layers.transport_ms.push(sock - exec);
            }
            match codec(&Request::Map(Box::new(reqs[id].clone())), resp) {
                Ok(c) => layers.codec.push(c),
                Err(e) => layers.errors.push((id, e)),
            }
        }
        return Ok(layers);
    }

    // Served cross-check: the first request per topology.
    let d = Daemon::start(&opts.launch, &socket_path(opts))?;
    let mut conn = d.connect()?;
    let mut seen = Vec::new();
    for (id, req) in reqs.iter().enumerate() {
        if seen.contains(&req.topology) {
            continue;
        }
        seen.push(req.topology.clone());
        layers.ids.push(id);
        let wire = Request::Map(Box::new(req.clone()));
        let (answer, at) = conn.exchange(&wire)?;
        let socket_ms = (at.decoded - at.start).as_secs_f64() * 1e3;
        match answer {
            Response::Map(resp) => {
                if let Some(ms) = execute_ms.get(&id) {
                    layers.transport_ms.push(socket_ms - ms);
                }
                match codec(&wire, &resp) {
                    Ok(c) => layers.codec.push(c),
                    Err(e) => layers.errors.push((id, e)),
                }
                layers.served.push((id, resp.mapping));
            }
            Response::Error { message } => {
                layers.rejects += usize::from(is_reject(&message));
                layers.errors.push((id, message));
            }
            other => layers
                .errors
                .push((id, format!("unexpected answer {other:?}"))),
        }
    }
    drop(conn);
    d.stop()?;
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_stop_at_the_nearest_pass_boundary() {
        assert!(!span_done(0, 100.0, 1.0), "one pass always runs");
        // Passes of 8 s in a 30 s span: stop after 4 passes (32 s), not 3.
        assert!(!span_done(3, 24.0, 30.0));
        assert!(span_done(4, 32.0, 30.0));
    }

    #[test]
    fn dispatch_stops_only_at_pass_boundaries() {
        let mut d = Dispatch::new(1, 3, 0.0, Instant::now() - Duration::from_secs(1));
        let mut ids = Vec::new();
        let mut segments = 0;
        while d.open_segment(2) {
            segments += 1;
            ids.extend(std::iter::from_fn(|| d.take().map(|(_, id)| id)));
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "one whole pass, then stop");
        assert_eq!(segments, 2, "segments end at the pass boundary");
        assert!(d.take().is_none());
    }

    #[test]
    fn verdicts_flag_errors_and_drifting_mappings() {
        let resp = |m: Vec<u32>| MapResponse {
            cache: "hit".to_string(),
            stop_reason: "completed".to_string(),
            hierarchies_accepted: 0,
            total_swaps: 0,
            initial: tie_mapd::protocol::QualitySummary {
                coco: 10,
                edge_cut: 1,
                congestion: 1,
                imbalance: 0.0,
            },
            enhanced: tie_mapd::protocol::QualitySummary {
                coco: 8,
                edge_cut: 1,
                congestion: 1,
                imbalance: 0.0,
            },
            mapping: m,
        };
        let exec = |id, result| Exec {
            id,
            latency_ms: 1.0,
            result,
        };
        let mut v = Verdicts::default();
        v.absorb(
            &[
                exec(0, Ok(resp(vec![0, 1]))),
                exec(1, Ok(resp(vec![1, 0]))),
                exec(1, Ok(resp(vec![1, 0]))),
                exec(0, Ok(resp(vec![1, 1]))),
            ],
            2,
        );
        assert!(!v.digest_stable());
        assert!(v.bad.contains_key(&0) && !v.bad.contains_key(&1));
        assert_eq!(v.coco_pairs(), vec![(10, 8), (10, 8)]);
        let mut w = Verdicts::default();
        let execs = [exec(0, Err("rejected: deadline".to_string()))];
        w.absorb(&execs, 1);
        assert_eq!(w.failed(&execs), 1);
    }
}
