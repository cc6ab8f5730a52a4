//! `serve_spill`: the Zipf analyze/query/batch mix of
//! `backdroid_appgen::workload`, sent as JSONL lines through an
//! in-process `ShardPool::submit_line`. The store budget holds a quarter
//! of the working set and set-up fills the snapshot directory, so most
//! requests restore their image from disk. The timed run is a closed
//! loop with one request in flight, each timed in the process's CPU
//! seconds; the traced run adds an open loop of seeded Poisson arrivals
//! at a fixed reference rate, for the queue and generator figures.

use crate::corpus::{self, exp_gap};
use crate::layers::{self, Profile, ANALYSIS_LAYERS};
use crate::stats::{median, percentile, tail_percentile, OpenLoopSample};
use crate::{process_cpu_s, repeated_setup, threads, Args, Outcome, WorkDir};
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_core::{AppArtifacts, AppReport, Backdroid, BackdroidOptions, DetectorRegistry};
use backdroid_obs::{HistogramSnapshot, RegistrySnapshot};
use backdroid_service::proto::{
    parse_request, render_analysis, render_batch, workload_request_line,
};
use backdroid_service::shard::execute_request;
use backdroid_service::{
    AppAnalysis, Fetch, Op, Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig,
};
use rand::rngs::StdRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Apps in the working set.
const APPS: usize = 24;
/// Code volume of the served apps (thousandths of paper scale: 200‰).
const CODE_SCALE: f64 = 0.2;
/// Requests in the generated trace (a run cycles through it).
const TRACE_LEN: usize = 60_000;
/// The highest percentile the tail metric reports.
const TAIL_CAP: f64 = 99.0;
/// Zipf skew of app popularity, in thousandths. Same-app requests run
/// one at a time, so under a steeper skew the hottest app alone would
/// cap throughput, and the cap would depend on which app a seed makes
/// hot.
const ZIPF_PERMILLE: u32 = 700;
/// Share of batch requests, in thousandths. A batch costs two to four
/// single-app requests; at the generator's default tenth, the p90 fell
/// on the edge between single-app and batch latencies and jumped from
/// run to run. At a fifth it sits inside the batch latencies.
const BATCH_PERMILLE: u32 = 200;
/// The store budget is the working set divided by this:
/// most requests then restore from disk, so the median sits well inside
/// the disk tier's latencies rather than between the two tiers.
const SPILL_DIVISOR: u64 = 4;
/// Bounded shard queue depth.
const QUEUE_DEPTH: usize = 64;
/// The query variants the workload generator emits.
const QUERY_SETS: [&[&str]; 3] = [&["crypto"], &["ssl"], &["crypto", "ssl"]];

/// The offered rate of the traced run's open loop, per second: about an
/// eighth of the sustained rate on a 2-core machine, so queueing stays
/// small next to a disk restore.
const REFERENCE_RATE: f64 = 60.0;

/// The direct-analysis golden: per app, the `analyze_artifacts` report
/// for the full registry and for each query variant.
struct Golden {
    names: Vec<String>,
    full: Vec<AppReport>,
    queries: Vec<Vec<AppReport>>,
}

impl Golden {
    fn analysis(&self, app: &str, report: &AppReport) -> AppAnalysis {
        let k: usize = app.parse().expect("benchmark app ids are indices");
        AppAnalysis {
            app_id: app.to_string(),
            app_name: self.names[k].clone(),
            report: report.clone(),
            fetch: Fetch::Hit,
        }
    }

    fn report(&self, app: &str, detectors: Option<&[String]>) -> &AppReport {
        let k: usize = app.parse().expect("benchmark app ids are indices");
        match detectors {
            None => &self.full[k],
            Some(d) => {
                let q = QUERY_SETS
                    .iter()
                    .position(|s| s.iter().copied().eq(d.iter().map(String::as_str)))
                    .expect("the generator emits only the known query variants");
                &self.queries[k][q]
            }
        }
    }

    /// The reply line the service must send for `line`.
    fn reply(&self, line: &str) -> String {
        let req = parse_request(line).expect("generated lines parse");
        match &req.op {
            Op::Analyze { app } => render_analysis(
                req.id,
                "analyze",
                &self.analysis(app, self.report(app, None)),
            ),
            Op::Query { app, detectors } => render_analysis(
                req.id,
                "query",
                &self.analysis(app, self.report(app, Some(detectors))),
            ),
            Op::Batch { apps } => {
                let items: Vec<_> = apps
                    .iter()
                    .map(|a| Ok(self.analysis(a, self.report(a, None))))
                    .collect();
                render_batch(req.id, &items)
            }
            other => unreachable!("the generator emits no {other:?}"),
        }
    }
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Builds app `id` (a position in `picked`) from IR: the services' cold
/// load.
fn load(picked: &[usize], id: &str) -> Result<AppArtifacts, String> {
    let bench = backdroid_appgen::benchset::BenchsetConfig::sized(corpus::PAPER_APPS, CODE_SCALE);
    let k: usize = id.parse().map_err(|_| format!("bad app id {id:?}"))?;
    let i = *picked.get(k).ok_or_else(|| format!("no app {k}"))?;
    let app = backdroid_appgen::benchset::bench_app(i, bench).app;
    Ok(AppArtifacts::new(app.program, app.manifest))
}

/// A service whose app ids are positions in `picked`. Batches run on the
/// request's own worker, so the pool uses no threads beyond its workers.
fn service(picked: &Arc<Vec<usize>>, budget: u64, dir: Option<&Path>) -> Service {
    let picked = Arc::clone(picked);
    let cfg = ServiceConfig {
        budget_bytes: budget,
        batch_threads: 1,
        snapshot_dir: dir.map(Path::to_path_buf),
        ..ServiceConfig::default()
    };
    Service::new(cfg, move |id: &str| load(&picked, id))
}

/// One reply: when it arrived (seconds from the phase start) and the
/// hash of its line.
type Arrival = (f64, u64);

/// Replies of one open-loop phase, filled in by the pool's workers.
struct Inbox {
    start: Instant,
    /// Per-sequence-number arrivals, and how many have arrived.
    state: Mutex<(Vec<Option<Arrival>>, usize)>,
    settled: Condvar,
}

impl Inbox {
    fn new(start: Instant) -> Arc<Inbox> {
        Arc::new(Inbox {
            start,
            state: Mutex::new((Vec::new(), 0)),
            settled: Condvar::new(),
        })
    }

    fn responder(self: &Arc<Inbox>) -> Responder {
        let inbox = Arc::clone(self);
        Arc::new(move |seq: u64, reply: Option<String>| {
            let done = inbox.start.elapsed().as_secs_f64();
            let h = reply.as_deref().map_or(0, hash_of);
            let mut st = inbox.state.lock().expect("inbox lock");
            st.0[seq as usize] = Some((done, h));
            st.1 += 1;
            inbox.settled.notify_all();
        })
    }

    fn expect(&self, n: usize) {
        let mut st = self.state.lock().expect("inbox lock");
        let len = st.0.len() + n;
        st.0.resize(len, None);
    }

    fn wait_all(&self, n: usize) -> Vec<Arrival> {
        let mut st = self.state.lock().expect("inbox lock");
        while st.1 < n {
            st = self.settled.wait(st).expect("inbox lock");
        }
        st.0.iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }
}

/// One open-loop phase's results.
struct Phase {
    samples: Vec<OpenLoopSample>,
    failed: u64,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency() * 1e3).collect()
    }
}

/// What a run's set-ups share: the app picks, the golden, and
/// the working set the store budget is cut from. Computed once per run,
/// before the timed set-ups, and not part of `setup_s`.
struct Reference {
    picked: Arc<Vec<usize>>,
    golden: Golden,
    working_set: u64,
}

impl Reference {
    /// Cold-builds every app once and analyzes it directly with
    /// `Backdroid::analyze_artifacts`, for the full registry and for each
    /// query variant. No artifacts outlive the call.
    fn new() -> Reference {
        let picked = Arc::new(corpus::pick_apps(APPS, corpus::ordinary));
        let options = BackdroidOptions::default();
        let per_app: Vec<(String, AppReport, Vec<AppReport>, u64)> =
            backdroid_bench::par_map(APPS, threads(), |k| {
                let arts = load(&picked, &k.to_string()).expect("golden load");
                let tool = |d: DetectorRegistry| {
                    Backdroid::with_options(BackdroidOptions {
                        detectors: d,
                        ..options.clone()
                    })
                    .analyze_artifacts(&arts)
                };
                let queries = QUERY_SETS
                    .iter()
                    .map(|s| tool(DetectorRegistry::paper().select(s).expect("known detector")))
                    .collect();
                (
                    arts.manifest().package().to_string(),
                    tool(DetectorRegistry::paper()),
                    queries,
                    arts.estimated_bytes(),
                )
            });
        let mut golden = Golden {
            names: vec![],
            full: vec![],
            queries: vec![],
        };
        let mut working_set = 0;
        for (name, full, queries, bytes) in per_app {
            golden.names.push(name);
            golden.full.push(full);
            golden.queries.push(queries);
            working_set += bytes;
        }
        Reference {
            picked,
            golden,
            working_set,
        }
    }

    fn budget(&self) -> u64 {
        self.working_set / SPILL_DIVISOR
    }
}

struct Setup {
    pool: ShardPool,
    lines: Vec<String>,
    _dir: WorkDir,
}

/// The timed set-up: trace generation, service start, cold loads and
/// snapshot writes.
fn setup(args: &Args, r: &Reference, rep: usize) -> Setup {
    let budget = r.budget();
    let dir = WorkDir::new(&format!("spill{rep}"));
    let pool_picked = Arc::clone(&r.picked);
    let pool_dir = dir.0.clone();
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 1,
            workers_per_shard: threads(),
            queue_capacity: QUEUE_DEPTH,
            trace_capacity: 0,
        },
        move |_| service(&pool_picked, budget, Some(&pool_dir)),
    );
    // Cold-load every app through the pool (and, with a snapshot
    // directory, write every snapshot).
    let inbox = Inbox::new(Instant::now());
    inbox.expect(APPS);
    let responder = inbox.responder();
    for k in 0..APPS {
        let line = format!("{{\"id\":{k},\"op\":\"analyze\",\"app\":\"{k}\"}}");
        pool.submit_line(k as u64, &line, &responder);
    }
    inbox.wait_all(APPS);

    let trace = workload::generate(WorkloadConfig {
        apps: APPS,
        requests: TRACE_LEN,
        seed: args.seed,
        zipf_permille: ZIPF_PERMILLE,
        batch_permille: BATCH_PERMILLE,
        ..WorkloadConfig::default()
    });
    let lines = trace
        .iter()
        .enumerate()
        .map(|(i, r)| workload_request_line(i as u64, r))
        .collect();
    Setup {
        pool,
        lines,
        _dir: dir,
    }
}

/// Sends requests for `seconds` from `cursor` on in the trace, with
/// Poisson arrivals at `rate`, waits for every reply, and checks each
/// against the golden.
fn open_loop(
    s: &Setup,
    golden: &Golden,
    cursor: &mut usize,
    rate: f64,
    seconds: f64,
    rng: &mut StdRng,
) -> Phase {
    let start = Instant::now();
    let inbox = Inbox::new(start);
    let responder = inbox.responder();
    let mut sent: Vec<(f64, f64, usize)> = Vec::new();
    let mut due = 0.0;
    loop {
        due += exp_gap(rate, rng);
        if due >= seconds {
            break;
        }
        let wait = due - start.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let line = *cursor % s.lines.len();
        *cursor += 1;
        inbox.expect(1);
        let at = start.elapsed().as_secs_f64();
        s.pool
            .submit_line(sent.len() as u64, &s.lines[line], &responder);
        sent.push((due, at, line));
    }
    let replies = inbox.wait_all(sent.len());
    let mut failed = 0;
    let samples = sent
        .iter()
        .zip(&replies)
        .map(|(&(due, at, line), &(done, h))| {
            failed += u64::from(h != hash_of(&golden.reply(&s.lines[line])));
            OpenLoopSample {
                due,
                sent: at,
                done,
            }
        })
        .collect();
    Phase { samples, failed }
}

/// Sends requests from `cursor` on in the trace, one at a time: each is
/// sent once the previous reply has arrived, until `seconds` have
/// passed. Returns each request's CPU seconds (of the whole process, so
/// the pool worker's share counts) and wall seconds, and how many
/// replies differ from the golden.
fn closed_loop(
    s: &Setup,
    golden: &Golden,
    cursor: &mut usize,
    seconds: f64,
) -> (Vec<(f64, f64)>, u64) {
    let (tx, rx) = mpsc::channel::<Option<String>>();
    let tx = Mutex::new(tx);
    let responder: Responder = Arc::new(move |_, reply| {
        let _ = tx.lock().expect("reply channel").send(reply);
    });
    let start = Instant::now();
    let (mut samples, mut failed) = (vec![], 0);
    while start.elapsed().as_secs_f64() < seconds {
        let line = &s.lines[*cursor % s.lines.len()];
        *cursor += 1;
        let (t, cpu) = (Instant::now(), process_cpu_s());
        s.pool.submit_line(samples.len() as u64, line, &responder);
        let reply = rx.recv().expect("every request answered");
        samples.push((process_cpu_s() - cpu, t.elapsed().as_secs_f64()));
        failed += u64::from(reply.as_deref() != Some(golden.reply(line).as_str()));
    }
    (samples, failed)
}

pub fn run(args: &Args) -> Outcome {
    let r = Reference::new();
    let (s, setup_s) = repeated_setup(|rep| setup(args, &r, rep));
    let mut out = Outcome::default();
    let mut cursor = 0;
    if !args.trace {
        let before = s.pool.metrics();
        let (samples, failed) = closed_loop(&s, &r.golden, &mut cursor, args.seconds);
        let after = s.pool.metrics();
        out.count(samples.len() as u64, failed);
        let cpu_ms: Vec<f64> = samples.iter().map(|x| x.0 * 1e3).collect();
        let ms: Vec<f64> = samples.iter().map(|x| x.1 * 1e3).collect();
        let q = tail_percentile(ms.len(), TAIL_CAP);
        let d = |n: &str| (after.value(n) - before.value(n)) as f64;
        out.note(format!(
            "wall: {} requests, req_per_s = {}, req_p50_ms = {} ms, req_p{q}_ms = {} ms",
            ms.len(),
            ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
            median(&ms),
            percentile(&ms, q),
        ));
        out.note(format!(
            "store: {} memory hits, {} disk restores, {} evictions",
            d("store_hits_total"),
            d("store_disk_hits_total"),
            d("store_evictions_total")
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        out.metric(
            "ops_per_cpu_s",
            cpu_ms.len() as f64 / (cpu_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        out.metric("op_cpu_p50_ms", median(&cpu_ms), "ms");
        out.metric("op_cpu_tail_ms", percentile(&cpu_ms, q), "ms");
        return out;
    }

    let mut rng = corpus::rng(args.seed, 3);
    let before = s.pool.metrics();
    let rate = REFERENCE_RATE;
    let reference = open_loop(
        &s,
        &r.golden,
        &mut cursor,
        rate,
        args.seconds * 0.5,
        &mut rng,
    );
    let after = s.pool.metrics();
    out.count(reference.samples.len() as u64, reference.failed);
    let lat = reference.latencies_ms();
    let late: Vec<f64> = reference
        .samples
        .iter()
        .map(|x| x.lateness() * 1e3)
        .collect();
    out.note(format!(
        "reference {rate}/s: {} requests, req_p50_ms = {} ms, req_p90_ms = {} ms, \
         req_p99_ms = {} ms, generator late p50 {:.3} ms p99 {:.3} ms",
        lat.len(),
        median(&lat),
        percentile(&lat, 90.0),
        percentile(&lat, 99.0),
        percentile(&late, 50.0),
        percentile(&late, 99.0),
    ));
    let mut p = profile(&s, &r, &mut cursor, args.seconds * 0.5, &mut out);
    serving_metrics(&mut p, &before, &after);
    p.set("loadgen.late_p99_ms", percentile(&late, 99.0));
    let covered = ["service.parse", "service.fetch", "service.emit"]
        .iter()
        .chain(&ANALYSIS_LAYERS)
        .copied()
        .collect::<Vec<_>>();
    layers::report(&mut out, &p, &covered);
    out
}

/// Bucketwise difference of two snapshots of one histogram.
fn hist_delta(
    after: &RegistrySnapshot,
    before: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut h = after.histogram(name).cloned().unwrap_or_default();
    if let Some(b) = before.histogram(name) {
        for (x, y) in h.buckets.iter_mut().zip(b.buckets.iter()) {
            *x -= y;
        }
        h.count -= b.count;
        h.sum -= b.sum;
    }
    h
}

/// The pool's own serving metrics over the reference phase.
fn serving_metrics(p: &mut Profile, before: &RegistrySnapshot, after: &RegistrySnapshot) {
    let wait = hist_delta(after, before, "pool_queue_wait_us");
    p.set(
        "service.queue_wait_p50_ms",
        wait.quantile_upper(0.5) as f64 / 1e3,
    );
    p.set(
        "service.queue_wait_p99_ms",
        wait.quantile_upper(0.99) as f64 / 1e3,
    );
    p.set(
        "service.exec_hit_ms",
        hist_delta(after, before, "request_hit_us").mean() / 1e3,
    );
    p.set(
        "service.exec_disk_ms",
        hist_delta(after, before, "request_disk_us").mean() / 1e3,
    );
    let d = |n: &str| (after.value(n) - before.value(n)) as f64;
    let fetches = d("store_hits_total")
        + d("store_misses_total")
        + d("store_coalesced_total")
        + d("store_disk_hits_total");
    p.set(
        "service.hit_ratio",
        d("store_hits_total") / fetches.max(1.0),
    );
    p.set("service.evictions", d("store_evictions_total"));
}

/// The traced analysis stack of the serving path: requests of the trace
/// run first untraced through `execute_request`, then the same requests
/// one layer call at a time on artifacts fetched through
/// `Service::store()`, checked against the golden.
fn profile(
    s: &Setup,
    r: &Reference,
    cursor: &mut usize,
    seconds: f64,
    out: &mut Outcome,
) -> Profile {
    let options = BackdroidOptions::default();
    let backend = options.backend;
    // A second service like the pool's, with its own snapshot
    // directory, so fetches restore from disk as in the untraced run.
    let dir = WorkDir::new("profile");
    let svc = service(&r.picked, r.budget(), Some(&dir.0));
    for k in 0..APPS {
        svc.analyze_app(&k.to_string()).expect("warm-up analysis");
    }
    let disk = svc
        .store()
        .disk_tier()
        .expect("the service has a disk tier");
    let mut p = Profile::default();

    // Snapshot encode and decode (with first touch of every lazy
    // section), over every app of the working set, each freshly built.
    for k in 0..APPS {
        let arts = load(&r.picked, &k.to_string()).expect("app loads");
        let bytes = layers::timed(&mut p, "core.snapshot_encode", || arts.to_snapshot());
        p.add("core.snapshot_bytes", bytes.len() as f64);
        p.add("core.snapshots", 1.0);
        layers::timed(&mut p, "core.snapshot_decode", || {
            let r = AppArtifacts::from_snapshot(&bytes, backend).expect("fresh snapshot");
            std::hint::black_box((r.program().class_count(), r.engine().text().line(0).len()));
            std::hint::black_box(r.engine().text().search_index());
        });
    }

    // Untraced first, for the overhead comparison.
    let half = Instant::now();
    let from = *cursor;
    let mut untraced_ms = vec![];
    while half.elapsed().as_secs_f64() < seconds * 0.4 {
        let line = &s.lines[*cursor % s.lines.len()];
        *cursor += 1;
        let t = Instant::now();
        let req = parse_request(line).expect("generated lines parse");
        let reply = execute_request(&svc, &req);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.count(
            1,
            u64::from(reply.as_deref() != Some(&r.golden.reply(line))),
        );
    }
    // Per app: the image a twin was made for (held, so a later image
    // can never reuse its address) and the twin.
    let mut twins: HashMap<usize, (Arc<AppArtifacts>, AppArtifacts)> = HashMap::new();
    let mut traced_ms = vec![];
    for i in from..*cursor {
        let line = &s.lines[i % s.lines.len()];
        let mut op = Profile::default();
        let t = Instant::now();
        let req = layers::timed(&mut op, "service.parse", || parse_request(line))
            .expect("generated lines parse");
        let (apps, detectors) = match &req.op {
            Op::Analyze { app } => (vec![app.clone()], None),
            Op::Query { app, detectors } => (vec![app.clone()], Some(detectors.clone())),
            Op::Batch { apps } => (apps.clone(), None),
            other => unreachable!("the generator emits no {other:?}"),
        };
        let mut analyses = vec![];
        for app in &apps {
            let (arts, fetch) = layers::timed(&mut op, "service.fetch", || svc.store().get(app))
                .expect("app loads");
            let mut opts = options.clone();
            if let Some(d) = &detectors {
                opts.detectors = DetectorRegistry::paper().select(d).expect("known detector");
            }
            let k: usize = app.parse().expect("index id");
            if twins
                .get(&k)
                .is_none_or(|(seen, _)| !Arc::ptr_eq(seen, &arts))
            {
                // Twin set-up is no part of the op.
                let t_twin = Instant::now();
                let bytes = std::fs::read(disk.path_for(app)).expect("snapshot on disk");
                let twin = AppArtifacts::from_snapshot(&bytes, backend).expect("snapshot restores");
                if fetch == Fetch::Hit {
                    // The resident image has served earlier requests:
                    // bring the twin's cache to the same warm state.
                    Backdroid::with_options(options.clone()).analyze_artifacts(&twin);
                }
                twins.insert(k, (Arc::clone(&arts), twin));
                op.add("trace.twin", t_twin.elapsed().as_secs_f64());
            }
            let reports = layers::analyze(&mut op, &arts, &opts, twins[&k].1.engine());
            let golden = r.golden.report(app, detectors.as_deref());
            out.count(0, u64::from(golden.sink_reports != reports));
            analyses.push(r.golden.analysis(app, golden));
        }
        let reply = layers::timed(&mut op, "service.emit", || match &req.op {
            Op::Batch { .. } => {
                render_batch(req.id, &analyses.into_iter().map(Ok).collect::<Vec<_>>())
            }
            Op::Query { .. } => render_analysis(req.id, "query", &analyses[0]),
            _ => render_analysis(req.id, "analyze", &analyses[0]),
        });
        let wall = t.elapsed().as_secs_f64();
        out.count(1, u64::from(reply != r.golden.reply(line)));
        op.ops = 1;
        op.op_s = wall - op.get("trace.replay") - op.get("trace.twin");
        traced_ms.push(op.op_s * 1e3);
        p.absorb(&op);
    }
    p.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
    );
    p
}
