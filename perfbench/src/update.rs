//! `update_stream`: writes beside reads on one `Service` with a snapshot
//! directory. A closed loop publishes a new version of a Zipf-picked app
//! with `put_version`, analyzes it with `analyze_delta`, then reads
//! another Zipf-picked app with `analyze`, one op at a time, each timed
//! in the process's CPU seconds.

use crate::corpus::{self, Zipf};
use crate::layers::{self, timed, Profile};
use crate::stats::{median, percentile, tail_percentile};
use crate::{process_cpu_s, repeated_setup, threads, Args, Outcome, WorkDir};
use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::mutate_version;
use backdroid_core::{
    apply_delta, chunk_key, AppArtifacts, Backdroid, BackdroidOptions, ChunkManifest, ChunkStore,
    DeltaBase,
};
use backdroid_dex::{dump_image_with_marks, DexImage};
use backdroid_search::{BytecodeText, ClassSegment, TokenCache};
use backdroid_service::proto::render_analysis;
use backdroid_service::{AppAnalysis, Fetch, Service, ServiceConfig};
use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Apps the stream updates and reads.
const APPS: usize = 32;
/// Code volume (thousandths of paper scale: 200‰).
const CODE_SCALE: f64 = 0.2;
/// The highest percentile the tail metric reports. The p99 falls among
/// the rare updates whose mutation forces a full re-analysis, and so
/// moved with the seed by a factor of two.
const TAIL_CAP: f64 = 90.0;
/// Zipf skew of the app picks.
const ZIPF_S: f64 = 0.7;

/// The deterministic reply body of an analysis, hashed.
fn reply_hash(op: &str, a: &AppAnalysis) -> u64 {
    let mut h = DefaultHasher::new();
    render_analysis(0, op, a).hash(&mut h);
    h.finish()
}

/// One published update: the app, the mutation seed, the CPU and wall
/// seconds from `put_version` to the `analyze_delta` verdict, and the
/// verdicts' hash.
struct Update {
    app: usize,
    seed: u64,
    cpu: f64,
    secs: f64,
    hash: u64,
}

/// One read: the app, its CPU and wall seconds, and the reply's hash.
type Read = (usize, f64, f64, u64);

struct Setup {
    service: Service,
    picked: Vec<usize>,
    _dir: WorkDir,
}

fn bench() -> BenchsetConfig {
    BenchsetConfig::sized(corpus::PAPER_APPS, CODE_SCALE)
}

fn setup(rep: usize) -> Setup {
    let picked = corpus::pick_apps(APPS, corpus::ordinary);
    let dir = WorkDir::new(&format!("update{rep}"));
    let ids = picked.clone();
    let service = Service::new(
        ServiceConfig {
            budget_bytes: u64::MAX,
            batch_threads: 1,
            snapshot_dir: Some(dir.0.clone()),
            ..ServiceConfig::default()
        },
        move |id: &str| {
            let k: usize = id.parse().map_err(|_| format!("bad app id {id:?}"))?;
            let app = bench_app(*ids.get(k).ok_or("no such app")?, bench()).app;
            Ok(AppArtifacts::new(app.program, app.manifest))
        },
    );
    // Cold loads, snapshot writes and the delta-base capture.
    backdroid_bench::par_map(APPS, threads(), |k| {
        service
            .analyze_delta(&k.to_string())
            .expect("initial analysis")
    });
    Setup {
        service,
        picked,
        _dir: dir,
    }
}

/// Publishes a new version of `app` from `seed` and analyzes it by
/// delta, timed in CPU and wall seconds.
fn publish(s: &Setup, app: usize, seed: u64) -> Update {
    let id = app.to_string();
    let (t, cpu) = (Instant::now(), process_cpu_s());
    s.service.put_version(&id, seed).expect("put_version");
    let a = s.service.analyze_delta(&id).expect("analyze_delta");
    let (cpu, secs) = (process_cpu_s() - cpu, t.elapsed().as_secs_f64());
    Update {
        app,
        seed,
        cpu,
        secs,
        hash: reply_hash("analyze_delta", &a),
    }
}

/// The closed loop until the deadline: an update, then a read. Returns
/// the updates and the reads.
fn stream(
    s: &Setup,
    seconds: f64,
    rng: &mut rand::rngs::StdRng,
    zipf: &Zipf,
    mut traced: Option<&mut dyn FnMut(&Update)>,
) -> (Vec<Update>, Vec<Read>) {
    let start = Instant::now();
    let (mut updates, mut reads) = (vec![], vec![]);
    while start.elapsed().as_secs_f64() < seconds {
        let app = zipf.sample(rng);
        let u = publish(s, app, rng.next_u64());
        if let Some(f) = traced.as_mut() {
            f(&u);
        }
        updates.push(u);

        let k = zipf.sample(rng);
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let a = s.service.analyze_app(&k.to_string()).expect("read");
        let (cpu, secs) = (process_cpu_s() - cpu, t.elapsed().as_secs_f64());
        reads.push((k, cpu, secs, reply_hash("analyze", &a)));
    }
    (updates, reads)
}

/// Checks every delta verdict against a from-scratch analysis of the
/// version it was published as, and every read against some version of
/// its app. Returns the number of mismatches.
fn verify(s: &Setup, history: &[&Update], reads: &[Read]) -> u64 {
    let bad: Vec<u64> = backdroid_bench::par_map(APPS, threads(), |k| {
        let base = bench_app(s.picked[k], bench()).app;
        let (mut program, manifest) = (base.program, base.manifest);
        let id = k.to_string();
        // The (analyze, analyze_delta) reply hashes of one version.
        let render = |program: &backdroid_ir::Program| {
            let a = AppAnalysis {
                app_id: id.clone(),
                app_name: manifest.package().to_string(),
                report: Backdroid::new().analyze(program, &manifest),
                fetch: Fetch::Hit,
            };
            (reply_hash("analyze", &a), reply_hash("analyze_delta", &a))
        };
        let mut versions: HashSet<u64> = HashSet::from([render(&program).0]);
        let mut bad = 0;
        for u in history.iter().filter(|u| u.app == k) {
            program = mutate_version(&program, u.seed).0;
            let (read, delta) = render(&program);
            bad += u64::from(delta != u.hash);
            versions.insert(read);
        }
        bad + reads
            .iter()
            .filter(|r| r.0 == k && !versions.contains(&r.3))
            .count() as u64
    });
    bad.iter().sum()
}

/// The decomposed update path of one app, outside the service: the same
/// version chain, one layer call at a time, with chunks persisted to a
/// chunk store of the benchmark's own.
struct SideChain {
    artifacts: Arc<AppArtifacts>,
    cache: TokenCache,
    base: DeltaBase,
}

impl SideChain {
    /// Starts from `current`, whose chunks go to `store` untimed, as the
    /// service's own store already holds them.
    fn start(current: &AppArtifacts, store: &ChunkStore) -> SideChain {
        store
            .put_program(current.program())
            .expect("write the side chain's chunks");
        let (artifacts, cache, _) = AppArtifacts::with_backend_cached(
            current.program().clone(),
            current.manifest().clone(),
            current.engine().backend_choice(),
            &TokenCache::default(),
        );
        let base = Backdroid::new().analyze_artifacts_traced(&artifacts).1;
        SideChain {
            artifacts: Arc::new(artifacts),
            cache,
            base,
        }
    }

    /// Publishes version n+1 from `seed` and analyzes it by delta.
    /// Returns the delta verdicts' hash.
    fn update(&mut self, p: &mut Profile, store: &ChunkStore, id: &str, seed: u64) -> u64 {
        let old = &self.artifacts;
        let (mutated, _) = timed(p, "appgen.mutate", || mutate_version(old.program(), seed));
        let next = timed(p, "core.chunk_diff", || {
            let next = ChunkManifest::of_program(&mutated);
            std::hint::black_box(old.chunk_manifest().diff(&next));
            next
        });
        timed(p, "core.chunk_write", || store.put_program(&mutated))
            .expect("write the side chain's chunks");
        let program = timed(p, "core.apply_delta", || {
            apply_delta(old.program(), old.chunk_manifest(), &next, store)
        })
        .expect("every chunk was just written");
        let image = timed(p, "dex.encode", || DexImage::encode(&program));
        let (dump, marks) = timed(p, "dex.dump", || dump_image_with_marks(&image));
        p.add("dex.dump_lines", dump.lines().count() as f64);
        let (text, cache, reused) = timed(p, "search.token_index", || {
            let segments: Vec<ClassSegment> = marks
                .iter()
                .map(|m| ClassSegment {
                    key: chunk_key(program.class(&m.name).expect("marked class")),
                    start: m.line_start,
                    end: m.line_end,
                })
                .collect();
            BytecodeText::index_with_token_cache(&dump, &segments, &self.cache)
        });
        p.add("search.tokens_reused", reused as f64);
        p.add("search.token_classes", marks.len() as f64);
        let backend = old.engine().backend_choice();
        let manifest = old.manifest().clone();
        let new = Arc::new(AppArtifacts::from_parts(program, manifest, text, backend));
        let tool = Backdroid::with_options(BackdroidOptions::default());
        let (report, base, stats) = timed(p, "core.delta_analysis", || {
            tool.analyze_delta(old, Some(&self.base), &new)
        });
        p.add("core.deltas", 1.0);
        p.add(
            "core.delta_fallbacks",
            f64::from(u8::from(stats.full_fallback)),
        );
        p.add("core.sinks_reused", stats.sinks_reused as f64);
        p.add(
            "core.delta_sites",
            (stats.sinks_reused + stats.sinks_reanalyzed) as f64,
        );
        let a = AppAnalysis {
            app_id: id.to_string(),
            app_name: new.manifest().package().to_string(),
            report,
            fetch: Fetch::Hit,
        };
        *self = SideChain {
            artifacts: new,
            cache,
            base,
        };
        reply_hash("analyze_delta", &a)
    }
}

/// Layers the decomposed update op is made of.
const UPDATE_LAYERS: [&str; 8] = [
    "appgen.mutate",
    "core.chunk_diff",
    "core.chunk_write",
    "core.apply_delta",
    "dex.encode",
    "dex.dump",
    "search.token_index",
    "core.delta_analysis",
];

pub fn run(args: &Args) -> Outcome {
    let (s, setup_s) = repeated_setup(setup);
    let mut rng = corpus::rng(args.seed, 4);
    let zipf = Zipf::new(APPS, ZIPF_S, &mut corpus::rng(args.seed, 6));
    let mut out = Outcome::default();
    // Warm-up, untimed: the first update of an app cold-builds its token
    // cache, and under Zipf picks the rarer apps reach theirs late, so
    // without it the median fell as the run went on.
    let warm: Vec<Update> = (0..APPS).map(|k| publish(&s, k, rng.next_u64())).collect();
    let first_s = args.seconds * if args.trace { 0.5 } else { 1.0 };
    let (updates, reads) = stream(&s, first_s, &mut rng, &zipf, None);
    let update_ms: Vec<f64> = updates.iter().map(|u| u.secs * 1e3).collect();

    if !args.trace {
        let history: Vec<&Update> = warm.iter().chain(&updates).collect();
        let bad = verify(&s, &history, &reads);
        out.count((history.len() + reads.len()) as u64, bad);
        let update_cpu_ms: Vec<f64> = updates.iter().map(|u| u.cpu * 1e3).collect();
        let read_ms: Vec<f64> = reads.iter().map(|r| r.2 * 1e3).collect();
        let read_cpu_ms: Vec<f64> = reads.iter().map(|r| r.1 * 1e3).collect();
        let q = tail_percentile(update_ms.len(), TAIL_CAP);
        out.note(format!(
            "wall: {} updates, update_p50_ms = {} ms, update_p{q}_ms = {} ms",
            updates.len(),
            median(&update_ms),
            percentile(&update_ms, q)
        ));
        out.note(format!(
            "{} reads, read_p50_ms = {} ms (cpu {} ms), read_p{q}_ms = {} ms (cpu {} ms)",
            reads.len(),
            median(&read_ms),
            median(&read_cpu_ms),
            percentile(&read_ms, q),
            percentile(&read_cpu_ms, q)
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        out.metric(
            "ops_per_cpu_s",
            update_cpu_ms.len() as f64 / (update_cpu_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        out.metric("op_cpu_p50_ms", median(&update_cpu_ms), "ms");
        out.metric("op_cpu_tail_ms", percentile(&update_cpu_ms, q), "ms");
        return out;
    }

    // Traced half: every update also runs through the side chain, which
    // starts from each app's current version. The op is the service's
    // own update (`put_version` through the `analyze_delta` verdict); the
    // side chain's layers decompose it, and what they leave out (snapshot
    // writes, store swaps, lock waits) shows as uncovered.
    let side_dir = WorkDir::new("sidechunks");
    let store = ChunkStore::open(&side_dir.0).expect("open the side chain's chunk store");
    let mut chains: Vec<SideChain> = (0..APPS)
        .map(|k| {
            let (current, _) = s.service.store().get(&k.to_string()).expect("resident app");
            SideChain::start(&current, &store)
        })
        .collect();
    let mut p = Profile::default();
    let mut traced_ms = vec![];
    let mut side_bad = 0u64;
    let chunks_before = s.service.metrics().snapshot().value("chunks_written_total");
    let put_before = s
        .service
        .metrics()
        .snapshot()
        .histogram("update_latency_us")
        .cloned()
        .unwrap_or_default();
    let mut on_update = |u: &Update| {
        let hash = chains[u.app].update(&mut p, &store, &u.app.to_string(), u.seed);
        side_bad += u64::from(hash != u.hash);
        traced_ms.push(u.secs * 1e3);
        p.ops += 1;
        p.op_s += u.secs;
    };
    let (traced_updates, traced_reads) = stream(
        &s,
        args.seconds * 0.5,
        &mut rng,
        &zipf,
        Some(&mut on_update),
    );
    let snap = s.service.metrics().snapshot();
    let put = snap
        .histogram("update_latency_us")
        .cloned()
        .unwrap_or_default();
    let puts = (put.count - put_before.count) as f64;
    p.add(
        "service.put_version",
        (put.sum - put_before.sum) as f64 / 1e6 * p.ops as f64 / puts.max(1.0),
    );
    p.add(
        "service.chunks_written",
        (snap.value("chunks_written_total") - chunks_before) as f64 * p.ops as f64 / puts.max(1.0),
    );
    let history: Vec<&Update> = warm.iter().chain(&updates).chain(&traced_updates).collect();
    let all_reads: Vec<_> = reads.iter().chain(&traced_reads).copied().collect();
    let bad = verify(&s, &history, &all_reads) + side_bad;
    out.count((history.len() + all_reads.len()) as u64, bad);
    p.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&update_ms) - 1.0,
    );
    layers::report(&mut out, &p, &UPDATE_LAYERS);
    out
}
