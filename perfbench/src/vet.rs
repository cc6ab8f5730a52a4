//! `vet_corpus`: the paper's §VI batch run. A closed loop over the
//! `par_map` corpus driver builds every app of a seeded, paper-scale
//! corpus from IR and analyzes it fully, one app per call.

use crate::layers::{self, Profile, ANALYSIS_LAYERS, BUILD_LAYERS};
use crate::stats::{median, percentile, spearman, tail_percentile};
use crate::{corpus, repeated_setup, thread_cpu_s, threads, Args, Outcome};
use backdroid_appgen::AndroidApp;
use backdroid_bench::harness::backdroid_minutes;
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions, SinkReport};
use std::time::Instant;

/// Apps in the corpus (the §VI-C profile mix, stratified by size). The
/// p90 falls among the timeout-profile apps, so it needs a dozen of them
/// for one app not to decide it. The count is odd: every app has as many
/// samples as there are passes, and with an even count the median would
/// sit on the edge between two apps' samples and jump between them.
const APPS: usize = 37;
/// Code volume, a quarter of paper scale (250‰). At paper scale a pass
/// took ~8 s, so a run held three, each app's median rested on three
/// samples, and the per-app figures moved by 10-15% between runs.
const CODE_SCALE: f64 = 0.25;
/// A run completes at least this many passes even past its deadline, so
/// the p90 always has ten or more samples beyond it.
const MIN_PASSES: usize = 3;

/// One completed app: corpus position, CPU seconds and wall seconds to
/// verdict, and whether the verdicts matched the ground truth.
type Done = (usize, f64, f64, bool);

/// The sink ids of the reports flagged vulnerable, sorted.
fn flagged<'a>(reports: impl IntoIterator<Item = &'a SinkReport>) -> Vec<&'a str> {
    let mut ids: Vec<&str> = reports
        .into_iter()
        .filter(|r| r.reachable && r.verdict.is_vulnerable())
        .map(|r| r.sink_id.as_str())
        .collect();
    ids.sort_unstable();
    ids
}

/// The closed loop: one worker runs `op` on each app of the seeded
/// order, in whole passes over the corpus. A pass starts while the
/// deadline has not passed, or while fewer than `min_passes` have run,
/// and once started it runs to its end, so every run times the same mix
/// of apps. One worker, not `nproc`: with two, each app's CPU time
/// depended on which app the other worker ran beside it (they share the
/// memory system), and so on the order.
fn closed_loop<T>(
    order: &[usize],
    seconds: f64,
    min_passes: usize,
    mut op: impl FnMut(usize) -> T,
) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut passes = 0;
    while passes < min_passes || start.elapsed().as_secs_f64() < seconds {
        out.extend(order.iter().map(|&k| op(k)));
        passes += 1;
    }
    (out, start.elapsed().as_secs_f64())
}

/// The untraced op: `Backdroid::analyze` from IR (encode, dump, index,
/// then the sink-task scheduler), timed in the worker thread's CPU
/// seconds and in wall seconds.
fn vet(app: &AndroidApp) -> (f64, f64, bool) {
    let (t, cpu) = (Instant::now(), thread_cpu_s());
    let report = Backdroid::new().analyze(&app.program, &app.manifest);
    let (cpu, secs) = (thread_cpu_s() - cpu, t.elapsed().as_secs_f64());
    let ok = flagged(&report.sink_reports) == corpus::expected_vulnerable(app);
    (cpu, secs, ok)
}

/// The traced op: the same work one layer call at a time. Returns the
/// app's profile, its linear-model minutes and dump lines (for the cost
/// model check), and whether every check held.
fn vet_traced(app: &AndroidApp) -> (Profile, f64, bool) {
    let options = BackdroidOptions::default();
    let backend = options.backend;
    let mut p = Profile::default();
    let t = Instant::now();
    let (text, dump) = layers::build(&mut p, &app.program);
    let built = t.elapsed().as_secs_f64();
    // The program clone is no part of any layer.
    let artifacts =
        AppArtifacts::from_parts(app.program.clone(), app.manifest.clone(), text, backend);
    let twin = backdroid_search::SearchEngine::with_backend(
        backdroid_search::BytecodeText::index(&dump),
        backend,
    );
    let t = Instant::now();
    let before = artifacts.engine().stats();
    let reports = layers::analyze(&mut p, &artifacts, &options, &twin);
    let scanned = artifacts.engine().stats().since(&before).lines_scanned;
    // The twin replays are not part of the op.
    p.op_s = built + t.elapsed().as_secs_f64() - p.get("trace.replay");
    p.ops = 1;
    let golden = Backdroid::with_options(options).analyze_artifacts(&artifacts);
    let ok =
        golden.sink_reports == reports && flagged(&reports) == corpus::expected_vulnerable(app);
    let minutes = backdroid_minutes(scanned, p.get("dex.dump_lines") as u64);
    (p, minutes, ok)
}

pub fn run(args: &Args) -> Outcome {
    let (apps, setup_s) = repeated_setup(|_| {
        let picked = corpus::pick_apps(APPS, |_| true);
        corpus::generate(&picked, CODE_SCALE, threads())
    });
    let corpus_mb = crate::rss_mb();
    // The seed picks where in the corpus the passes start. Every pass
    // runs the apps in the same cyclic order, so the allocator sees the
    // same sequence of apps whatever the seed.
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.rotate_left((args.seed % apps.len() as u64) as usize);

    let mut out = Outcome::default();
    // A traced run spends half its time untraced, for the overhead.
    let (untraced_s, min_passes) = if args.trace {
        (args.seconds * 0.5, 1)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let (done, elapsed): (Vec<Done>, f64) = closed_loop(&order, untraced_s, min_passes, |k| {
        let (cpu, secs, ok) = vet(&apps[k]);
        (k, cpu, secs, ok)
    });
    let bad = done.iter().filter(|d| !d.3).count() as u64;
    out.count(done.len() as u64, bad);
    let cpu_ms: Vec<f64> = done.iter().map(|d| d.1 * 1e3).collect();
    let ms: Vec<f64> = done.iter().map(|d| d.2 * 1e3).collect();

    if !args.trace {
        let q = tail_percentile(ms.len(), 90.0);
        assert_eq!(q, 90.0, "MIN_PASSES keeps ten apps beyond the p90");
        out.note(format!(
            "wall: apps_per_s = {} apps/s; app_p50_ms = {} ms; app_p{q}_ms = {} ms ({} apps)",
            done.len() as f64 / elapsed,
            median(&ms),
            percentile(&ms, q),
            ms.len()
        ));
        out.note(format!("corpus resident = {corpus_mb} MiB"));
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        // The closed loop returns whole passes in corpus order: the
        // median pass's rate passes over a burst of host contention.
        let per_pass: Vec<f64> = cpu_ms
            .chunks(order.len())
            .map(|pass| pass.len() as f64 / (pass.iter().sum::<f64>() / 1e3))
            .collect();
        out.note(format!("{} passes", per_pass.len()));
        out.metric("ops_per_cpu_s", median(&per_pass), "1/s");
        out.metric("op_cpu_p50_ms", median(&cpu_ms), "ms");
        out.metric("op_cpu_tail_ms", percentile(&cpu_ms, q), "ms");
        return out;
    }

    let (traced, _) = closed_loop(&order, args.seconds * 0.5, 1, |k| vet_traced(&apps[k]));
    let mut profile = Profile::default();
    let (mut minutes, mut analysis_s, mut lines, mut build_s) = (vec![], vec![], vec![], vec![]);
    let mut traced_ms = Vec::with_capacity(traced.len());
    let mut bad = 0;
    for (p, m, ok) in &traced {
        bad += u64::from(!ok);
        minutes.push(*m);
        analysis_s.push(ANALYSIS_LAYERS.iter().map(|l| p.get(l)).sum::<f64>());
        lines.push(p.get("dex.dump_lines"));
        build_s.push(BUILD_LAYERS.iter().map(|l| p.get(l)).sum::<f64>());
        traced_ms.push(p.op_s * 1e3);
        profile.absorb(p);
    }
    out.count(traced.len() as u64, bad);
    profile.set("model.rank_corr_analysis", spearman(&minutes, &analysis_s));
    profile.set("model.rank_corr_build", spearman(&lines, &build_s));
    profile.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&ms) - 1.0,
    );
    let covered: Vec<&str> = BUILD_LAYERS
        .iter()
        .chain(&ANALYSIS_LAYERS)
        .copied()
        .collect();
    layers::report(&mut out, &profile, &covered);
    out
}
