//! The traced run's layer profile. Each layer is timed from outside, by
//! calling its public functions one at a time in the order the pipeline
//! does, and the result is checked against the untraced path.

use backdroid_core::{
    locate_sinks, slice_sink, AppArtifacts, BackdroidOptions, ForwardAnalysis, SinkReport,
};
use backdroid_dex::{dump_image_with_marks, DexImage};
use backdroid_ir::Program;
use backdroid_search::{BytecodeText, SearchEngine, SearchTrace};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-layer sums over the ops of one traced run. Times are in seconds;
/// [`report`] turns the sums into per-op means.
#[derive(Default)]
pub struct Profile {
    sums: BTreeMap<&'static str, f64>,
    direct: BTreeMap<&'static str, f64>,
    /// Ops profiled.
    pub ops: u64,
    /// Summed wall time of the profiled ops, without the profile's own
    /// bookkeeping (twin set-up and search replays).
    pub op_s: f64,
}

impl Profile {
    /// Adds `v` to a layer's sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// A layer's sum.
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another profile in.
    pub fn absorb(&mut self, other: &Profile) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
        self.direct
            .extend(other.direct.iter().map(|(k, v)| (*k, *v)));
        self.ops += other.ops;
        self.op_s += other.op_s;
    }

    /// The share of op time no timed layer covers: the op's wall time
    /// minus the sum of the layer times listed in `layers`.
    pub fn uncovered_share(&self, layers: &[&str]) -> f64 {
        if self.op_s <= 0.0 {
            return 0.0;
        }
        let covered: f64 = layers.iter().map(|l| self.get(l)).sum();
        (self.op_s - covered) / self.op_s
    }
}

/// Times `f` and adds its duration to `layer`.
pub fn timed<T>(p: &mut Profile, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    p.add(layer, t.elapsed().as_secs_f64());
    out
}

/// Build-stack layers of one app, as the cold path runs them: DEX
/// encode, dexdump render, text indexing, then the posting-list build
/// forced apart from the first search. Returns the indexed text and the
/// dump (for a twin engine).
pub fn build(p: &mut Profile, program: &Program) -> (BytecodeText, String) {
    let image = timed(p, "dex.encode", || DexImage::encode(program));
    let (dump, _marks) = timed(p, "dex.dump", || dump_image_with_marks(&image));
    p.add("dex.dump_lines", dump.lines().count() as f64);
    let text = timed(p, "search.text_index", || BytecodeText::index(&dump));
    timed(p, "search.postings_build", || {
        black_box(text.search_index());
    });
    (text, dump)
}

/// Replays a recorded search trace on `twin` and returns the time it
/// took: the search layer's self time for the recorded calls, measured
/// on an engine whose cache has seen the same earlier commands.
///
/// Every replay's time is also summed under `trace.replay`, which is
/// no part of any op: callers subtract it from their op's wall time.
fn replay(p: &mut Profile, twin: &SearchEngine, trace: &Mutex<SearchTrace>) -> f64 {
    let trace = std::mem::take(&mut *trace.lock().expect("search trace lock"));
    let t = Instant::now();
    for cmd in &trace.cmds {
        black_box(twin.run(cmd));
    }
    for target in &trace.class_uses {
        black_box(twin.classes_using(target));
    }
    let secs = t.elapsed().as_secs_f64();
    p.add("trace.replay", secs);
    secs
}

/// The analysis stack of one app, one layer call at a time: locate, then
/// per sink site slice, forward propagation and judge, with the §IV-F
/// skip rule applied in sink-site order exactly as the scheduler's
/// post-pass does. `twin` is a second engine over the same text whose
/// cache history matches `artifacts`' engine; each site's recorded
/// searches are replayed on it to split search self time out of slice.
///
/// Returns the sink reports (to compare with `analyze_artifacts`).
pub fn analyze(
    p: &mut Profile,
    artifacts: &AppArtifacts,
    options: &BackdroidOptions,
    twin: &SearchEngine,
) -> Vec<SinkReport> {
    let sinks = options.detectors.sink_registry();
    let before = artifacts.engine().stats();
    let recorder = Arc::new(Mutex::new(SearchTrace::default()));
    // On a snapshot-restored image, the task's first touch decodes the
    // program section and locate's first search the text and postings:
    // core.locate carries that lazy decode.
    let (mut ctx, sites) = timed(p, "core.locate", || {
        let mut ctx = artifacts.task();
        ctx.engine = artifacts.engine().with_recorder(Arc::clone(&recorder));
        let sites = locate_sinks(&mut ctx, &sinks, options.hierarchy_initial_search);
        (ctx, sites)
    });
    // Locate's searches stay inside core.locate; replaying them untimed
    // brings the twin's cache to the same state.
    replay(p, twin, &recorder);
    p.add("core.sink_sites", sites.len() as f64);

    let mut unreachable = HashSet::new();
    let mut reports = Vec::with_capacity(sites.len());
    for site in &sites {
        if unreachable.contains(&site.method) {
            continue;
        }
        let spec = &sinks.sinks()[site.spec_idx];
        let result = timed(p, "core.slice", || {
            slice_sink(&mut ctx, options.slicer, &site.method, site.stmt_idx, spec)
        });
        let search_s = replay(p, twin, &recorder);
        p.add("search.cmd", search_s);
        let values = timed(p, "core.forward", || {
            ForwardAnalysis::new(ctx.program).run(&result.ssg, spec)
        });
        let verdict = timed(p, "core.judge", || {
            options.detectors.judge(&spec.id, &values)
        })
        .expect("located sink spec belongs to the registry");
        p.add("core.ssg_units", result.ssg.units().len() as f64);
        if !result.reachable {
            unreachable.insert(site.method.clone());
        }
        reports.push(SinkReport {
            sink_id: spec.id.to_string(),
            site_method: site.method.clone(),
            stmt_idx: site.stmt_idx,
            reachable: result.reachable,
            entries: result.ssg.entries().to_vec(),
            param_values: values,
            verdict,
            ssg_units: result.ssg.units().len(),
        });
    }
    let stats = artifacts.engine().stats().since(&before);
    p.add("search.commands", stats.commands as f64);
    p.add("search.cache_hits", stats.hits as f64);
    p.add("search.postings_touched", stats.postings_touched as f64);
    reports
}

/// The analysis layers whose times add up to an analysis op. Slice is
/// listed whole: search self time is a part of it, reported apart.
pub const ANALYSIS_LAYERS: [&str; 4] = ["core.locate", "core.slice", "core.forward", "core.judge"];

/// The build layers whose times add up to a cold build.
pub const BUILD_LAYERS: [&str; 4] = [
    "dex.encode",
    "dex.dump",
    "search.text_index",
    "search.postings_build",
];

/// How a per-layer metric is derived from a [`Profile`].
enum Derive {
    /// Mean milliseconds per op of a summed layer time.
    Ms(&'static str),
    /// Mean microseconds per op of a summed layer time.
    Us(&'static str),
    /// Mean count per op.
    PerOp(&'static str),
    /// Mean milliseconds per counted event: (time sum, count key).
    MsPer(&'static str, &'static str),
    /// Mean count per counted event: (count sum, count key).
    Per(&'static str, &'static str),
    /// A ratio of two sums.
    Ratio(&'static str, &'static str),
    /// Slice time minus the search time inside it, per op.
    SliceSelf,
    /// Set directly with [`Profile::set`].
    Direct,
}

/// Every per-layer metric, its unit, and how it is derived. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str, Derive); 43] = [
    ("dex.encode_ms", "ms", Derive::Ms("dex.encode")),
    ("dex.dump_ms", "ms", Derive::Ms("dex.dump")),
    ("dex.dump_lines", "count", Derive::PerOp("dex.dump_lines")),
    (
        "search.text_index_ms",
        "ms",
        Derive::Ms("search.text_index"),
    ),
    (
        "search.postings_build_ms",
        "ms",
        Derive::Ms("search.postings_build"),
    ),
    (
        "search.token_index_ms",
        "ms",
        Derive::Ms("search.token_index"),
    ),
    (
        "search.token_reuse_ratio",
        "ratio",
        Derive::Ratio("search.tokens_reused", "search.token_classes"),
    ),
    ("search.cmd_ms", "ms", Derive::Ms("search.cmd")),
    ("search.commands", "count", Derive::PerOp("search.commands")),
    (
        "search.cache_hit_ratio",
        "ratio",
        Derive::Ratio("search.cache_hits", "search.commands"),
    ),
    (
        "search.postings_touched",
        "count",
        Derive::PerOp("search.postings_touched"),
    ),
    ("core.locate_ms", "ms", Derive::Ms("core.locate")),
    ("core.sink_sites", "count", Derive::PerOp("core.sink_sites")),
    ("core.slice_ms", "ms", Derive::SliceSelf),
    ("core.ssg_units", "count", Derive::PerOp("core.ssg_units")),
    ("core.forward_ms", "ms", Derive::Ms("core.forward")),
    ("core.judge_ms", "ms", Derive::Ms("core.judge")),
    ("core.chunk_diff_ms", "ms", Derive::Ms("core.chunk_diff")),
    ("core.chunk_write_ms", "ms", Derive::Ms("core.chunk_write")),
    ("core.apply_delta_ms", "ms", Derive::Ms("core.apply_delta")),
    (
        "core.delta_analysis_ms",
        "ms",
        Derive::Ms("core.delta_analysis"),
    ),
    (
        "core.sink_reuse_ratio",
        "ratio",
        Derive::Ratio("core.sinks_reused", "core.delta_sites"),
    ),
    (
        "core.delta_fallback_ratio",
        "ratio",
        Derive::Ratio("core.delta_fallbacks", "core.deltas"),
    ),
    (
        "core.snapshot_encode_ms",
        "ms",
        Derive::MsPer("core.snapshot_encode", "core.snapshots"),
    ),
    (
        "core.snapshot_bytes",
        "bytes",
        Derive::Per("core.snapshot_bytes", "core.snapshots"),
    ),
    (
        "core.snapshot_decode_ms",
        "ms",
        Derive::MsPer("core.snapshot_decode", "core.snapshots"),
    ),
    ("service.parse_us", "us", Derive::Us("service.parse")),
    ("service.fetch_ms", "ms", Derive::Ms("service.fetch")),
    ("service.emit_us", "us", Derive::Us("service.emit")),
    ("service.queue_wait_p50_ms", "ms", Derive::Direct),
    ("service.queue_wait_p99_ms", "ms", Derive::Direct),
    ("service.exec_hit_ms", "ms", Derive::Direct),
    ("service.exec_disk_ms", "ms", Derive::Direct),
    ("service.hit_ratio", "ratio", Derive::Direct),
    ("service.evictions", "count", Derive::Direct),
    (
        "service.put_version_ms",
        "ms",
        Derive::Ms("service.put_version"),
    ),
    (
        "service.chunks_written",
        "count",
        Derive::PerOp("service.chunks_written"),
    ),
    ("appgen.mutate_ms", "ms", Derive::Ms("appgen.mutate")),
    ("loadgen.late_p99_ms", "ms", Derive::Direct),
    ("model.rank_corr_analysis", "rho", Derive::Direct),
    ("model.rank_corr_build", "rho", Derive::Direct),
    ("trace.overhead_share", "ratio", Derive::Direct),
    ("trace.uncovered_share", "ratio", Derive::Direct),
];

impl Profile {
    /// Sets a directly measured per-layer metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.direct.insert(name, v);
    }
}

/// Reports every per-layer metric. `covered` lists the layer sums that
/// make up the op, for `trace.uncovered_share`.
pub fn report(out: &mut crate::Outcome, p: &Profile, covered: &[&str]) {
    let ops = p.ops.max(1) as f64;
    let ratio = |a: &str, b: &str| {
        let d = p.get(b);
        if d > 0.0 {
            p.get(a) / d
        } else {
            0.0
        }
    };
    for (name, unit, how) in &PER_LAYER {
        let v = match how {
            Derive::Ms(k) => p.get(k) * 1e3 / ops,
            Derive::Us(k) => p.get(k) * 1e6 / ops,
            Derive::PerOp(k) => p.get(k) / ops,
            Derive::MsPer(k, n) => ratio(k, n) * 1e3,
            Derive::Per(k, n) => ratio(k, n),
            Derive::Ratio(a, b) => ratio(a, b),
            Derive::SliceSelf => (p.get("core.slice") - p.get("search.cmd")) * 1e3 / ops,
            Derive::Direct if *name == "trace.uncovered_share" => p.uncovered_share(covered),
            Derive::Direct => p.direct.get(name).copied().unwrap_or(0.0),
        };
        out.metric(name, v, unit);
    }
}
