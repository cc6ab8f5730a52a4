//! `backdroid-perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vet_corpus|serve_spill|update_stream|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints its metrics by name and unit, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same workload with the layer profile and reports
//! the per-layer metrics. A wrong verdict makes the run exit with 1.
//! See `perfbench/README.md` for the metrics and workloads.

mod corpus;
mod layers;
mod serve;
mod stats;
mod update;
mod vet;

use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["vet_corpus", "serve_spill", "update_stream"];

/// A run sets up this many times and reports the median as `setup_s`.
/// The count is fixed: later set-ups reuse memory the earlier ones freed
/// and run faster, so a count that varied from run to run would move the
/// median.
const SETUP_REPEATS: usize = 9;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong verdict.
    pub failed: u64,
    metrics: Vec<Metric>,
    /// Diagnostics printed above the metrics (never in the JSON line).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a diagnostic line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` attempted ops of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each state before the
/// next, and returns the last state with the median set-up time in CPU
/// seconds of the whole process. The peak resident set is reset
/// afterwards, so `peak_rss_mb` covers the timed phase only.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for rep in 0..SETUP_REPEATS {
        drop(state.take());
        let t = process_cpu_s();
        state = Some(setup(rep));
        times.push(process_cpu_s() - t);
    }
    release_free_memory();
    reset_peak_rss();
    (state.expect("at least one set-up"), stats::median(&times))
}

/// Reads one of the kernel's CPU-time clocks, in seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        secs: i64,
        nanos: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer, which is valid.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.secs as f64 + ts.nanos as f64 * 1e-9
}

/// CPU seconds every thread of this process has run so far, user and
/// system. Time the host's hypervisor steals from the machine's CPUs
/// and time spent waiting for a CPU count as neither, so the timed
/// figures follow the work the program does rather than the load other
/// tenants put on a shared host.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU seconds the calling thread has run so far (see [`process_cpu_s`]).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Worker threads a workload may use: the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory inside the checkout for snapshot and chunk files,
/// removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// A fresh, empty directory named after `tag` and this process.
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Hands the memory the set-ups freed back to the kernel, so the resident
/// set after set-up holds only live data and the timed phase's peak
/// counts its own allocations rather than reused set-up slack.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the kernel; it takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets `VmHWM` to the current resident set. Where the kernel refuses,
/// the peak keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The machine's (steal, total) CPU ticks so far, from `/proc/stat`:
/// time the host ran something else while this machine's CPUs waited.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `nproc` and the CPU model, printed with every run.
fn machine_tag() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={} cpu=\"{cpu}\"", threads())
}

fn usage() -> ! {
    eprintln!(
        "usage: backdroid-perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Args) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = value("--workload").unwrap_or_else(|| usage());
    let seed = value("--seed").map_or(Some(1), |v| v.parse().ok());
    let seconds = value("--seconds").map_or(Some(10.0), |v| v.parse::<f64>().ok());
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    match (seed, seconds) {
        (Some(seed), Some(seconds)) if seconds > 0.0 => (
            workload,
            Args {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

/// Runs every workload as its own process and forwards their output.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    std::process::exit(if ok { 0 } else { 1 })
}

fn main() {
    let (workload, args) = parse_args();
    if workload == "all" {
        run_all(&args);
    }
    let started = Instant::now();
    let ticks = cpu_ticks();
    let out = match workload.as_str() {
        "vet_corpus" => vet::run(&args),
        "serve_spill" => serve::run(&args),
        "update_stream" => update::run(&args),
        _ => usage(),
    };
    println!(
        "workload: {workload} seed={} trace={}",
        args.seed, args.trace as u8
    );
    let (steal, total) = cpu_ticks();
    let steal_share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    println!(
        "machine: {} steal={:.1}%",
        machine_tag(),
        steal_share * 100.0
    );
    for n in &out.notes {
        println!("  {n}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_share = {failed_share} ratio ({} of {} ops)",
        out.failed, out.attempted
    );
    for m in &out.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("  wall = {:.1} s", started.elapsed().as_secs_f64());
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 })
}
