//! # backdroid-obs
//!
//! The zero-dependency observability substrate for the BackDroid
//! serving stack: a [`MetricsRegistry`] of atomic counters, gauges, and
//! log2-bucketed latency [`Histogram`]s with deterministic JSON and
//! Prometheus-style renderers, plus a per-request span [`Tracer`] whose
//! normalized JSONL export is byte-identical across replays of the same
//! workload (see [`trace`]'s module docs for the contract).
//!
//! Hand-rolled on `std` atomics only — the workspace builds offline, so
//! no metrics or tracing ecosystem crates are available, and none are
//! needed: the serving layer's determinism story demands full control
//! over rendering order anyway.
//!
//! ```
//! use backdroid_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("requests_total").inc();
//! reg.histogram("latency_ns").record(1_500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.value("requests_total"), 1);
//! assert!(snap.render_json().starts_with("{\"latency_ns\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{SpanRecord, TraceBuilder, Tracer};

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters. The one JSON escaper of the
/// workspace: the serving layer's wire protocol re-exports it, so the
/// `metrics` op's embedded registry JSON and the reply around it escape
/// alike.
pub fn escape_json(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
