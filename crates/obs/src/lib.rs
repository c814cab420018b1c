//! Zero-dependency observability for the randsync workspace.
//!
//! The build environment is offline, so this crate fills the role
//! `metrics`/`tracing`/`serde_json` would normally play, with three
//! pillars (DESIGN.md §12):
//!
//! - [`metrics`] — a process-global [`metrics::MetricsRegistry`] of
//!   lock-free counters, gauges, and power-of-two histograms. Hot
//!   paths guard on [`metrics::metrics_enabled`] (one relaxed atomic
//!   load) so instrumentation costs nothing when off.
//! - [`trace`] — structured events and spans through a pluggable
//!   [`trace::TraceSink`]: a JSONL file writer for post-mortem
//!   analysis and a bounded ring buffer for always-on capture.
//! - [`flight`] — the flight recorder artifact
//!   [`flight::ExecutionTrace`]: the full schedule + coin stream of
//!   one execution as JSONL, which `randsync replay` re-executes
//!   deterministically.
//!
//! [`json`] is the shared hand-rolled JSON value/parser/writer that
//! keeps all of the above dependency-free. This crate is a leaf: it
//! depends on nothing in the workspace, so every other crate may
//! depend on it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod spantree;
pub mod trace;

pub use flight::{ExecutionTrace, TraceError, TRACE_SCHEMA_VERSION};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{
    global as global_metrics, metrics_enabled, quantile_from_buckets, set_metrics_enabled,
    Counter, Gauge, Histogram, MetricValue, MetricsRegistry, Snapshot,
};
pub use spantree::{merge as merge_spans, SpanForest, SpanRec, TraceTree};
pub use trace::{
    clear_trace_sink, current_context, emit, flush_trace_sink, fresh_id, install_trace_sink,
    now_micros,
    push_context, span, tracing_active, wall_micros, ContextGuard, FanoutSink, Field, JsonlSink,
    RingSink, Span, TraceContext, TraceSink,
};

/// FNV-1a 64-bit over `bytes`: the workspace's one integrity checksum,
/// used by the explorer's checkpoint header and the gate's witness
/// corpus manifest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
