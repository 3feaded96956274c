//! The scan-to-serve benchmark.
//!
//! Two workloads drive the repository's crates through their public
//! APIs and time every call from the outside:
//!
//! * [`scan_serve`] — a supervised live scan feeding a journaled
//!   publish pipeline until the matrix is complete;
//! * [`publish_stream`] — a closed-loop stream of small deltas into a
//!   journaled pipeline serving a complete 300-relay matrix, whose
//!   final snapshot also answers a seeded query ring.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! (`ObsConfig::Metrics` plus the benchmark's own [`trace`] spans)
//! reports the per-layer ledger instead. See `README.md` beside this
//! crate for why each workload exists and what each metric predicts.

pub mod gen;
pub mod probes;
pub mod publish_stream;
pub(crate) mod queries;
pub mod report;
pub mod scan_serve;
pub(crate) mod serving;
pub mod stats;
pub mod trace;

use std::path::Path;

pub use report::{Metric, Report};

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanServe,
    PublishStream,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ScanServe, Workload::PublishStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanServe => "scan_serve",
            Workload::PublishStream => "publish_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// Length of the measured window; a workload always completes at
    /// least the minimum its percentiles and gates need.
    pub seconds: f64,
    /// Per-layer run (`ObsConfig::Metrics` and spans) instead of the
    /// untraced end-to-end run.
    pub trace: bool,
}

/// The end-to-end metrics every untraced run prints, as
/// `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "scan.pairs_per_s",
    "publish.per_s",
    "publish.lag_ms_p50",
    "publish.lag_ms_p90",
    "publish.recover_ms",
];

/// The per-layer metrics every traced run prints, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [&str; 36] = [
    "shard.run_round_ms_per_pair",
    "shard.take_delta_ms",
    "pipeline.tick_ms",
    "checkpoint.write_atomic_ms",
    "onion_crypto.x25519_us",
    "onion_crypto.ntor_handshake_us",
    "tor_protocol.cell_relay_ns",
    "tor_sim.circuits_per_pair",
    "tor_sim.cells_per_pair",
    "netsim.events_per_pair",
    "ting.retries",
    "shard.crashes",
    "onion_crypto.est_share",
    "tor_protocol.est_share",
    "scan.residual_ms_per_pair",
    "traced.scan.pairs_per_s",
    "trace.overhead",
    "pipeline.offer_us",
    "shard.render_ms",
    "shard.parse_ms",
    "snapshot.build_ms",
    "journal.append_ms",
    "journal.mark_published_ms",
    "oracle.swap_us",
    "journal.bytes_per_publish",
    "publish.bytes_per_changed_pair",
    "publish.ledger_coverage",
    "traced.publish.per_s",
    "snapshot.point_ns",
    "snapshot.detour_us",
    "snapshot.nearest_us",
    "service.point_ns",
    "trace.span_coverage",
    "layer.bench.self_share",
    "layer.ting.self_share",
    "layer.oracle.self_share",
];

/// Runs one workload at its full size with scratch state under `work`.
/// A run that does not print exactly the metrics of its mode fails.
pub fn run(workload: Workload, spec: RunSpec, work: &Path) -> Report {
    let mut report = match workload {
        Workload::ScanServe => scan_serve::run(&scan_serve::Size::full(), spec, work),
        Workload::PublishStream => publish_stream::run(&publish_stream::Size::full(), spec, work),
    };
    report.expect_metrics(if spec.trace { &PER_LAYER } else { &END_TO_END });
    report
}
