//! Golden-trace determinism tests for the observability layer.
//!
//! The contract `obs` pins across the whole stack:
//!
//! 1. a fixed-seed scan exports **byte-identical** JSONL across runs —
//!    the trace is a pure function of seed + config;
//! 2. attaching observability (at any level) never changes behaviour —
//!    an `Off` run, a `Metrics` run, and a `Trace` run of the same
//!    campaign end in bit-identical scanner checkpoints at the same
//!    virtual instant;
//! 3. the measurement engine's output is pinned: a fixed-seed,
//!    fault-laden `K = 2` scan ends in a checkpoint and virtual instant
//!    whose digest is a recorded constant, and at `K = 1` a lost probe
//!    costs its full deadline in virtual time.

use netsim::{FaultPlan, NodeId, SimDuration};
use ting::obs::{config_hash, ExportMeta, Obs, ObsConfig};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x601d;

fn meta(seed: u64) -> ExportMeta {
    ExportMeta {
        seed,
        config_hash: config_hash("golden-trace-v1"),
    }
}

/// Runs one short, fault-laden scan campaign with every layer
/// instrumented at `mode`, returning the exported JSONL plus the
/// behavioural fingerprint (checkpoint text, final virtual instant).
fn traced_scan(seed: u64, mode: ObsConfig) -> (String, String, u64) {
    let obs = Obs::new(mode);
    let mut net = TorNetworkBuilder::live(seed, 10)
        .fault_plan(FaultPlan::new(seed ^ 0x7).with_link_loss(0.004))
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.clone();
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            pairs_per_round: 20,
            retry_backoff: SimDuration::from_secs(60),
            ..ScannerConfig::default()
        },
    );
    scanner.load_locations(&net);
    for _ in 0..3 {
        scanner.run_round(&mut net, &ting);
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    net.publish_relay_totals();
    (
        obs.export_jsonl(&meta(seed)),
        scanner.to_checkpoint(),
        net.sim.now().as_nanos(),
    )
}

/// Contract 1: same seed → byte-identical JSONL; different seed →
/// a different document.
#[test]
fn fixed_seed_scan_exports_byte_identical_jsonl() {
    let (a, _, _) = traced_scan(SEED, ObsConfig::Trace);
    let (b, _, _) = traced_scan(SEED, ObsConfig::Trace);
    assert_eq!(a, b, "same seed must export byte-identical JSONL");
    let (c, _, _) = traced_scan(SEED + 1, ObsConfig::Trace);
    assert_ne!(a, c, "a different seed must produce a different trace");
}

/// The export really is the *unified* layer: one document carries
/// netsim fault/link counters, tor-sim relay gauges, orchestrator
/// phase histograms, and scanner round spans.
#[test]
fn export_covers_every_layer_of_the_stack() {
    let (doc, _, _) = traced_scan(SEED, ObsConfig::Trace);
    for needle in [
        "\"counter\":\"net.delivers\"",
        "\"counter\":\"net.conns_opened\"",
        "\"gauge\":\"tor.relay.cells_processed\"",
        "\"hist\":\"ting.phase.build_us\"",
        "\"hist\":\"ting.phase.probe_us\"",
        "\"event\":\"scan.round.begin\"",
        "\"event\":\"scan.pair.end\"",
        "\"event\":\"ting.phase\"",
    ] {
        assert!(doc.contains(needle), "export missing {needle}");
    }
}

/// Contract 2: observability is passive. The scan's outcome — the full
/// checkpoint (cache, timestamps, backoff, health) and the virtual
/// clock — is bit-identical whether obs is off, counting, or tracing.
#[test]
fn observability_level_never_changes_behaviour() {
    let (_, off_ckpt, off_now) = traced_scan(SEED, ObsConfig::Off);
    let (_, met_ckpt, met_now) = traced_scan(SEED, ObsConfig::Metrics);
    let (_, trc_ckpt, trc_now) = traced_scan(SEED, ObsConfig::Trace);
    assert_eq!(off_ckpt, met_ckpt, "Metrics mode perturbed the scan");
    assert_eq!(off_ckpt, trc_ckpt, "Trace mode perturbed the scan");
    assert_eq!(off_now, met_now);
    assert_eq!(off_now, trc_now);
}

/// A three-round scan of a 12-relay, 2-vantage network under 1% link
/// loss: CRC-32 of the final checkpoint and the final virtual instant.
fn k2_lossy_scan_digest() -> (u32, u64) {
    let mut net = TorNetworkBuilder::live(SEED, 12)
        .vantages(2)
        .fault_plan(FaultPlan::new(SEED ^ 0x2).with_link_loss(0.01))
        .build();
    let ting = Ting::new(TingConfig::fast());
    let mut scanner = Scanner::new(
        net.relays.clone(),
        ScannerConfig {
            pairs_per_round: 24,
            retry_backoff: SimDuration::from_secs(60),
            ..ScannerConfig::default()
        },
    );
    for _ in 0..3 {
        scanner.run_round(&mut net, &ting);
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    let checkpoint = scanner.to_checkpoint();
    (
        ting::checkpoint::crc32(checkpoint.as_bytes()),
        net.sim.now().as_nanos(),
    )
}

/// Contract 3a: the multi-vantage scan is byte-for-byte the output of
/// the engine as first recorded — estimates, timestamps, retry backoff
/// and virtual clock. A change to any of them is a behaviour change and
/// must re-record these constants deliberately.
#[test]
fn k2_lossy_scan_matches_recorded_digest() {
    assert_eq!(k2_lossy_scan_digest(), (0x953c_540b, 6_733_807_692_772));
}

/// Contract 3b: with one vantage, a probe whose echo is lost costs its
/// full `probe_timeout_ms` of virtual time. The engine waits out the
/// deadline even when the event queue goes idle earlier, as a real
/// client would, so the round takes at least `lost × timeout`.
#[test]
fn k1_lost_probes_cost_their_full_timeout() {
    const PROBE_TIMEOUT_MS: f64 = 20_000.0;
    let mut net = TorNetworkBuilder::live(SEED, 8)
        .fault_plan(FaultPlan::new(SEED ^ 0x5).with_link_loss(0.02))
        .build();
    let ting = Ting::new(TingConfig {
        probe_timeout_ms: Some(PROBE_TIMEOUT_MS),
        ..TingConfig::with_samples(10)
    });
    let mut scanner = Scanner::new(net.relays.clone(), ScannerConfig::default());
    let started = net.sim.now();
    scanner.run_round(&mut net, &ting);
    let lost = ting.metrics.snapshot().probes_timed_out;
    assert!(lost > 0, "the loss rate was meant to drop some echoes");
    let elapsed_ms = net.sim.now().since(started).as_millis_f64();
    assert!(
        elapsed_ms >= lost as f64 * PROBE_TIMEOUT_MS,
        "{lost} lost probes took only {elapsed_ms:.0} ms in total"
    );
}
