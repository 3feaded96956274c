//! Every workload at a tiny size passes its correctness gates, repeats
//! its digest and work counts for one seed, and reports an injected
//! defect as a failure rather than as a slow success.

use perfbench::scan_serve::{self, Fault};
use perfbench::{publish_stream, Report, RunSpec, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn work(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64, trace: bool) -> RunSpec {
    RunSpec {
        seed,
        seconds: 0.2,
        trace,
    }
}

fn assert_passes(r: &Report, metrics: &[&str]) {
    assert!(r.correct(), "gates failed: {:?}", r.errors);
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    assert!(r.digest.is_some());
    for m in metrics {
        let v = r
            .get(m)
            .unwrap_or_else(|| panic!("{m} missing from {:?}", r.metrics));
        assert!(v.is_finite(), "{m} = {v}");
    }
}

#[test]
fn scan_serve_passes_and_repeats_per_seed() {
    let size = scan_serve::Size::tiny();
    let mut a = scan_serve::run(&size, spec(3, false), &work("scan-a"));
    a.expect_metrics(&END_TO_END);
    assert_passes(&a, &END_TO_END);
    let b = scan_serve::run(&size, spec(3, false), &work("scan-b"));
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.counts, b.counts);
    let other = scan_serve::run(&size, spec(4, false), &work("scan-c"));
    assert_ne!(a.digest, other.digest, "the seed drives the inputs");
}

#[test]
fn scan_serve_traced_reports_the_ledger() {
    let mut r = scan_serve::run(
        &scan_serve::Size::tiny(),
        spec(3, true),
        &work("scan-traced"),
    );
    r.expect_metrics(&PER_LAYER);
    assert_passes(
        &r,
        &[
            "shard.run_round_ms_per_pair",
            "onion_crypto.ntor_handshake_us",
            "onion_crypto.est_share",
            "scan.residual_ms_per_pair",
            "trace.span_coverage",
        ],
    );
    // Each pair builds C_xy (4 hops), C_x and C_y (2 hops each).
    assert_eq!(r.get("tor_sim.circuits_per_pair"), Some(8.0));
    assert!(r.get("netsim.events_per_pair").unwrap() > 0.0);
    assert!(r.get("trace.span_coverage").unwrap() >= 0.95);
    let untraced = scan_serve::run(
        &scan_serve::Size::tiny(),
        spec(3, false),
        &work("scan-untraced"),
    );
    assert_eq!(
        r.digest, untraced.digest,
        "tracing must not change what is served"
    );
}

#[test]
fn unwritable_checkpoints_fail_the_scan() {
    let r = scan_serve::run_with(
        &scan_serve::Size::tiny(),
        spec(3, false),
        &work("scan-unwritable"),
        Fault::UnwritableCheckpoints,
    );
    assert!(!r.correct());
    assert!(r.failed > 0);
    assert!(
        r.errors.iter().any(|e| e.contains("shard crashes")),
        "{:?}",
        r.errors
    );
}

#[test]
fn an_altered_served_document_fails_the_scan() {
    let r = scan_serve::run_with(
        &scan_serve::Size::tiny(),
        spec(3, false),
        &work("scan-altered"),
        Fault::AlteredServedDocument,
    );
    assert!(!r.correct());
    assert!(r.failed > 0);
    assert!(
        r.errors
            .iter()
            .any(|e| e.contains("served document differs")),
        "{:?}",
        r.errors
    );
}

#[test]
fn publish_stream_passes_traced_and_untraced() {
    let size = publish_stream::Size::tiny();
    let mut r = publish_stream::run(&size, spec(5, false), &work("publish"));
    r.expect_metrics(&END_TO_END);
    assert_passes(&r, &END_TO_END);
    let mut t = publish_stream::run(&size, spec(5, true), &work("publish-traced"));
    t.expect_metrics(&PER_LAYER);
    assert_passes(
        &t,
        &[
            "pipeline.tick_ms",
            "journal.append_ms",
            "oracle.swap_us",
            "publish.ledger_coverage",
            "trace.overhead",
            "snapshot.point_ns",
            "snapshot.nearest_us",
            "service.point_ns",
        ],
    );
    let bytes = |r: &Report| {
        r.counts
            .iter()
            .find(|c| c.0 == "journal_bytes_counted")
            .map(|c| c.1)
    };
    let again = publish_stream::run(&size, spec(5, true), &work("publish-again"));
    assert_eq!(
        bytes(&t),
        bytes(&again),
        "journal bytes repeat for one seed"
    );
    assert!(bytes(&t).unwrap() > 0);
}

/// The names of a metric list of `BENCHMARK.json`, read without a JSON
/// parser: every `"name": "…"` between `key` and the next list.
fn listed(manifest: &str, key: &str) -> Vec<String> {
    let at = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} not in BENCHMARK.json"));
    let section = &manifest[at..];
    let section = &section[..section.find(']').expect("the list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name closes")].to_owned())
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    let manifest = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json beside the benchmark's directory");
    assert_eq!(listed(&manifest, "end_to_end"), END_TO_END);
    assert_eq!(listed(&manifest, "per_layer"), PER_LAYER);
}

#[test]
fn a_missing_or_unlisted_metric_fails_the_run() {
    let mut r = Report::default();
    r.metric("setup_s", 0.1, "s");
    r.metric("unlisted", 1.0, "count");
    r.expect_metrics(&END_TO_END);
    assert!(!r.correct());
    assert!(r.errors[0].contains("scan.pairs_per_s"), "{:?}", r.errors);
    assert!(r.errors[0].contains("unlisted"), "{:?}", r.errors);
}
