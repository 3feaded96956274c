//! `publish_stream`: write-heavy serving.
//!
//! A journaled [`Pipeline`] (every publish fsynced) starts from a
//! complete seeded 300-relay matrix and then takes a closed-loop stream
//! of 500-pair deltas, one `offer` + `tick` each. Render, parse, journal
//! and swap do almost all the work, and today a publish costs about the
//! same whatever the delta size — so a change that makes publishing
//! O(delta) shows here and nowhere else.
//!
//! After the stream, a seeded query ring is checked on the final
//! snapshot against brute force, and a traced run times the query
//! kernels on it.

use crate::gen::{self, DeltaStream};
use crate::queries::{self, Mix};
use crate::report::Report;
use crate::scan_serve;
use crate::serving::{self, Replay};
use crate::stats::{median, sorted, tail};
use crate::trace::{Tracer, REPLAY};
use crate::RunSpec;
use netsim::{NodeId, SimDuration, SimTime};
use obs::{Obs, ObsConfig};
use oracle::{Journal, Pipeline, PipelineConfig, TtlPolicy};
use std::path::Path;
use std::time::{Duration, Instant};
use ting::checkpoint::crc32;
use ting::shard::MergeDelta;
use ting::RttMatrix;

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub relays: usize,
    pub shards: usize,
    /// Pairs re-measured per delta.
    pub delta_pairs: usize,
    /// Set-ups (pipeline plus initial full publish) timed per run.
    pub setups: usize,
    /// A recovery of the live journal directory is timed after every
    /// this many publishes, so recovery is sampled across the run.
    pub recover_every: u64,
    /// Publishes made even when the run's seconds are up, so the lag
    /// p90 always has ten samples beyond it.
    pub min_publishes: u64,
    /// Untraced publishes a traced run times first, as the reference
    /// its tracing overhead is judged against.
    pub reference_publishes: u64,
    /// Length of the seeded query ring run on the final snapshot.
    pub ops: usize,
    /// Ops of the ring's head replayed against brute-force references.
    pub checked_ops: usize,
    /// Wall time of each traced pass of the ring over the final
    /// snapshot.
    pub probe: Duration,
}

impl Size {
    /// 300 relays (44,850 pairs), 500-pair deltas (≈1.1% of the matrix).
    pub fn full() -> Size {
        Size {
            relays: 300,
            shards: 4,
            delta_pairs: 500,
            setups: 41,
            recover_every: 5,
            min_publishes: 110,
            reference_publishes: 40,
            ops: 1 << 15,
            checked_ops: 2000,
            probe: Duration::from_secs(1),
        }
    }

    pub fn tiny() -> Size {
        Size {
            relays: 30,
            delta_pairs: 20,
            setups: 2,
            recover_every: 4,
            min_publishes: 110,
            reference_publishes: 4,
            ops: 1024,
            checked_ops: 1024,
            probe: Duration::from_millis(100),
            ..Size::full()
        }
    }
}

/// Publishes whose journal bytes make up the exact byte counts; a
/// fixed prefix, so the count does not depend on how many publishes
/// the run's seconds allowed.
const COUNTED_PUBLISHES: u64 = 12;

pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_hours(24),
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(48))
            .expect("static TTL policy"),
        slo: None,
    }
}

/// Reopens the journal directory as a crash recovery would, timed.
fn recover(
    dir: &Path,
    nodes: &[NodeId],
    size: &Size,
    now: SimTime,
) -> (Result<Pipeline, String>, f64) {
    let journal = Journal::open(dir).expect("reopen the publish journal");
    let t = Instant::now();
    let recovered = Pipeline::recover(
        nodes.to_vec(),
        size.shards,
        pipeline_config(),
        Obs::off(),
        journal,
        now,
    );
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (recovered.map(|(p, _)| p), ms)
}

/// A journaled pipeline under `dir` serving the complete matrix
/// `initial`, and its set-up time.
fn setup(
    nodes: &[NodeId],
    size: &Size,
    initial: &MergeDelta,
    obs: Obs,
    dir: &Path,
    report: &mut Report,
) -> (Pipeline, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let delta = initial.clone();
    let t = Instant::now();
    let journal = Journal::open(dir).expect("open the publish journal");
    let mut p = Pipeline::with_obs(
        nodes.to_vec(),
        size.shards,
        pipeline_config(),
        obs,
        Some(journal),
    );
    p.offer(delta);
    let published = p.tick(initial.now);
    let secs = t.elapsed().as_secs_f64();
    report.attempted += 1;
    report.gate(matches!(published, Ok(Some(2))), || {
        format!("initial publish returned {published:?}, not generation 2")
    });
    (p, secs)
}

/// The median `offer` → `tick` lag of the stream's first
/// `reference_publishes` deltas with tracing off, on a pipeline of its
/// own journaled under `dir`.
fn reference_lag_ms(
    nodes: &[NodeId],
    size: &Size,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> f64 {
    let mut stream = DeltaStream::new(nodes, size.shards, seed);
    let initial = stream.full();
    let (mut p, _) = setup(nodes, size, &initial, Obs::off(), dir, report);
    let mut lags = Vec::new();
    for _ in 0..size.reference_publishes.max(1) {
        let expected = p.generation() + 1;
        let delta = stream.next(size.delta_pairs);
        let now = delta.now;
        let t = Instant::now();
        p.offer(delta);
        let ticked = p.tick(now);
        lags.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if !matches!(ticked, Ok(Some(gen)) if gen == expected) {
            report.failed += 1;
            report.notes.push(format!(
                "# reference publish returned {ticked:?}, expected generation {expected}"
            ));
        }
    }
    drop(p);
    let _ = std::fs::remove_dir_all(dir);
    median(&lags)
}

pub fn run(size: &Size, spec: RunSpec, work: &Path) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(spec.trace);
    let obs = || {
        if spec.trace {
            Obs::new(ObsConfig::Metrics)
        } else {
            Obs::off()
        }
    };
    let root = work.join("publish");
    let nodes = gen::nodes(size.relays);
    let mut stream = DeltaStream::new(&nodes, size.shards, spec.seed);
    let initial = stream.full();
    // What every publish should serve, kept beside the pipeline for
    // the query gate.
    let mut truth = RttMatrix::new(nodes.clone());
    for d in &initial.pairs {
        truth.set(d.a, d.b, d.rtt_ms);
    }

    // Set-up: a journaled pipeline serving the complete matrix.
    let mut setups = Vec::new();
    let mut live = None;
    for s in 0..size.setups.max(1) {
        let dir = root.join(format!("setup-{s}"));
        let (p, secs) = setup(&nodes, size, &initial, obs(), &dir, &mut report);
        setups.push(secs);
        if let Some((_, old)) = live.replace((p, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (mut p, dir) = live.expect("at least one set-up ran");
    let untraced_lag_ms = spec.trace.then(|| {
        reference_lag_ms(
            &nodes,
            size,
            spec.seed,
            &root.join("reference"),
            &mut report,
        )
    });
    let mut replay = spec
        .trace
        .then(|| Replay::new(&nodes, &root.join("replay")));

    // The closed loop: the next delta is offered once the last is
    // served and durable.
    let (mut lags, mut publishes, mut errors) = (Vec::new(), 0u64, 0u64);
    let mut recovers = Vec::new();
    let mut paused = Duration::ZERO;
    let mut last_now = initial.now;
    let mut expected = p.generation() + 1;
    let started = Instant::now();
    while publishes + errors < size.min_publishes || started.elapsed().as_secs_f64() < spec.seconds
    {
        let g = publishes + errors + 1;
        let span = tracer.begin("bench.publish", g);
        let (delta, _) = tracer.time("bench.gen", g, || stream.next(size.delta_pairs));
        for d in &delta.pairs {
            truth.set(d.a, d.b, d.rtt_ms);
        }
        let now = delta.now;
        let t = Instant::now();
        tracer.time("oracle.pipeline.offer", g, || p.offer(delta));
        let (ticked, _) = tracer.time("oracle.pipeline.tick", g, || p.tick(now));
        let lag = t.elapsed();
        tracer.end(span);
        match ticked {
            Ok(Some(gen)) if gen == expected => {
                publishes += 1;
                lags.push(lag.as_secs_f64() * 1e3);
                last_now = now;
                expected += 1;
                if let Some(r) = replay.as_mut() {
                    r.publish(&p, gen, &mut tracer, g, publishes <= COUNTED_PUBLISHES);
                }
                if publishes % size.recover_every.max(1) == 0 {
                    // A side measurement: kept out of the stream's wall.
                    let t = Instant::now();
                    let side = tracer.begin(REPLAY, g);
                    let ((recovered, ms), _) = tracer.time("oracle.pipeline.recover", g, || {
                        recover(&dir, &nodes, size, now)
                    });
                    tracer.end(side);
                    recovers.push(ms);
                    let got = recovered.map(|rp| rp.generation());
                    report.gate(got == Ok(gen), || {
                        format!("mid-stream recovery returned {got:?}, expected generation {gen}")
                    });
                    paused += t.elapsed();
                }
            }
            other => {
                errors += 1;
                report.notes.push(format!(
                    "# publish {g} returned {other:?}, expected generation {expected}"
                ));
            }
        }
    }
    // Traced runs subtract every side span, recoveries included.
    let wall = started.elapsed();
    report.attempted += publishes + errors;
    report.failed += errors;

    // Gate: recovery from the final journal directory serves exactly
    // the live document at generation 1 + publishes (initial included).
    let live_doc = p.serving_document();
    report.digest = Some(crc32(live_doc.as_bytes()));
    let want_gen = 2 + publishes;
    report.gate(p.generation() == want_gen, || {
        format!(
            "live generation {} after {publishes} publishes, expected {want_gen}",
            p.generation()
        )
    });
    let (recovered, ms) = recover(&dir, &nodes, size, last_now);
    recovers.push(ms);
    match recovered {
        Ok(rp) => {
            report.gate(rp.generation() == want_gen, || {
                format!(
                    "recovered generation {}, expected {want_gen}",
                    rp.generation()
                )
            });
            report.gate(rp.serving_document() == live_doc, || {
                "recovery serves another document than the live pipeline".into()
            });
        }
        Err(e) => report.gate(false, || format!("recovery failed: {e}")),
    }

    report.count("publishes_counted", COUNTED_PUBLISHES.min(publishes));
    report.count("delta_pairs", size.delta_pairs as u64);
    report.count("document_bytes", live_doc.len() as u64);

    // Gate: the query kernels on the final snapshot answer the ring's
    // head exactly as brute force over `truth` does.
    let mix = Mix::new(&nodes, spec.seed, size.ops);
    let snap = p.reader().snapshot();
    let bad = queries::check(&snap, &truth, &mix, size.checked_ops);
    report.gate(bad.is_empty(), || {
        format!(
            "{} replayed queries disagree with the reference; first: {}",
            bad.len(),
            bad[0]
        )
    });
    report.count("queries_checked_ops", size.checked_ops.min(size.ops) as u64);
    let stream_s = (wall - paused).as_secs_f64();
    if !spec.trace {
        report.metric("setup_s", median(&setups), "s");
        // The pairs are re-measured by the seeded generator, not by a
        // scan, so this is the rate at which fresh pairs reach the
        // served matrix, bounded by publishing.
        report.metric(
            "scan.pairs_per_s",
            (publishes * size.delta_pairs as u64) as f64 / stream_s,
            "pairs/s",
        );
        report.metric(
            "publish.per_s",
            publishes as f64 / stream_s,
            "generations/s",
        );
        let lags = sorted(lags);
        report.tail_metric("publish.lag_ms_p50", tail(&lags, 0.5), "ms");
        report.tail_metric("publish.lag_ms_p90", tail(&lags, 0.9), "ms");
        report.metric("publish.recover_ms", median(&recovers), "ms");
        return report;
    }

    let r = replay.expect("a traced run replays");
    let untraced_lag_ms = untraced_lag_ms.expect("a traced run times a reference");
    let counted = COUNTED_PUBLISHES.min(publishes).max(1);
    let bytes_per_publish = r.journal_bytes as f64 / counted as f64;
    report.count("journal_bytes_counted", r.journal_bytes);
    serving::publish_layers(&tracer, &mut report);
    report.metric("journal.bytes_per_publish", bytes_per_publish, "bytes");
    report.metric(
        "publish.bytes_per_changed_pair",
        bytes_per_publish / size.delta_pairs as f64,
        "bytes",
    );
    let replay_s = tracer.replay_secs(0);
    report.metric(
        "traced.publish.per_s",
        publishes as f64 / (wall.as_secs_f64() - replay_s),
        "generations/s",
    );
    report.metric(
        "trace.overhead",
        median(&lags) / untraced_lag_ms - 1.0,
        "ratio",
    );
    tracer.finish(&mut report, "publish_stream", wall, work);
    serving::query_layers(&snap, &p.reader(), &mix, size.probe, &mut report);

    // Every workload reports every per-layer metric. No scan runs on
    // this path, so the scan's layers come from a small traced
    // scan_serve run beside the stream.
    let side = scan_serve::run(
        &scan_serve::Size::side(),
        RunSpec {
            seconds: 0.0,
            ..spec
        },
        &work.join("scan-side"),
    );
    report.adopt("side scan_serve run", side);
    report
}
