//! `scan_serve`: the continuous production path, scan to served
//! document.
//!
//! A clean live network is scanned by a sharded [`Supervisor`] with
//! file-backed shard checkpoints; every round's delta goes through a
//! journaled [`Pipeline`] until the served matrix is complete. Crypto,
//! tor-sim, netsim and the scanner do nearly all the work, so this is
//! the control workload on which serving-side changes must not move
//! `scan.pairs_per_s`. Its small publishes (one per round) and the
//! recovery of its journal are timed too.
//!
//! Each iteration rebuilds everything from the same seed, so every
//! iteration does identical work: the digest and the work counts must
//! repeat exactly, and the wall times differ only by machine noise.

use crate::probes::{self, Probes};
use crate::queries::Mix;
use crate::report::Report;
use crate::serving::{self, Replay};
use crate::stats::{median, sorted, tail};
use crate::trace::{Tracer, REPLAY};
use crate::RunSpec;
use netsim::{NodeId, SimDuration, SimTime};
use obs::{Obs, ObsConfig};
use oracle::{Journal, OracleReader, Pipeline, PipelineConfig, TtlPolicy};
use std::path::Path;
use std::time::{Duration, Instant};
use ting::checkpoint::{crc32, write_atomic};
use ting::shard::{shard_path, ShardStatus, Supervisor, SupervisorConfig};
use ting::{ScannerConfig, TingConfig};
use tor_sim::{RelayMetrics, TorNetwork, TorNetworkBuilder};

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub relays: usize,
    pub vantages: usize,
    pub shards: usize,
    pub samples: usize,
    /// Pairs each shard measures per round; every round is one publish.
    pub pairs_per_round: usize,
    /// Set-ups timed before the iterations of an untraced run, so
    /// `setup_s` is a median over many.
    pub setups: usize,
    /// Publishes an untraced run makes even when its seconds are up,
    /// so the lag p90 always has ten samples beyond it.
    pub min_publishes: usize,
    /// Recoveries of the journal timed after each iteration.
    pub recovers: usize,
    /// Length of the seeded query ring a traced run times.
    pub ops: usize,
    /// Wall time of each traced pass of the ring over the final
    /// snapshot.
    pub probe: Duration,
}

impl Size {
    /// 40 relays (780 pairs), 2 vantages, 4 shards, 2 samples per
    /// circuit, 10 pairs per shard and round (20 publishes).
    pub fn full() -> Size {
        Size {
            relays: 40,
            vantages: 2,
            shards: 4,
            samples: 2,
            pairs_per_round: 10,
            setups: 100,
            min_publishes: 110,
            recovers: 30,
            ops: 1 << 15,
            probe: Duration::from_millis(500),
        }
    }

    /// A few seconds' worth, for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            relays: 8,
            pairs_per_round: 1,
            setups: 2,
            recovers: 2,
            ops: 1024,
            probe: Duration::from_millis(50),
            ..Size::full()
        }
    }

    /// The traced scan another workload runs beside its own to report
    /// the scan's layers: 20 relays, one iteration.
    pub fn side() -> Size {
        Size {
            relays: 20,
            pairs_per_round: Size::full().pairs_per_round,
            min_publishes: 0,
            ..Size::tiny()
        }
    }

    fn pairs(&self) -> u64 {
        (self.relays * (self.relays - 1) / 2) as u64
    }
}

/// A defect injected by the benchmark's own tests, to prove the gates
/// report it as a failure rather than as a slow success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Shard checkpoints go to a directory that does not exist.
    UnwritableCheckpoints,
    /// One byte of the served document is flipped before the gate.
    AlteredServedDocument,
}

/// Exact work counts of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    pairs: u64,
    rounds: u64,
    publishes: u64,
    circuits: u64,
    cells: u64,
    /// Zero when observability is off.
    net_events: u64,
    retries: u64,
    crashes: u64,
    /// Measurements the scanner's plausibility check turned down; the
    /// pair is measured again in a later round.
    rejected: u64,
    /// Pairs carried by the deltas offered to the pipeline.
    delta_pairs: u64,
    /// Journal bytes of the replayed publishes; zero when untraced.
    journal_bytes: u64,
}

struct Iteration {
    setup: Duration,
    scan: Duration,
    /// Time inside `Supervisor::run_round`, measured with or without
    /// spans.
    rounds: Duration,
    counts: Counts,
    publish_errors: u64,
    digest: u32,
    /// `offer` → `tick` milliseconds of each publish.
    lags: Vec<f64>,
    /// Milliseconds of each `Pipeline::recover` of the final journal.
    recovers: Vec<f64>,
    /// Serves the final snapshot after the pipeline is gone.
    reader: OracleReader,
    nodes: Vec<NodeId>,
}

/// Unit costs sampled right after each of the reference iteration's
/// rounds, so they see the same host load as the rounds they split.
#[derive(Default)]
struct Split {
    probes: Probes,
    /// Calls and seconds of each sampled primitive.
    ntor: (u64, f64),
    cells: (u64, f64),
}

impl Split {
    fn sample(&mut self) {
        let p = &mut self.probes;
        let (n, s) = probes::slice(Duration::from_millis(100), || p.ntor());
        self.ntor = (self.ntor.0 + n, self.ntor.1 + s);
        let (n, s) = probes::slice(Duration::from_millis(20), || p.cell());
        self.cells = (self.cells.0 + n, self.cells.1 + s);
    }

    fn ntor_ms(&self) -> f64 {
        self.ntor.1 * 1e3 / self.ntor.0 as f64
    }

    fn cell_ms(&self) -> f64 {
        self.cells.1 * 1e3 / self.cells.0 as f64
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: ScannerConfig::default().staleness,
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(48))
            .expect("static TTL policy"),
        slo: None,
    }
}

/// Circuits created and cells processed, summed over every relay of
/// the network including the vantages' own.
fn relay_totals(net: &TorNetwork) -> (u64, u64) {
    let mut all: Vec<&RelayMetrics> = net.relay_metrics.iter().collect();
    all.extend([&net.w_metrics, &net.z_metrics]);
    for v in &net.extra_vantages {
        all.extend([&v.w_metrics, &v.z_metrics]);
    }
    all.iter().fold((0, 0), |(c, k), m| {
        let s = m.snapshot();
        (c + s.circuits_created, k + s.cells_processed)
    })
}

/// Rounds after which a scan that has not completed counts as stuck.
fn round_cap(size: &Size) -> u64 {
    let per_round = (size.pairs_per_round * size.shards) as u64;
    4 * size.pairs().div_ceil(per_round) + 20
}

/// Builds what an iteration scans with from the seed: the network,
/// the supervisor checkpointing into `ckpt_dir`, and a pipeline
/// journaled under `dir`. This is the set-up `setup_s` times.
fn build(
    size: &Size,
    seed: u64,
    dir: &Path,
    ckpt_dir: &Path,
    fault: Fault,
    obs: &Obs,
) -> (TorNetwork, Supervisor, Pipeline) {
    if fault != Fault::UnwritableCheckpoints {
        std::fs::create_dir_all(ckpt_dir).expect("create the shard checkpoint directory");
    }
    let net = TorNetworkBuilder::live(seed, size.relays)
        .vantages(size.vantages)
        .observability(obs.clone())
        .build();
    let nodes = net.relays.clone();
    let mut sup = Supervisor::with_obs(
        nodes.clone(),
        SupervisorConfig {
            shards: size.shards,
            scanner: ScannerConfig {
                pairs_per_round: size.pairs_per_round,
                ..ScannerConfig::default()
            },
            ..SupervisorConfig::default()
        },
        TingConfig::with_samples(size.samples),
        obs.clone(),
    );
    sup.set_checkpoint_dir(ckpt_dir);
    sup.load_locations(&net);
    let journal = Journal::open(dir.join("journal")).expect("open the publish journal");
    let p = Pipeline::with_obs(
        nodes,
        size.shards,
        pipeline_config(),
        obs.clone(),
        Some(journal),
    );
    (net, sup, p)
}

fn iterate(
    size: &Size,
    seed: u64,
    dir: &Path,
    fault: Fault,
    tracer: &mut Tracer,
    mut split: Option<&mut Split>,
    report: &mut Report,
) -> Iteration {
    let _ = std::fs::remove_dir_all(dir);
    let obs = if tracer.enabled() {
        Obs::new(ObsConfig::Metrics)
    } else {
        Obs::off()
    };
    let ckpt_dir = match fault {
        Fault::UnwritableCheckpoints => dir.join("missing").join("shards"),
        _ => dir.join("shards"),
    };
    let side = dir.join("replay");

    let t = Instant::now();
    let (mut net, mut sup, mut p) = build(size, seed, dir, &ckpt_dir, fault, &obs);
    let setup = t.elapsed();
    let nodes = net.relays.clone();
    let mut replay = tracer.enabled().then(|| {
        std::fs::create_dir_all(&side).expect("create the replay directory");
        Replay::new(&nodes, &side.join("journal"))
    });

    let mut counts = Counts::default();
    let mut publish_errors = 0;
    let mut rounds = Duration::ZERO;
    let mut lags = Vec::new();
    let mut last_now = SimTime::ZERO;
    let full = size.pairs() as usize;
    let t = Instant::now();
    while counts.rounds < round_cap(size) {
        let g = tracer.next_group();
        let round = tracer.begin("bench.round", g);
        let (r, took) = tracer.time("ting.shard.run_round", g, || sup.run_round(&mut net));
        rounds += took;
        counts.pairs += r.measured as u64;
        counts.rejected += r.failed as u64;
        counts.rounds += 1;
        let now = net.sim.now();
        let (delta, _) = tracer.time("ting.shard.take_delta", g, || sup.take_delta(now));
        counts.delta_pairs += delta.pairs.len() as u64;
        let t = Instant::now();
        tracer.time("oracle.pipeline.offer", g, || p.offer(delta));
        let (ticked, _) = tracer.time("oracle.pipeline.tick", g, || p.tick(now));
        let lag = t.elapsed();
        let mut published = None;
        match ticked {
            Ok(Some(gen)) => {
                counts.publishes += 1;
                lags.push(lag.as_secs_f64() * 1e3);
                last_now = now;
                published = Some(gen);
            }
            Ok(None) => {}
            Err(e) => {
                publish_errors += 1;
                report.notes.push(format!("# publish failed: {e}"));
            }
        }
        let done = p.oracle().snapshot().meta().measured_pairs >= full;
        tracer.end(round);
        if let (Some(r), Some(gen)) = (replay.as_mut(), published) {
            r.publish(&p, gen, tracer, g, true);
        }
        if tracer.enabled() {
            replay_checkpoints(&sup, &side, tracer, g);
        }
        if let Some(split) = split.as_mut() {
            split.sample();
        }
        if done {
            break;
        }
    }
    let scan = t.elapsed();
    counts.journal_bytes = replay.map_or(0, |r| r.journal_bytes);

    // Gates: the served document is the offline merge, byte for byte;
    // coverage is full; every pair was measured once; no publish or
    // shard failed.
    let live = p.serving_document();
    let recovers = recover(size, &nodes, dir, last_now, &p, &live, report);
    let mut served = live;
    if fault == Fault::AlteredServedDocument {
        let mut bytes = served.into_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 1;
        served = String::from_utf8(bytes).expect("flipping an ASCII digit's low bit stays ASCII");
    }
    match sup.merge(last_now) {
        Ok(merged) => {
            report.gate(merged.coverage() == 1.0, || {
                format!(
                    "coverage {:.4} after {} rounds, not full",
                    merged.coverage(),
                    counts.rounds
                )
            });
            report.gate(merged.to_document() == served, || {
                "served document differs from Supervisor::merge(now).to_document()".into()
            });
        }
        Err(e) => report.gate(false, || format!("offline merge failed: {e}")),
    }
    report.gate(counts.pairs == size.pairs(), || {
        format!(
            "{} pairs measured, not each of the {} once",
            counts.pairs,
            size.pairs()
        )
    });
    report.gate(publish_errors == 0, || {
        format!("{publish_errors} publishes failed")
    });
    counts.crashes = (0..size.shards).map(|k| u64::from(sup.restarts(k))).sum();
    let down = (0..size.shards)
        .filter(|&k| sup.status(k) != ShardStatus::Running)
        .count();
    report.gate(counts.crashes == 0 && down == 0, || {
        format!(
            "{} shard crashes, {down} shards not running",
            counts.crashes
        )
    });
    if obs.is_enabled() {
        let crashed = obs.counter_value("ting.shard.crashed");
        report.gate(crashed == 0, || format!("ting.shard.crashed = {crashed}"));
        // On a fault-free network a pair attempt may only fail by the
        // plausibility check rejecting its estimate (two samples per
        // circuit leave the minimum RTTs noisy); a circuit, stream or
        // probe error is a failure.
        let implausible = obs.counter_value("ting.estimate.implausible");
        report.gate(counts.rejected == implausible, || {
            format!(
                "{} pair attempts failed, {implausible} of them rejected as implausible",
                counts.rejected
            )
        });
        counts.net_events = obs.counter_value("net.events");
        counts.retries = obs.counter_value("ting.retry");
    }
    (counts.circuits, counts.cells) = relay_totals(&net);

    Iteration {
        setup,
        scan,
        rounds,
        counts,
        publish_errors,
        digest: crc32(served.as_bytes()),
        lags,
        recovers,
        reader: p.reader(),
        nodes,
    }
}

/// Reopens the iteration's journal as a crash recovery would,
/// `size.recovers` times; each must serve the live pipeline's
/// generation and document. Returns the milliseconds each took.
fn recover(
    size: &Size,
    nodes: &[NodeId],
    dir: &Path,
    now: SimTime,
    live: &Pipeline,
    live_doc: &str,
    report: &mut Report,
) -> Vec<f64> {
    let mut ms = Vec::new();
    for _ in 0..size.recovers {
        let journal = Journal::open(dir.join("journal")).expect("reopen the publish journal");
        let t = Instant::now();
        let recovered = Pipeline::recover(
            nodes.to_vec(),
            size.shards,
            pipeline_config(),
            Obs::off(),
            journal,
            now,
        );
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        match recovered {
            Ok((rp, _)) => report.gate(
                rp.generation() == live.generation() && rp.serving_document() == live_doc,
                || {
                    format!(
                        "recovery serves generation {} and another document than the live \
                         pipeline at generation {}",
                        rp.generation(),
                        live.generation()
                    )
                },
            ),
            Err(e) => report.gate(false, || format!("recovery failed: {e}")),
        }
    }
    ms
}

/// Replays every shard's post-round checkpoint through
/// `checkpoint::write_atomic` into a side directory, to time the
/// checkpoint layer the supervisor calls internally.
fn replay_checkpoints(sup: &Supervisor, side: &Path, tracer: &mut Tracer, g: u64) {
    let replay = tracer.begin(REPLAY, g);
    for k in 0..sup.shard_count() {
        let (text, _) = tracer.time("ting.scanner.to_checkpoint", g, || sup.shard_checkpoint(k));
        let path = shard_path(side, k as u32);
        let (written, _) = tracer.time("ting.checkpoint.write_atomic", g, || {
            write_atomic(&path, &text)
        });
        written.expect("write a replayed shard checkpoint");
    }
    tracer.end(replay);
}

pub fn run(size: &Size, spec: RunSpec, work: &Path) -> Report {
    run_with(size, spec, work, Fault::None)
}

/// [`run`] with an injected defect (tests only pass anything but
/// [`Fault::None`]).
pub fn run_with(size: &Size, spec: RunSpec, work: &Path, fault: Fault) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(spec.trace);
    let dir = work.join("scan");
    let started = Instant::now();
    // A traced run first times one iteration with tracing off: the
    // reference its overhead and the crypto split are judged against.
    let mut split = spec.trace.then(Split::default);
    let reference = split.as_mut().map(|split| {
        let mut off = Tracer::new(false);
        let it = iterate(
            size,
            spec.seed,
            &dir,
            fault,
            &mut off,
            Some(split),
            &mut report,
        );
        report.attempted += it.counts.pairs + it.counts.publishes + it.publish_errors;
        report.failed += it.publish_errors;
        it
    });
    let mut setups = Vec::new();
    if !spec.trace {
        for _ in 0..size.setups {
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            let built = build(
                size,
                spec.seed,
                &dir,
                &dir.join("shards"),
                fault,
                &Obs::off(),
            );
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
        }
    }
    let mut iters: Vec<Iteration> = Vec::new();
    let mut lags = Vec::new();
    while iters.is_empty()
        || started.elapsed().as_secs_f64() < spec.seconds
        || (!spec.trace && lags.len() < size.min_publishes)
    {
        let it = iterate(size, spec.seed, &dir, fault, &mut tracer, None, &mut report);
        lags.extend_from_slice(&it.lags);
        report.attempted += it.counts.pairs + it.counts.publishes + it.publish_errors;
        report.failed += it.publish_errors;
        iters.push(it);
        if !report.errors.is_empty() {
            break;
        }
    }
    let first = &iters[0];
    report.digest = Some(first.digest);
    for it in &iters[1..] {
        report.gate(
            it.digest == first.digest && it.counts == first.counts,
            || "an iteration of the same seed served another document or did other work".into(),
        );
    }
    if let Some(r) = &reference {
        report.gate(r.digest == first.digest, || {
            "the traced iterations served another document than the untraced one".into()
        });
    }
    let c = first.counts;
    for (name, v) in [
        ("pairs", c.pairs),
        ("rounds", c.rounds),
        ("publishes", c.publishes),
        ("circuits", c.circuits),
        ("cells", c.cells),
        ("net_events", c.net_events),
        ("retries", c.retries),
        ("shard_crashes", c.crashes),
        ("rejected", c.rejected),
        ("delta_pairs", c.delta_pairs),
        ("journal_bytes", c.journal_bytes),
    ] {
        report.count(name, v);
    }
    report.notes.push(format!("# iterations: {}", iters.len()));

    let pairs: u64 = iters.iter().map(|it| it.counts.pairs).sum();
    let publishes: u64 = iters.iter().map(|it| it.counts.publishes).sum();
    let scan_s: f64 = iters.iter().map(|it| it.scan.as_secs_f64()).sum();
    if !spec.trace {
        setups.extend(iters.iter().map(|it| it.setup.as_secs_f64()));
        // Recovery time depends on the heap the iteration leaves
        // behind: one iteration's recoveries agree within a few
        // percent, yet iterations doing identical work differ by up to
        // half (1.06 against 1.6 ms). The fastest iteration's median is
        // the cost without that layout effect.
        let recover_ms = iters
            .iter()
            .map(|it| median(&it.recovers))
            .fold(f64::INFINITY, f64::min);
        report.metric("setup_s", median(&setups), "s");
        report.metric("scan.pairs_per_s", pairs as f64 / scan_s, "pairs/s");
        report.metric("publish.per_s", publishes as f64 / scan_s, "generations/s");
        let lags = sorted(lags);
        report.tail_metric("publish.lag_ms_p50", tail(&lags, 0.5), "ms");
        report.tail_metric("publish.lag_ms_p90", tail(&lags, 0.9), "ms");
        report.metric("publish.recover_ms", recover_ms, "ms");
        return report;
    }

    let wall = Duration::from_secs_f64(scan_s);
    let per_pair = |v: u64| v as f64 / c.pairs.max(1) as f64;
    let ms = |name: &str| median(&tracer.durations(name)) * 1e3;
    let reference = reference.expect("a traced run times a reference iteration");
    let mut split = split.expect("a traced run samples unit costs");
    let round_ms_per_pair =
        reference.rounds.as_secs_f64() * 1e3 / reference.counts.pairs.max(1) as f64;
    let traced_round_ms = tracer.total_secs("ting.shard.run_round") * 1e3 / pairs.max(1) as f64;
    let p = &mut split.probes;
    let x25519_us = probes::calibrate(|| p.x25519()) * 1e6;
    let ntor_us = probes::calibrate(|| p.ntor()) * 1e6;
    let cell_ns = probes::calibrate(|| p.cell()) * 1e9;
    let crypto_ms = per_pair(c.circuits) * split.ntor_ms();
    let cells_ms = per_pair(c.cells) * split.cell_ms();
    report.metric("shard.run_round_ms_per_pair", round_ms_per_pair, "ms");
    report.metric("shard.take_delta_ms", ms("ting.shard.take_delta"), "ms");
    report.metric(
        "checkpoint.write_atomic_ms",
        ms("ting.checkpoint.write_atomic"),
        "ms",
    );
    report.metric("onion_crypto.x25519_us", x25519_us, "us");
    report.metric("onion_crypto.ntor_handshake_us", ntor_us, "us");
    report.metric("tor_protocol.cell_relay_ns", cell_ns, "ns");
    report.metric("tor_sim.circuits_per_pair", per_pair(c.circuits), "count");
    report.metric("tor_sim.cells_per_pair", per_pair(c.cells), "count");
    report.metric("netsim.events_per_pair", per_pair(c.net_events), "count");
    report.metric("ting.retries", c.retries as f64, "count");
    report.metric("shard.crashes", c.crashes as f64, "count");
    report.metric(
        "onion_crypto.est_share",
        crypto_ms / round_ms_per_pair,
        "ratio",
    );
    report.metric(
        "tor_protocol.est_share",
        cells_ms / round_ms_per_pair,
        "ratio",
    );
    report.metric(
        "scan.residual_ms_per_pair",
        round_ms_per_pair - crypto_ms - cells_ms,
        "ms",
    );
    let replay_s = tracer.replay_secs(0);
    report.metric(
        "traced.scan.pairs_per_s",
        pairs as f64 / (scan_s - replay_s),
        "pairs/s",
    );
    report.metric(
        "trace.overhead",
        traced_round_ms / round_ms_per_pair - 1.0,
        "ratio",
    );
    serving::publish_layers(&tracer, &mut report);
    let per_publish = c.journal_bytes as f64 / c.publishes.max(1) as f64;
    report.metric("journal.bytes_per_publish", per_publish, "bytes");
    report.metric(
        "publish.bytes_per_changed_pair",
        c.journal_bytes as f64 / c.delta_pairs.max(1) as f64,
        "bytes",
    );
    report.metric(
        "traced.publish.per_s",
        publishes as f64 / (scan_s - replay_s),
        "generations/s",
    );
    tracer.finish(&mut report, "scan_serve", wall, work);
    let last = iters.last().expect("at least one iteration ran");
    let mix = Mix::new(&last.nodes, spec.seed, size.ops);
    serving::query_layers(
        &last.reader.snapshot(),
        &last.reader,
        &mix,
        size.probe,
        &mut report,
    );
    // The round time the probes cannot see into, split by unit costs.
    report.notes.push(format!(
        "#   run_round split per pair: onion_crypto {crypto_ms:.3} ms (est), \
         tor_protocol {cells_ms:.3} ms (est), netsim+tor_sim+ting residual {:.3} ms \
         (unit costs sampled between rounds: ntor {:.1} us, cell {:.0} ns)",
        round_ms_per_pair - crypto_ms - cells_ms,
        split.ntor_ms() * 1e3,
        split.cell_ms() * 1e6
    ));
    report
}
