//! The spliced publish path against the reference renderer and parser.
//!
//! A pipeline builds each generation from the previous snapshot plus
//! the batch, and splices the batch's rows into the previous document.
//! After every publish of a random delta stream this test checks both
//! halves against the slow, obvious path:
//!
//! * the served document equals [`MergeOutcome::to_document`] of a
//!   reference model that applies the same deltas to an [`RttMatrix`]
//!   and two maps and judges coverage over [`partition_pairs`];
//! * every answer of the served snapshot — meta, `rtt` with origin,
//!   `k_nearest`, `best_via` — equals, bit for bit, the answer of
//!   [`Snapshot::from_merged_document`] over the served document.
//!
//! The streams mix queue-overflow coalescing, re-measured pairs,
//! status-only deltas, recoveries mid-stream, and a recovery from a
//! v1 (lineage-free) published document.

use netsim::{NodeId, SimDuration, SimTime};
use obs::{Lineage, Obs};
use oracle::journal::render_published;
use oracle::{Journal, Oracle, Pipeline, PipelineConfig, Snapshot, TtlPolicy};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use ting::checkpoint;
use ting::shard::{
    partition_pairs, DeltaPair, MergeDelta, MergeOutcome, ShardCoverage, MERGED_MAGIC,
    MERGED_MAGIC_V1,
};
use ting::RttMatrix;

const STALENESS_NS: u64 = 3_000_000_000;
const STATUSES: [&str; 3] = ["live", "restarting", "dead"];

fn config(queue_cap: usize) -> PipelineConfig {
    PipelineConfig {
        queue_cap,
        publish_interval: SimDuration(0),
        staleness: SimDuration(STALENESS_NS),
        ttl: TtlPolicy::new(SimDuration::from_secs(60), SimDuration::from_secs(600)).unwrap(),
        slo: None,
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// The dataset as the pre-splice pipeline kept it: deltas applied in
/// order to a matrix and two maps, rendered through `MergeOutcome`.
#[derive(Clone)]
struct Reference {
    matrix: RttMatrix,
    measured_at: HashMap<(NodeId, NodeId), SimTime>,
    lineage: HashMap<(NodeId, NodeId), Lineage>,
    statuses: Vec<&'static str>,
    owned: Vec<Vec<(NodeId, NodeId)>>,
    now: SimTime,
}

impl Reference {
    fn new(nodes: &[NodeId], shards: usize) -> Reference {
        Reference {
            matrix: RttMatrix::new(nodes.to_vec()),
            measured_at: HashMap::new(),
            lineage: HashMap::new(),
            statuses: vec!["live"; shards],
            owned: partition_pairs(nodes, shards),
            now: SimTime::ZERO,
        }
    }

    fn apply(&mut self, d: &MergeDelta) {
        for p in &d.pairs {
            self.matrix.set(p.a, p.b, p.rtt_ms);
            self.measured_at.insert(ordered(p.a, p.b), p.measured_at);
            self.lineage.insert(ordered(p.a, p.b), p.lineage);
        }
        self.statuses = d.statuses.clone();
    }

    fn document(&self) -> String {
        let shards = self
            .owned
            .iter()
            .enumerate()
            .map(|(k, owned)| {
                let times: Vec<u64> = owned
                    .iter()
                    .filter_map(|&(a, b)| self.measured_at.get(&ordered(a, b)))
                    .map(|t| t.as_nanos())
                    .collect();
                let stale = times
                    .iter()
                    .filter(|&&t| self.now.as_nanos().saturating_sub(t) >= STALENESS_NS)
                    .count();
                ShardCoverage {
                    shard: k as u32,
                    status: self.statuses[k],
                    owned: owned.len(),
                    covered: times.len(),
                    stale,
                    uncovered: owned.len() - times.len(),
                    oldest_ns: times.iter().copied().min(),
                    newest_ns: times.iter().copied().max(),
                }
            })
            .collect();
        MergeOutcome {
            matrix: self.matrix.clone(),
            measured_at: self.measured_at.clone(),
            lineage: self.lineage.clone(),
            shards,
            now: self.now,
        }
        .to_document()
    }
}

/// The same document in the pre-lineage v1 format.
fn downgrade_to_v1(doc: &str) -> String {
    let body = checkpoint::verify_sealed(doc).unwrap();
    let mut out = String::new();
    for line in body.lines() {
        if line == MERGED_MAGIC {
            out.push_str(MERGED_MAGIC_V1);
        } else if line.starts_with("m\t") {
            let fields: Vec<&str> = line.split('\t').collect();
            out.push_str(&fields[..5].join("\t"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    checkpoint::seal(out)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Every answer of `served` equals the reference parse's, bit for bit.
fn assert_same_answers(served: &Snapshot, reference: &Snapshot, nodes: &[NodeId], ctx: &str) {
    assert_eq!(served.meta(), reference.meta(), "{ctx}: meta");
    let probe: Vec<NodeId> = nodes.iter().copied().chain([NodeId(u32::MAX)]).collect();
    for &x in &probe {
        for &y in &probe {
            let (s, r) = (served.rtt(x, y), reference.rtt(x, y));
            let key = |a: &oracle::PointAnswer| {
                (
                    bits(a.rtt_ms),
                    a.measured_at_ns,
                    a.age_ns,
                    a.origin,
                    a.snapshot_version,
                )
            };
            assert_eq!(
                s.as_ref().map(key),
                r.as_ref().map(key),
                "{ctx}: rtt({x:?}, {y:?})"
            );
            let (s, r) = (served.best_via(x, y), reference.best_via(x, y));
            let key = |a: &oracle::DetourAnswer| {
                (
                    a.src,
                    a.dst,
                    bits(a.direct_ms),
                    a.via.map(|v| (v.node, v.rtt_ms.to_bits())),
                    a.measured_at_ns,
                    a.age_ns,
                    a.origin,
                    a.snapshot_version,
                )
            };
            assert_eq!(
                s.as_ref().map(key),
                r.as_ref().map(key),
                "{ctx}: best_via({x:?}, {y:?})"
            );
        }
        for k in [0, 1, nodes.len() / 2, nodes.len() + 1] {
            let (s, r) = (served.k_nearest(x, k), reference.k_nearest(x, k));
            let key = |a: &oracle::KNearestAnswer| {
                (
                    a.neighbors
                        .iter()
                        .map(|n| (n.node, n.rtt_ms.to_bits()))
                        .collect::<Vec<_>>(),
                    a.origin,
                    a.snapshot_version,
                )
            };
            assert_eq!(
                s.as_ref().map(key),
                r.as_ref().map(key),
                "{ctx}: k_nearest({x:?}, {k})"
            );
        }
    }
}

/// The served document matches the reference render, and the served
/// snapshot matches a fresh parse of that document.
fn check(p: &Pipeline, model: &Reference, nodes: &[NodeId], ctx: &str) {
    let doc = p.serving_document();
    assert_eq!(doc, model.document(), "{ctx}: served document");
    if p.generation() == 1 {
        // Bootstrap serves an empty matrix snapshot, not a document.
        return;
    }
    let mut parsed = Oracle::new(Snapshot::from_matrix(&RttMatrix::new(vec![])));
    parsed.publish_versioned(
        Snapshot::from_merged_document(&doc).unwrap(),
        p.generation(),
    );
    assert_same_answers(&p.oracle().snapshot(), &parsed.snapshot(), nodes, ctx);
}

fn tempdir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ting-publish-equiv-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_delta(
    rng: &mut SmallRng,
    nodes: &[NodeId],
    shards: usize,
    seq: u64,
    now: SimTime,
) -> MergeDelta {
    let count = if rng.gen_bool(0.2) {
        0 // status-only
    } else {
        rng.gen_range(1..=nodes.len() * 2)
    };
    let pairs = (0..count)
        .map(|_| {
            let a = *nodes.choose(rng).unwrap();
            let mut b = *nodes.choose(rng).unwrap();
            while b == a {
                b = *nodes.choose(rng).unwrap();
            }
            DeltaPair {
                a,
                b,
                // Varied digit counts, whole and fractional.
                rtt_ms: rng.gen_range(1u32..2_000_000) as f64
                    / [1.0, 7.0, 1000.0][rng.gen_range(0..3usize)],
                measured_at: SimTime(now.as_nanos() - rng.gen_range(0..2 * STALENESS_NS)),
                lineage: Lineage {
                    shard: rng.gen_range(0..shards as u32),
                    round: rng.gen_range(0..1_000u64),
                },
            }
        })
        .collect();
    let statuses = (0..shards)
        .map(|_| *STATUSES.choose(rng).unwrap())
        .collect();
    MergeDelta {
        seq,
        pairs,
        statuses,
        now,
    }
}

fn run_stream(seed: u64, max_nodes: usize, steps: std::ops::Range<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..max_nodes + 1);
    // Ids out of index order, so index order and id order differ.
    let mut nodes: Vec<NodeId> = (0..n as u32).map(|i| NodeId(i * 37 % 101 + 3)).collect();
    nodes.shuffle(&mut rng);
    let shards = rng.gen_range(1..4usize);
    let cfg = config(rng.gen_range(1..4usize));
    let dir = tempdir(seed);
    let journal = || Journal::open(&dir).unwrap();
    let mut p = Pipeline::with_obs(nodes.clone(), shards, cfg, Obs::off(), Some(journal()));
    let mut model = Reference::new(&nodes, shards);
    // Deltas offered since the last publish, as the reference applies
    // them on the next one.
    let mut queued: Vec<MergeDelta> = Vec::new();
    let mut now = SimTime(5 * STALENESS_NS);
    check(&p, &model, &nodes, "bootstrap");

    for step in 0..rng.gen_range(steps) {
        let ctx = format!("seed {seed:#x} step {step}");
        match rng.gen_range(0..10) {
            // Recover mid-stream, some time after the last publish:
            // queued deltas die with the process.
            0 => {
                drop(p);
                queued.clear();
                now = SimTime(now.as_nanos() + rng.gen_range(0..STALENESS_NS));
                p = Pipeline::recover(nodes.clone(), shards, cfg, Obs::off(), journal(), now)
                    .unwrap()
                    .0;
                check(&p, &model, &nodes, &format!("{ctx}: recovered"));
            }
            // Recover from the same generation published as a v1
            // document: every pair loses its provenance.
            1 if p.generation() > 1 => {
                drop(p);
                queued.clear();
                now = SimTime(now.as_nanos() + rng.gen_range(0..STALENESS_NS));
                let gen = published_generation(&dir);
                let v1 = downgrade_to_v1(&model.document());
                let j = journal();
                let _ = std::fs::remove_file(j.journal_path());
                checkpoint::write_atomic(&j.published_path(), &render_published(gen, &v1)).unwrap();
                model.lineage.clear();
                p = Pipeline::recover(nodes.clone(), shards, cfg, Obs::off(), j, now)
                    .unwrap()
                    .0;
                check(&p, &model, &nodes, &format!("{ctx}: recovered v1"));
            }
            // One to five offers, then a tick: more offers than the
            // queue holds coalesce.
            _ => {
                for _ in 0..rng.gen_range(1..6) {
                    now = SimTime(now.as_nanos() + rng.gen_range(1..STALENESS_NS));
                    let d = random_delta(&mut rng, &nodes, shards, step as u64 + 1, now);
                    queued.push(d.clone());
                    p.offer(d);
                }
                let gen = p.generation();
                assert_eq!(p.tick(now).unwrap(), Some(gen + 1), "{ctx}");
                for d in queued.drain(..) {
                    model.apply(&d);
                }
                model.now = now;
                check(&p, &model, &nodes, &ctx);
            }
        }
    }
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The generation on disk in the journal directory — what a recovery
/// republishes (no generation is ever left pending between steps).
fn published_generation(dir: &std::path::Path) -> u64 {
    let r = Journal::open(dir).unwrap().recover().unwrap();
    r.serve().map_or(1, |(g, _)| *g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spliced_publishes_match_the_reference_render_and_parse(seed in any::<u64>()) {
        run_stream(seed, 8, 4..16);
    }
}

#[test]
fn long_streams_over_wider_matrices_stay_equivalent() {
    for seed in [2015, 7919] {
        run_stream(seed, 32, 40..48);
    }
}
