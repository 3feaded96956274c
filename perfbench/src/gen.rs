//! Seeded inputs: complete matrices, delta streams and bandwidth-weighted
//! query endpoints. The program receives only what these generate; the same
//! seed always generates the same inputs.

use netsim::{NodeId, SimDuration, SimTime};
use obs::Lineage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use ting::shard::{partition_pairs, DeltaPair, MergeDelta};
use tor_sim::directory::{Consensus, RelayDescriptor, RelayFlags};

/// An independent generator per input stream, so changing one stream's
/// volume never changes another's contents.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Relay ids `0..n`.
pub fn nodes(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

/// Virtual time between consecutive generated deltas.
pub const DELTA_PERIOD: SimDuration = SimDuration(60_000_000_000);

/// Every pair of a relay set with its owning shard, in the supervisor's
/// partition order, plus a stream of seeded deltas over them.
pub struct DeltaStream {
    pairs: Vec<(NodeId, NodeId, u32)>,
    shards: usize,
    rng: SmallRng,
    seq: u64,
}

impl DeltaStream {
    pub fn new(nodes: &[NodeId], shards: usize, seed: u64) -> DeltaStream {
        let mut pairs = Vec::new();
        for (k, owned) in partition_pairs(nodes, shards).into_iter().enumerate() {
            pairs.extend(owned.into_iter().map(|(a, b)| (a, b, k as u32)));
        }
        DeltaStream {
            pairs,
            shards,
            rng: rng(seed, 0xde17a),
            seq: 0,
        }
    }

    fn delta(&mut self, picked: impl Iterator<Item = usize>) -> MergeDelta {
        self.seq += 1;
        let now = SimTime(self.seq * DELTA_PERIOD.as_nanos());
        let seq = self.seq;
        let rng = &mut self.rng;
        let pairs = picked
            .map(|p| {
                let (a, b, shard) = self.pairs[p];
                DeltaPair {
                    a,
                    b,
                    rtt_ms: rng.gen_range(1.0..300.0),
                    measured_at: now,
                    lineage: Lineage { shard, round: seq },
                }
            })
            .collect();
        MergeDelta {
            seq,
            pairs,
            statuses: vec!["live"; self.shards],
            now,
        }
    }

    /// A delta measuring every pair: a complete matrix.
    pub fn full(&mut self) -> MergeDelta {
        self.delta(0..self.pairs.len())
    }

    /// A delta re-measuring `k` distinct pairs drawn uniformly.
    pub fn next(&mut self, k: usize) -> MergeDelta {
        let k = k.min(self.pairs.len());
        let mut seen = HashSet::with_capacity(k);
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let p = self.rng.gen_range(0..self.pairs.len());
            if seen.insert(p) {
                picked.push(p);
            }
        }
        self.delta(picked.into_iter())
    }
}

/// Query endpoints picked the way a Tor client picks relays:
/// bandwidth-weighted, through tor-sim's `Consensus::pick_weighted`.
/// The bandwidths follow the heavy-tailed Pareto(α = 1.3) law tor-sim's
/// network builder draws relay bandwidths from, taken at evenly spaced
/// quantiles so every seed gets the same skew; the seed decides which
/// relay gets which bandwidth. A few heavy relays draw most queries.
pub struct Endpoints {
    consensus: Consensus,
}

impl Endpoints {
    pub fn new(nodes: &[NodeId], rng: &mut SmallRng) -> Endpoints {
        let n = nodes.len();
        let mut bandwidths: Vec<f64> = (0..n)
            .map(|i| 100.0 * ((i as f64 + 0.5) / n as f64).powf(-1.0 / 1.3))
            .collect();
        for i in (1..n).rev() {
            bandwidths.swap(i, rng.gen_range(0..=i));
        }
        let mut consensus = Consensus::new();
        for (i, (&node, bandwidth)) in nodes.iter().zip(bandwidths).enumerate() {
            consensus.publish(RelayDescriptor {
                node,
                identity: [0; 32],
                bandwidth,
                flags: RelayFlags {
                    running: true,
                    guard: true,
                    exit: true,
                },
                nickname: format!("relay{i}"),
                ip: [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
                rdns: None,
            });
        }
        Endpoints { consensus }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> NodeId {
        self.consensus
            .pick_weighted(rng)
            .expect("every relay is running")
            .node
    }

    /// Two distinct endpoints.
    pub fn pair(&self, rng: &mut SmallRng) -> (NodeId, NodeId) {
        let a = self.sample(rng);
        loop {
            let b = self.sample(rng);
            if b != a {
                return (a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_repeat_per_seed_and_pick_distinct_pairs() {
        let n = nodes(30);
        let mut a = DeltaStream::new(&n, 4, 7);
        let mut b = DeltaStream::new(&n, 4, 7);
        let full = a.full();
        assert_eq!(full.pairs.len(), 435);
        assert_eq!(full, b.full());
        let (da, db) = (a.next(50), b.next(50));
        assert_eq!(da, db);
        let distinct: HashSet<_> = da.pairs.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(distinct.len(), 50);
        assert_eq!(da.seq, 2);
        assert_ne!(
            DeltaStream::new(&n, 4, 8).next(50),
            DeltaStream::new(&n, 4, 7).next(50)
        );
    }

    #[test]
    fn endpoints_favour_heavy_relays() {
        let n = nodes(300);
        let mut r = rng(1, 2);
        let e = Endpoints::new(&n, &mut r);
        let relays = e.consensus.relays();
        let total: f64 = relays.iter().map(|d| d.bandwidth).sum();
        let heaviest = relays
            .iter()
            .max_by(|a, b| a.bandwidth.total_cmp(&b.bandwidth))
            .unwrap();
        let share = heaviest.bandwidth / total;
        assert!(share > 10.0 / 300.0, "heavy-tailed weights: {share}");
        let hits = (0..20_000)
            .filter(|_| e.sample(&mut r) == heaviest.node)
            .count();
        let want = share * 20_000.0;
        assert!(
            (hits as f64 - want).abs() < 0.2 * want,
            "{hits} draws of the heaviest relay, expected about {want:.0}"
        );
    }
}
