//! The query ring the oracle's read path is timed and checked with.
//!
//! A seeded ring of queries: 90% point lookups, 8% `best_via`, 2%
//! `k_nearest(k = 16)`, with endpoints picked by bandwidth weight as a
//! Tor client picks relays. The ring is timed straight on a
//! [`Snapshot`] and through an [`OracleReader`] (the swap cell), and
//! its head is replayed against brute-force answers over an
//! [`RttMatrix`].

use crate::gen::{self, Endpoints};
use netsim::NodeId;
use oracle::{OracleReader, Snapshot};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;
use ting::RttMatrix;

/// Point lookups timed together; each batch yields one per-lookup
/// sample.
pub const POINT_BATCH: usize = 64;
/// Nearest relays asked for.
pub const K: usize = 16;
/// Ops between two looks at the clock.
const OPS_PER_CHECK: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// [`POINT_BATCH`] lookups starting at this index of `Mix::points`.
    Points(usize),
    Detour(NodeId, NodeId),
    Nearest(NodeId),
}

/// The seeded query ring.
pub struct Mix {
    ops: Vec<Op>,
    points: Vec<(NodeId, NodeId)>,
}

impl Mix {
    /// 90% of queries are point lookups, 8% detours, 2% nearest; a
    /// point op carries a whole batch, so it is drawn 90/64 as often.
    pub fn new(nodes: &[NodeId], seed: u64, ops: usize) -> Mix {
        let mut rng = gen::rng(seed, 0x9e7);
        let endpoints = Endpoints::new(nodes, &mut rng);
        let w_points = 90.0 / POINT_BATCH as f64;
        let total = w_points + 8.0 + 2.0;
        let mut mix = Mix {
            ops: Vec::with_capacity(ops),
            points: Vec::new(),
        };
        for _ in 0..ops {
            let u: f64 = rng.gen::<f64>() * total;
            let op = if u < w_points {
                let at = mix.points.len();
                for _ in 0..POINT_BATCH {
                    mix.points.push(endpoints.pair(&mut rng));
                }
                Op::Points(at)
            } else if u < w_points + 8.0 {
                let (a, b) = endpoints.pair(&mut rng);
                Op::Detour(a, b)
            } else {
                Op::Nearest(endpoints.sample(&mut rng))
            };
            mix.ops.push(op);
        }
        mix
    }
}

/// Where the queries go: straight to a snapshot, or through the swap
/// cell.
pub trait Target {
    fn point(&self, a: NodeId, b: NodeId) -> Option<f64>;
    fn detour(&self, a: NodeId, b: NodeId) -> Option<f64>;
    fn nearest(&self, x: NodeId) -> Option<f64>;
}

impl Target for OracleReader {
    fn point(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.rtt(a, b).ok().map(|r| r.rtt_ms.unwrap_or(0.0))
    }
    fn detour(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.best_via(a, b)
            .ok()
            .map(|d| d.via.map_or(0.0, |v| v.rtt_ms))
    }
    fn nearest(&self, x: NodeId) -> Option<f64> {
        self.k_nearest(x, K).ok().map(|n| n.neighbors.len() as f64)
    }
}

impl Target for Snapshot {
    fn point(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.rtt(a, b).ok().map(|r| r.rtt_ms.unwrap_or(0.0))
    }
    fn detour(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.best_via(a, b)
            .ok()
            .map(|d| d.via.map_or(0.0, |v| v.rtt_ms))
    }
    fn nearest(&self, x: NodeId) -> Option<f64> {
        self.k_nearest(x, K).ok().map(|n| n.neighbors.len() as f64)
    }
}

/// What one pass over the ring measured.
#[derive(Default)]
pub struct Reads {
    pub queries: u64,
    pub errors: u64,
    pub point_ns: Vec<f64>,
    pub detour_us: Vec<f64>,
    pub nearest_us: Vec<f64>,
}

/// Cycles through the ring until `until`, timing every op; with
/// `only_points`, skips all but the point lookups.
pub fn read(target: &impl Target, mix: &Mix, until: Instant, only_points: bool) -> Reads {
    let mut r = Reads::default();
    let mut i = 0usize;
    let mut sum = 0.0;
    while Instant::now() < until || r.queries == 0 {
        for _ in 0..OPS_PER_CHECK {
            let op = mix.ops[i % mix.ops.len()];
            i += 1;
            match op {
                Op::Points(at) => {
                    let t = Instant::now();
                    for &(a, b) in &mix.points[at..at + POINT_BATCH] {
                        match target.point(a, b) {
                            Some(v) => sum += v,
                            None => r.errors += 1,
                        }
                    }
                    r.point_ns
                        .push(t.elapsed().as_nanos() as f64 / POINT_BATCH as f64);
                    r.queries += POINT_BATCH as u64;
                }
                _ if only_points => {}
                Op::Detour(a, b) => {
                    let t = Instant::now();
                    match target.detour(a, b) {
                        Some(v) => sum += v,
                        None => r.errors += 1,
                    }
                    r.detour_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    r.queries += 1;
                }
                Op::Nearest(x) => {
                    let t = Instant::now();
                    match target.nearest(x) {
                        Some(v) => sum += v,
                        None => r.errors += 1,
                    }
                    r.nearest_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    r.queries += 1;
                }
            }
        }
    }
    black_box(sum);
    r
}

/// Replays the ring's head on `snap` against brute-force answers from
/// `reference`. Returns the mismatches found.
pub fn check(snap: &Snapshot, reference: &RttMatrix, mix: &Mix, ops: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let nodes = reference.nodes();
    for op in mix.ops.iter().take(ops) {
        match *op {
            Op::Points(at) => {
                for &(a, b) in &mix.points[at..at + POINT_BATCH] {
                    let got = snap.rtt(a, b).ok().and_then(|r| r.rtt_ms);
                    if got != reference.get(a, b) {
                        bad.push(format!(
                            "R({}, {}) = {got:?}, reference {:?}",
                            a.0,
                            b.0,
                            reference.get(a, b)
                        ));
                    }
                }
            }
            Op::Detour(a, b) => {
                // Minimum over every other relay with both legs
                // measured; ties keep the lowest index.
                let mut best: Option<(NodeId, f64)> = None;
                for &v in nodes {
                    if v == a || v == b {
                        continue;
                    }
                    if let (Some(x), Some(y)) = (reference.get(a, v), reference.get(v, b)) {
                        if best.is_none_or(|(_, s)| x + y < s) {
                            best = Some((v, x + y));
                        }
                    }
                }
                let got = snap
                    .best_via(a, b)
                    .ok()
                    .and_then(|d| d.via.map(|v| (v.node, v.rtt_ms)));
                if got != best {
                    bad.push(format!(
                        "best_via({}, {}) = {got:?}, reference {best:?}",
                        a.0, b.0
                    ));
                }
            }
            Op::Nearest(x) => {
                // Ascending RTT, index order breaking ties.
                let mut all: Vec<(f64, usize, NodeId)> = nodes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != x)
                    .filter_map(|(i, &v)| reference.get(x, v).map(|r| (r, i, v)))
                    .collect();
                all.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
                let want: Vec<(NodeId, f64)> =
                    all.iter().take(K).map(|&(r, _, v)| (v, r)).collect();
                let got: Vec<(NodeId, f64)> = snap
                    .k_nearest(x, K)
                    .map(|n| n.neighbors.iter().map(|n| (n.node, n.rtt_ms)).collect())
                    .unwrap_or_default();
                if got != want {
                    bad.push(format!(
                        "k_nearest({}) differs from the sorted reference",
                        x.0
                    ));
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_catches_a_wrong_answer() {
        let nodes = gen::nodes(30);
        let (mut m, mut altered) = (RttMatrix::new(nodes.clone()), RttMatrix::new(nodes.clone()));
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let rtt = f64::from((a.0 * 31 + b.0 * 7) % 97) + 1.0;
                m.set(a, b, rtt);
                altered.set(a, b, rtt + 1.0);
            }
        }
        let snap = Snapshot::from_matrix(&m);
        let mix = Mix::new(&nodes, 9, 512);
        assert!(check(&snap, &m, &mix, 512).is_empty());
        let bad = check(&snap, &altered, &mix, 512);
        for kind in ["R(", "best_via(", "k_nearest("] {
            assert!(bad.iter().any(|b| b.starts_with(kind)), "{kind} {bad:?}");
        }
    }
}
