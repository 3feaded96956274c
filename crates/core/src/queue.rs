//! The scanner's incrementally maintained work queue.
//!
//! [`crate::scanner::Scanner`] used to re-derive its priorities with a
//! full O(n²) sweep over every pair on every round (twice, in fact:
//! once to plan and once to report). [`WorkQueue`] keeps the same
//! priority order — never-measured pairs first in index order, then
//! stale pairs oldest first, with failure-backoff pairs withheld until
//! eligible — in a set of ordered structures that are updated in
//! O(log n) per measurement outcome, so planning a round costs
//! O(round size · log n) instead of O(n²).
//!
//! The ordering contract is exactly the O(n²) reference planner's
//! (`plan_round` in `tests/parallel_scan.rs`), and a property test
//! there replays randomized measure/fail/staleness histories against
//! both implementations to hold the two to bit-equality.

use netsim::{NodeId, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Where one pair currently lives inside the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// Never successfully measured; eligible immediately.
    Unmeasured,
    /// Measured at the given instant and not yet stale.
    Fresh(SimTime),
    /// Measured at the given instant, past the staleness horizon.
    Stale(SimTime),
    /// Under failure backoff until `until`; `measured` remembers the
    /// last successful measurement (if any) so the pair re-enters the
    /// right tier when the backoff expires.
    Backoff {
        until: SimTime,
        measured: Option<SimTime>,
    },
}

/// An incrementally maintained priority structure over all node pairs.
///
/// Pairs are keyed by their `(i, j)` indices (`i < j`) into the node
/// list, which makes the `BTreeSet` orderings reproduce the old O(n²)
/// sweep exactly: the sweep pushed unmeasured pairs in `(i, j)`
/// iteration order and stably sorted stale pairs by measurement time
/// (ties keeping iteration order).
#[derive(Debug, Clone)]
pub struct WorkQueue {
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    staleness: SimDuration,
    state: HashMap<(u32, u32), PairState>,
    /// Never-measured pairs, in `(i, j)` index order.
    unmeasured: BTreeSet<(u32, u32)>,
    /// Measured, not yet stale; ordered by measurement time so the
    /// stale horizon advances over a prefix.
    fresh: BTreeSet<(SimTime, u32, u32)>,
    /// Measured and stale; oldest measurement first.
    stale: BTreeSet<(SimTime, u32, u32)>,
    /// Under failure backoff; ordered by eligibility instant.
    backoff: BTreeSet<(SimTime, u32, u32)>,
    /// Relays under health quarantine (see [`crate::health`]).
    quarantined: BTreeSet<u32>,
    /// Pairs parked because an endpoint is quarantined. Parked pairs
    /// keep their `state` entry current but live in no tier set, so
    /// `plan`/`backlog` skip them entirely until the relay is released.
    parked: BTreeSet<(u32, u32)>,
    /// Pairs permanently out of scope (owned by another shard — see
    /// [`crate::shard`]). Like parked pairs they keep their `state`
    /// entry but live in no tier set; unlike parked pairs they are
    /// never released and never picked as probation probes.
    retired: BTreeSet<(u32, u32)>,
}

impl WorkQueue {
    /// Creates a queue over `nodes` with every pair unmeasured.
    ///
    /// # Panics
    /// Panics on duplicate nodes.
    pub fn new(nodes: Vec<NodeId>, staleness: SimDuration) -> WorkQueue {
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            assert!(index.insert(*n, i).is_none(), "duplicate node {n:?}");
        }
        let n = nodes.len();
        let mut unmeasured = BTreeSet::new();
        let mut state = HashMap::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                unmeasured.insert((i, j));
                state.insert((i, j), PairState::Unmeasured);
            }
        }
        WorkQueue {
            nodes,
            index,
            staleness,
            state,
            unmeasured,
            fresh: BTreeSet::new(),
            stale: BTreeSet::new(),
            backoff: BTreeSet::new(),
            quarantined: BTreeSet::new(),
            parked: BTreeSet::new(),
            retired: BTreeSet::new(),
        }
    }

    fn pair_key(&self, a: NodeId, b: NodeId) -> (u32, u32) {
        let (ia, ib) = (self.index[&a] as u32, self.index[&b] as u32);
        if ia <= ib {
            (ia, ib)
        } else {
            (ib, ia)
        }
    }

    /// Removes `key` from whichever active structure holds it.
    fn detach(&mut self, key: (u32, u32)) -> PairState {
        let state = self.state[&key];
        match state {
            PairState::Unmeasured => {
                self.unmeasured.remove(&key);
            }
            PairState::Fresh(t) => {
                self.fresh.remove(&(t, key.0, key.1));
            }
            PairState::Stale(t) => {
                self.stale.remove(&(t, key.0, key.1));
            }
            PairState::Backoff { until, .. } => {
                self.backoff.remove(&(until, key.0, key.1));
            }
        }
        state
    }

    fn attach(&mut self, key: (u32, u32), state: PairState) {
        match state {
            PairState::Unmeasured => {
                self.unmeasured.insert(key);
            }
            PairState::Fresh(t) => {
                self.fresh.insert((t, key.0, key.1));
            }
            PairState::Stale(t) => {
                self.stale.insert((t, key.0, key.1));
            }
            PairState::Backoff { until, .. } => {
                self.backoff.insert((until, key.0, key.1));
            }
        }
        self.state.insert(key, state);
    }

    /// Records a successful measurement at `at`. Clears any backoff.
    pub fn on_measured(&mut self, a: NodeId, b: NodeId, at: SimTime) {
        let key = self.pair_key(a, b);
        // A parked pair (probation probe outcome) or a retired pair
        // keeps its state current without re-entering any tier.
        if self.parked.contains(&key) || self.retired.contains(&key) {
            self.state.insert(key, PairState::Fresh(at));
            return;
        }
        self.detach(key);
        // A success always re-enters as fresh; staleness migration
        // happens lazily against the clock in `normalize`.
        self.attach(key, PairState::Fresh(at));
    }

    /// Records a failed measurement: the pair is withheld until
    /// `until`, then re-enters the tier its measurement history puts
    /// it in (unmeasured, or stale/fresh by its last success).
    pub fn on_failed(&mut self, a: NodeId, b: NodeId, until: SimTime) {
        let key = self.pair_key(a, b);
        if self.parked.contains(&key) || self.retired.contains(&key) {
            let measured = match self.state[&key] {
                PairState::Unmeasured => None,
                PairState::Fresh(t) | PairState::Stale(t) => Some(t),
                PairState::Backoff { measured, .. } => measured,
            };
            self.state
                .insert(key, PairState::Backoff { until, measured });
            return;
        }
        let measured = match self.detach(key) {
            PairState::Unmeasured => None,
            PairState::Fresh(t) | PairState::Stale(t) => Some(t),
            PairState::Backoff { measured, .. } => measured,
        };
        self.attach(key, PairState::Backoff { until, measured });
    }

    /// Parks every pair touching `node`: quarantined relays' pairs are
    /// deprioritized out of planning entirely instead of burning
    /// timeouts on schedule. No-op for unknown nodes.
    pub fn quarantine(&mut self, node: NodeId) {
        let Some(&i) = self.index.get(&node) else {
            return;
        };
        let i = i as u32;
        if !self.quarantined.insert(i) {
            return;
        }
        let mut keys: Vec<(u32, u32)> = self
            .state
            .keys()
            .copied()
            .filter(|&(a, b)| a == i || b == i)
            .collect();
        keys.sort_unstable();
        for key in keys {
            // Retired pairs are already out of every tier and must not
            // leak back in through a later release.
            if self.retired.contains(&key) {
                continue;
            }
            if self.parked.insert(key) {
                self.detach(key);
            }
        }
    }

    /// Permanently removes a pair from scheduling: it leaves whatever
    /// tier holds it and never re-enters one, though measurement
    /// outcomes still keep its `state` entry current. This is how a
    /// shard-scoped scanner disowns the pairs other shards measure (see
    /// [`crate::shard::partition_pairs`]). Irreversible; no-op on
    /// unknown or already-retired pairs.
    pub fn retire(&mut self, a: NodeId, b: NodeId) {
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            return;
        };
        let (ia, ib) = (ia as u32, ib as u32);
        let key = if ia <= ib { (ia, ib) } else { (ib, ia) };
        if !self.state.contains_key(&key) || !self.retired.insert(key) {
            return;
        }
        if !self.parked.remove(&key) {
            self.detach(key);
        }
    }

    /// Pairs permanently retired from scheduling.
    pub fn retired_pairs(&self) -> usize {
        self.retired.len()
    }

    /// Releases `node` from quarantine: its parked pairs re-enter their
    /// tiers, except those whose other endpoint is still quarantined.
    pub fn release(&mut self, node: NodeId) {
        let Some(&i) = self.index.get(&node) else {
            return;
        };
        let i = i as u32;
        if !self.quarantined.remove(&i) {
            return;
        }
        let keys: Vec<(u32, u32)> = self
            .parked
            .iter()
            .copied()
            .filter(|&(a, b)| a == i || b == i)
            .collect();
        for key in keys {
            let other = if key.0 == i { key.1 } else { key.0 };
            if self.quarantined.contains(&other) {
                continue;
            }
            self.parked.remove(&key);
            let state = self.state[&key];
            self.attach(key, state);
        }
    }

    /// Whether `node` is currently quarantined.
    pub fn is_quarantined(&self, node: NodeId) -> bool {
        self.index
            .get(&node)
            .is_some_and(|&i| self.quarantined.contains(&(i as u32)))
    }

    /// Picks a probation-probe pair for a quarantined `node`: the first
    /// parked pair (in index order) joining it to a non-quarantined
    /// peer. The pair stays parked — its outcome feeds the health model
    /// without re-entering the schedule.
    pub fn probe_pair(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        let &i = self.index.get(&node)?;
        let i = i as u32;
        self.parked
            .iter()
            .copied()
            .filter(|&(a, b)| a == i || b == i)
            .find(|&(a, b)| {
                let other = if a == i { b } else { a };
                !self.quarantined.contains(&other)
            })
            .map(|(a, b)| (self.nodes[a as usize], self.nodes[b as usize]))
    }

    /// Pairs currently parked under quarantine.
    pub fn parked_pairs(&self) -> usize {
        self.parked.len()
    }

    /// Advances the time-dependent tiers to `now`: expired backoffs
    /// re-enter their measurement tier, and fresh entries past the
    /// staleness horizon move to the stale tier. Amortized O(log n)
    /// per transition — each pair moves at most twice per cycle.
    fn normalize(&mut self, now: SimTime) {
        // Expired backoffs first: a released pair may be stale already.
        while let Some(&(until, i, j)) = self.backoff.iter().next() {
            if until > now {
                break;
            }
            self.backoff.remove(&(until, i, j));
            let measured = match self.state[&(i, j)] {
                PairState::Backoff { measured, .. } => measured,
                _ => unreachable!("backoff set out of sync"),
            };
            let state = match measured {
                None => PairState::Unmeasured,
                Some(t) if now.since(t) >= self.staleness => PairState::Stale(t),
                Some(t) => PairState::Fresh(t),
            };
            self.attach((i, j), state);
        }
        // Fresh → stale over the ordered prefix.
        while let Some(&(t, i, j)) = self.fresh.iter().next() {
            if now.since(t) < self.staleness {
                break;
            }
            self.fresh.remove(&(t, i, j));
            self.attach((i, j), PairState::Stale(t));
        }
    }

    /// The pairs the scanner should measure next, most urgent first —
    /// the incremental equivalent of the O(n²) reference sweep.
    pub fn plan(&mut self, now: SimTime, limit: usize) -> Vec<(NodeId, NodeId)> {
        self.normalize(now);
        self.unmeasured
            .iter()
            .map(|&(i, j)| (i, j))
            .chain(self.stale.iter().map(|&(_, i, j)| (i, j)))
            .take(limit)
            .map(|(i, j)| (self.nodes[i as usize], self.nodes[j as usize]))
            .collect()
    }

    /// The true backlog: every pair eligible for measurement at `now`,
    /// with no round-size cap.
    pub fn backlog(&mut self, now: SimTime) -> usize {
        self.normalize(now);
        self.unmeasured.len() + self.stale.len()
    }

    /// Total pairs tracked.
    pub fn total_pairs(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn queue(n: u32) -> WorkQueue {
        WorkQueue::new((0..n).map(NodeId).collect(), SimDuration::from_secs(100))
    }

    #[test]
    fn starts_with_all_pairs_unmeasured_in_index_order() {
        let mut q = queue(3);
        assert_eq!(q.total_pairs(), 3);
        assert_eq!(
            q.plan(t(0), 10),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
            ]
        );
        assert_eq!(q.backlog(t(0)), 3);
    }

    #[test]
    fn measured_pairs_leave_until_stale() {
        let mut q = queue(3);
        q.on_measured(NodeId(0), NodeId(1), t(0));
        q.on_measured(NodeId(0), NodeId(2), t(10));
        assert_eq!(q.plan(t(10), 10), vec![(NodeId(1), NodeId(2))]);
        // At t=100 the first measurement crosses the 100 s horizon.
        assert_eq!(
            q.plan(t(100), 10),
            vec![(NodeId(1), NodeId(2)), (NodeId(0), NodeId(1))]
        );
        // At t=110 both are stale, oldest first, after the unmeasured.
        assert_eq!(
            q.plan(t(110), 10),
            vec![
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
            ]
        );
    }

    #[test]
    fn failed_pairs_withheld_until_backoff_expires() {
        let mut q = queue(2);
        q.on_failed(NodeId(0), NodeId(1), t(50));
        assert!(q.plan(t(0), 10).is_empty());
        assert_eq!(q.backlog(t(49)), 0);
        // Eligible again exactly at the deadline, still unmeasured.
        assert_eq!(q.plan(t(50), 10), vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn failed_measured_pair_reenters_by_its_history() {
        let mut q = queue(2);
        q.on_measured(NodeId(0), NodeId(1), t(0));
        q.on_failed(NodeId(0), NodeId(1), t(20));
        // Backoff expired but the old estimate is still fresh.
        assert!(q.plan(t(20), 10).is_empty());
        // Once the old estimate crosses the horizon it queues as stale.
        assert_eq!(q.plan(t(100), 10), vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn symmetric_keys() {
        let mut q = queue(2);
        q.on_measured(NodeId(1), NodeId(0), t(0));
        assert!(q.plan(t(0), 10).is_empty());
    }

    #[test]
    fn quarantine_parks_and_release_restores() {
        let mut q = queue(4); // 6 pairs
        q.quarantine(NodeId(0));
        assert!(q.is_quarantined(NodeId(0)));
        assert_eq!(q.parked_pairs(), 3);
        // Planning skips every pair touching node 0.
        assert_eq!(
            q.plan(t(0), 10),
            vec![
                (NodeId(1), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(2), NodeId(3)),
            ]
        );
        assert_eq!(q.backlog(t(0)), 3);
        q.release(NodeId(0));
        assert_eq!(q.parked_pairs(), 0);
        assert_eq!(q.backlog(t(0)), 6);
        assert_eq!(q.plan(t(0), 10)[0], (NodeId(0), NodeId(1)));
    }

    #[test]
    fn parked_outcomes_keep_state_without_scheduling() {
        let mut q = queue(3);
        q.quarantine(NodeId(0));
        // A probation measurement of a parked pair succeeds …
        q.on_measured(NodeId(0), NodeId(1), t(5));
        // … but the pair stays out of the plan until release.
        assert_eq!(q.plan(t(5), 10), vec![(NodeId(1), NodeId(2))]);
        q.release(NodeId(0));
        // After release the fresh measurement is honored: only the
        // never-measured pairs queue up.
        assert_eq!(
            q.plan(t(5), 10),
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn retired_pairs_never_schedule_again() {
        let mut q = queue(3);
        q.retire(NodeId(0), NodeId(2));
        q.retire(NodeId(2), NodeId(0)); // symmetric + repeated: no-op
        assert_eq!(q.retired_pairs(), 1);
        assert_eq!(
            q.plan(t(0), 10),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
        assert_eq!(q.backlog(t(0)), 2);
        // Outcomes keep state current without re-entering a tier.
        q.on_measured(NodeId(0), NodeId(2), t(1));
        q.on_failed(NodeId(0), NodeId(2), t(2));
        assert_eq!(q.backlog(t(500)), 2);
        // Quarantine + release of an endpoint must not resurrect it.
        q.quarantine(NodeId(0));
        q.release(NodeId(0));
        assert_eq!(q.backlog(t(500)), 2);
        assert_eq!(
            q.plan(t(500), 10),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn retiring_a_parked_pair_unparks_it_for_good() {
        let mut q = queue(3);
        q.quarantine(NodeId(0));
        assert_eq!(q.parked_pairs(), 2);
        q.retire(NodeId(0), NodeId(1));
        assert_eq!(q.parked_pairs(), 1);
        q.release(NodeId(0));
        // (0,1) is retired, (0,2) returns.
        assert_eq!(
            q.plan(t(0), 10),
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn probe_pair_skips_doubly_quarantined() {
        let mut q = queue(3);
        q.quarantine(NodeId(0));
        q.quarantine(NodeId(1));
        // (0,1) joins two quarantined relays; the probe for node 0 must
        // pick (0,2) instead.
        assert_eq!(q.probe_pair(NodeId(0)), Some((NodeId(0), NodeId(2))));
        assert_eq!(q.probe_pair(NodeId(1)), Some((NodeId(1), NodeId(2))));
        // Releasing node 1 keeps (0,1) parked — node 0 is still out.
        q.release(NodeId(1));
        assert_eq!(q.plan(t(0), 10), vec![(NodeId(1), NodeId(2))]);
        q.release(NodeId(0));
        assert_eq!(q.backlog(t(0)), 3);
    }
}
