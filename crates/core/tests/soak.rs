//! Self-healing soak tests.
//!
//! Two levels: a fast acceptance test proving the health/quarantine
//! model pays for itself (permanently dead relays must not slow down
//! the live pairs), and an `#[ignore]`d chaos soak — churn, crashes,
//! overload, and a mid-run kill — holding the full self-healing
//! pipeline to its invariants: no panics, monotone progress, only
//! plausible estimates cached, quarantines eventually released, and a
//! killed-and-resumed scan bit-identical to an uninterrupted one.
//!
//! Run the soak with `cargo test -q -p ting --test soak -- --ignored`.

use netsim::{FaultPlan, NodeId, SimDuration, SimTime};
use ting::{
    AdaptiveTimeoutConfig, HealthConfig, Scanner, ScannerConfig, Ting, TingConfig, ValidationConfig,
};
use tor_sim::churn::ChurnConfig;
use tor_sim::{RelayFaultProfile, TorNetwork, TorNetworkBuilder};

const SEED: u64 = 0x50AC;

fn all_pairs_measured(scanner: &Scanner, nodes: &[NodeId]) -> bool {
    nodes.iter().enumerate().all(|(i, &a)| {
        nodes[i + 1..]
            .iter()
            .all(|&b| scanner.measured_at(a, b).is_some())
    })
}

/// Scans a 10-relay set with 3 relays permanently dead, returning the
/// virtual instant at which every live–live pair is measured.
fn time_to_complete_live_pairs(health: bool) -> SimTime {
    let mut net = TorNetworkBuilder::live(SEED, 12).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(10).collect();
    let dead = [nodes[2], nodes[5], nodes[8]];
    for &d in &dead {
        net.crash_relay(d, None);
    }
    // The consensus still lists the dead relays as running — exactly
    // the stale-directory window where a scanner keeps trying them.
    let live: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !dead.contains(n))
        .collect();
    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            staleness: SimDuration::from_hours(24 * 365),
            pairs_per_round: 6,
            retry_backoff: SimDuration::from_secs(60),
            retry_backoff_cap: SimDuration::from_secs(600),
            health: health.then(HealthConfig::default),
            validation: None,
        },
    );
    let ting = Ting::new(TingConfig {
        max_attempts: 2,
        max_lost_probes: 4,
        ..TingConfig::fast()
    });
    for _round in 0..400u64 {
        scanner.run_round(&mut net, &ting);
        if all_pairs_measured(&scanner, &live) {
            return net.sim.now();
        }
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    panic!("live pairs never completed (health={health})");
}

/// The tentpole acceptance criterion: with 3 permanently dead relays in
/// the set, quarantining them must strictly shorten the virtual time to
/// finish every pair among the live relays — the health model's whole
/// justification is that dead relays stop taxing everyone else.
#[test]
fn quarantine_speeds_up_scan_with_dead_relays() {
    let with_health = time_to_complete_live_pairs(true);
    let without = time_to_complete_live_pairs(false);
    assert!(
        with_health < without,
        "health model must strictly help: with={with_health:?} without={without:?}"
    );
}

// ---------------------------------------------------------------------
// Chaos soak
// ---------------------------------------------------------------------

const ROUND_SECS: u64 = 300;
const N_NODES: usize = 8;

fn storm_net(seed: u64) -> TorNetwork {
    TorNetworkBuilder::live(seed, 12)
        .vantages(2)
        .fault_plan(
            FaultPlan::new(seed ^ 0x7)
                .with_link_loss(0.003)
                .with_stalls(0.001, 300.0),
        )
        .relay_faults(RelayFaultProfile {
            extend_refuse_prob: 0.01,
            overload_drop_prob: 0.002,
            overload_queue_depth: 32,
            seed: seed ^ 0x9,
        })
        .build()
}

fn storm_scan_config() -> ScannerConfig {
    ScannerConfig {
        staleness: SimDuration::from_hours(24),
        pairs_per_round: 8,
        retry_backoff: SimDuration::from_secs(60),
        retry_backoff_cap: SimDuration::from_hours(1),
        health: Some(HealthConfig::default()),
        validation: Some(ValidationConfig::default()),
    }
}

fn storm_ting_config() -> TingConfig {
    TingConfig {
        max_attempts: 2,
        max_lost_probes: 4,
        adaptive_timeouts: Some(AdaptiveTimeoutConfig::default()),
        ..TingConfig::fast()
    }
}

/// Final state of a storm run: everything that must be bit-identical
/// across a kill/resume.
#[derive(PartialEq, Debug)]
struct StormOutcome {
    checkpoint: String,
    timeouts: String,
}

/// Drives `rounds` scan rounds under a fault storm: relay churn every
/// 6 rounds, mass revival + consensus refresh every 9, link faults and
/// overload throughout. When `kill_at` is set, the scanner and the
/// Ting driver are torn down after that round and rebuilt from the
/// checkpoint + exported timeout state — the crash-recovery path.
fn storm_run(seed: u64, rounds: u64, kill_at: Option<u64>) -> StormOutcome {
    let mut net = storm_net(seed);
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(N_NODES).collect();
    let mut scanner = Scanner::new(nodes.clone(), storm_scan_config());
    scanner.load_locations(&net);
    let mut ting = Ting::new(storm_ting_config());
    let churn = ChurnConfig {
        initial_relays: 12,
        daily_departure_rate: 1.2,
        ..ChurnConfig::default()
    };
    let mut prev_measured = 0;
    for round in 0..rounds {
        let target = SimTime::ZERO + SimDuration::from_secs(round * ROUND_SECS);
        if target > net.sim.now() {
            net.sim.advance_to(target);
        }
        if round % 6 == 2 {
            net.churn_step(&churn, 1.0, seed ^ round);
            net.refresh_consensus();
        }
        if round % 9 == 8 {
            for &n in &net.relays.clone() {
                net.revive_relay(n);
            }
            net.refresh_consensus();
        }
        scanner.run_round(&mut net, &ting);

        // Invariant: progress is monotone — a completed pair never
        // un-completes, panics aside.
        let measured = scanner.matrix().measured_pairs();
        assert!(
            measured >= prev_measured,
            "round {round}: completed pairs went backwards ({prev_measured} -> {measured})"
        );
        prev_measured = measured;

        if kill_at == Some(round) {
            let checkpoint = scanner.to_checkpoint();
            let timeouts = ting.timeouts.export();
            scanner = Scanner::from_checkpoint(&checkpoint).expect("mid-storm checkpoint parses");
            scanner.load_locations(&net);
            ting = Ting::new(storm_ting_config());
            ting.timeouts
                .import(&timeouts)
                .expect("timeout state reimports");
        }
    }

    // Invariant: everything cached is a plausible estimate — positive,
    // finite, and at or above the lightspeed floor for the pair.
    for (a, b, est) in scanner.matrix().pairs() {
        assert!(
            est.is_finite() && est > 0.05,
            "implausible estimate cached for ({},{}): {est}",
            a.0,
            b.0
        );
        let pa = net.sim.underlay().node(a.index()).location;
        let pb = net.sim.underlay().node(b.index()).location;
        let floor = geo::lightspeed::min_rtt_ms(geo::great_circle_km(pa, pb));
        assert!(
            est >= floor,
            "faster-than-light estimate cached for ({},{}): {est} < {floor}",
            a.0,
            b.0
        );
    }

    // Invariant: quarantine is never a life sentence. With every relay
    // revived and probation + decay running, the roster must drain.
    for &n in &net.relays.clone() {
        net.revive_relay(n);
    }
    net.refresh_consensus();
    let mut extra = 0u64;
    while !scanner
        .health()
        .expect("storm config enables health")
        .quarantined_nodes()
        .is_empty()
    {
        extra += 1;
        assert!(
            extra <= 200,
            "quarantines never released: {:?}",
            scanner.health().unwrap().quarantined_nodes()
        );
        let next = net.sim.now() + SimDuration::from_secs(1800);
        net.sim.advance_to(next);
        scanner.run_round(&mut net, &ting);
    }

    StormOutcome {
        checkpoint: scanner.to_checkpoint(),
        timeouts: ting.timeouts.export(),
    }
}

/// The full chaos soak: four virtual hours of churn + crashes +
/// overload, once uninterrupted and once killed at a mid-storm round,
/// must converge to bit-identical scanner state and timeout estimators
/// — and hold every invariant checked inside [`storm_run`] throughout.
#[test]
#[ignore = "long soak; run explicitly with -- --ignored"]
fn soak_storm_killed_and_resumed_is_bit_identical() {
    let rounds = 4 * 3600 / ROUND_SECS;
    let uninterrupted = storm_run(SEED, rounds, None);
    let resumed = storm_run(SEED, rounds, Some(rounds / 3));
    assert_eq!(
        uninterrupted, resumed,
        "kill/resume diverged from the uninterrupted storm"
    );
}

/// Same storm, same seed, twice — the soak itself must be reproducible
/// bit for bit, or none of the other invariants mean much.
#[test]
#[ignore = "long soak; run explicitly with -- --ignored"]
fn soak_storm_is_deterministic() {
    let rounds = 2 * 3600 / ROUND_SECS;
    assert_eq!(
        storm_run(SEED ^ 1, rounds, None),
        storm_run(SEED ^ 1, rounds, None)
    );
}
