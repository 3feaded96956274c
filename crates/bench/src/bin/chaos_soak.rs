//! Chaos soak: hours of virtual-time fault storm against the
//! self-healing scanner, with invariants checked every round.
//!
//! Builds a live network with link faults, relay overload, periodic
//! churn and mass revivals, and drives a two-vantage scanner with the
//! full self-healing stack enabled — relay health + quarantine,
//! adaptive per-phase timeouts, estimate validation, CRC-sealed
//! checkpoints. Mid-run the scanner process is "killed": serialized to
//! a checkpoint, torn down, and resumed. At the end the run is replayed
//! uninterrupted and the two final states are compared bit for bit.
//!
//! Invariants (any violation exits non-zero):
//! * no panics and no wedged rounds;
//! * completed-pair count is monotone;
//! * every cached estimate is plausible (positive, finite, at or above
//!   the pair's speed-of-light floor);
//! * every quarantine is eventually released once relays come back;
//! * kill/resume is bit-identical to the uninterrupted run.
//!
//! Usage: `chaos_soak [--seed N] [--virtual-hours H] [--trace-out PATH]`
//! (env fallbacks: `TING_SEED`, `TING_HOURS`). With `--trace-out` the
//! uninterrupted run records a full span trace and exports it as
//! `ting-obs-v1` JSONL for `ting-prof lint` / `ting-prof flame`.

use bench::env_u64;
use netsim::{FaultPlan, NodeId, SimDuration, SimTime};
use ting::obs::{config_hash, ExportMeta, Obs, ObsConfig};
use ting::{
    AdaptiveTimeoutConfig, HealthConfig, Scanner, ScannerConfig, Ting, TingConfig, ValidationConfig,
};
use tor_sim::churn::ChurnConfig;
use tor_sim::{RelayFaultProfile, TorNetwork, TorNetworkBuilder};

const ROUND_SECS: u64 = 300;
const N_NODES: usize = 8;

fn storm_net(seed: u64, obs: Option<&Obs>) -> TorNetwork {
    let mut builder = TorNetworkBuilder::live(seed, 12)
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
        });
    if let Some(obs) = obs {
        builder = builder.observability(obs.clone());
    }
    builder.build()
}

fn scan_config() -> ScannerConfig {
    ScannerConfig {
        staleness: SimDuration::from_hours(24),
        pairs_per_round: 8,
        retry_backoff: SimDuration::from_secs(60),
        retry_backoff_cap: SimDuration::from_hours(1),
        health: Some(HealthConfig::default()),
        validation: Some(ValidationConfig::default()),
    }
}

fn ting_config() -> TingConfig {
    TingConfig {
        max_attempts: 2,
        max_lost_probes: 4,
        adaptive_timeouts: Some(AdaptiveTimeoutConfig::default()),
        ..TingConfig::fast()
    }
}

struct StormOutcome {
    checkpoint: String,
    timeouts: String,
    measured_pairs: usize,
    quarantines: u64,
    releases: u64,
    rejected: u64,
    flagged: u64,
    violations: Vec<String>,
}

fn storm_run(seed: u64, rounds: u64, kill_at: Option<u64>, obs: Option<&Obs>) -> StormOutcome {
    let make_ting = || match obs {
        Some(o) => Ting::with_obs(ting_config(), o.clone()),
        None => Ting::new(ting_config()),
    };
    let mut net = storm_net(seed, obs);
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(N_NODES).collect();
    let mut scanner = Scanner::new(nodes, scan_config());
    scanner.load_locations(&net);
    let mut ting = make_ting();
    let churn = ChurnConfig {
        initial_relays: 12,
        daily_departure_rate: 1.2,
        ..ChurnConfig::default()
    };
    let mut violations = Vec::new();
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

        let measured = scanner.matrix().measured_pairs();
        if measured < prev_measured {
            violations.push(format!(
                "round {round}: completed pairs went backwards ({prev_measured} -> {measured})"
            ));
        }
        prev_measured = measured;

        if kill_at == Some(round) {
            let checkpoint = scanner.to_checkpoint();
            let timeouts = ting.timeouts.export();
            match Scanner::from_checkpoint(&checkpoint) {
                Ok(s) => scanner = s,
                Err(e) => {
                    violations.push(format!("round {round}: own checkpoint refused: {e}"));
                    break;
                }
            }
            scanner.load_locations(&net);
            ting = make_ting();
            if let Err(e) = ting.timeouts.import(&timeouts) {
                violations.push(format!("round {round}: timeout state refused: {e}"));
                break;
            }
        }
    }

    for (a, b, est) in scanner.matrix().pairs() {
        if !(est.is_finite() && est > 0.05) {
            violations.push(format!(
                "implausible estimate cached ({},{}): {est}",
                a.0, b.0
            ));
            continue;
        }
        let pa = net.sim.underlay().node(a.index()).location;
        let pb = net.sim.underlay().node(b.index()).location;
        let floor = geo::lightspeed::min_rtt_ms(geo::great_circle_km(pa, pb));
        if est < floor {
            violations.push(format!(
                "faster-than-light estimate cached ({},{}): {est} < {floor}",
                a.0, b.0
            ));
        }
    }

    // Quarantine drain: revive everything and keep scanning until the
    // roster empties (probation + decay must release every relay).
    for &n in &net.relays.clone() {
        net.revive_relay(n);
    }
    net.refresh_consensus();
    let mut extra = 0u64;
    loop {
        let roster = scanner
            .health()
            .expect("storm config enables health")
            .quarantined_nodes();
        if roster.is_empty() {
            break;
        }
        extra += 1;
        if extra > 200 {
            violations.push(format!("quarantines never released: {roster:?}"));
            break;
        }
        let next = net.sim.now() + SimDuration::from_secs(1800);
        net.sim.advance_to(next);
        scanner.run_round(&mut net, &ting);
    }

    let snap = ting.metrics.snapshot();
    StormOutcome {
        checkpoint: scanner.to_checkpoint(),
        timeouts: ting.timeouts.export(),
        measured_pairs: scanner.matrix().measured_pairs(),
        quarantines: snap.relays_quarantined,
        releases: snap.relays_released,
        rejected: snap.estimates_rejected,
        flagged: snap.estimates_flagged,
        violations,
    }
}

/// Reads `--name value` from the CLI, falling back to `env_name`.
fn arg_u64(args: &[String], name: &str, env_name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_u64(env_name, default))
}

/// Reads an optional `--name value` string from the CLI.
fn arg_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", "TING_SEED", 2015);
    let hours = arg_u64(&args, "--virtual-hours", "TING_HOURS", 4);
    let trace_out = arg_str(&args, "--trace-out");
    let rounds = (hours * 3600 / ROUND_SECS).max(1);
    println!(
        "# chaos soak: seed={seed} virtual_hours={hours} rounds={rounds} (kill at round {})",
        rounds / 3
    );

    // Tracing rides on the uninterrupted run only; the obs layer is
    // behaviorally inert, so the bit-identity comparison against the
    // untraced resumed run still stands (and doubles as a check of
    // that inertness under storm conditions).
    let obs = trace_out.as_ref().map(|_| Obs::new(ObsConfig::Trace));
    let uninterrupted = storm_run(seed, rounds, None, obs.as_ref());
    let resumed = storm_run(seed, rounds, Some(rounds / 3), None);

    if let (Some(path), Some(obs)) = (&trace_out, &obs) {
        let meta = ExportMeta {
            seed,
            config_hash: config_hash(&format!("chaos-soak hours={hours}")),
        };
        let trace = obs.export_jsonl(&meta);
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("# trace: {} lines -> {path}", trace.lines().count());
    }

    let mut violations = Vec::new();
    violations.extend(uninterrupted.violations.iter().cloned());
    violations.extend(resumed.violations.iter().cloned());
    if uninterrupted.checkpoint != resumed.checkpoint {
        violations.push("kill/resume scanner state diverged from uninterrupted run".into());
    }
    if uninterrupted.timeouts != resumed.timeouts {
        violations.push("kill/resume timeout estimators diverged from uninterrupted run".into());
    }

    println!(
        "measured_pairs={} quarantines={} releases={} estimates_rejected={} estimates_flagged={}",
        uninterrupted.measured_pairs,
        uninterrupted.quarantines,
        uninterrupted.releases,
        uninterrupted.rejected,
        uninterrupted.flagged,
    );
    if violations.is_empty() {
        println!("chaos soak PASSED: kill/resume bit-identical, all invariants held");
    } else {
        println!("chaos soak FAILED:");
        for v in &violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}
