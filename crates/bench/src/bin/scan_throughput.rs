//! Scan throughput vs. vantage-pool size.
//!
//! §6 of the paper projects all-pairs coverage of the live network by
//! running "multiple instances of Ting in parallel". This binary
//! quantifies that projection in the simulator: it runs a full
//! all-pairs scan of the same network at several vantage-pool sizes K
//! and reports the virtual time each takes, the sustained measurement
//! rate in pairs per virtual hour, and the speedup over a single
//! vantage (K = 1).
//!
//! Environment overrides (see `bench` crate docs): `TING_SEED`,
//! `TING_RELAYS` (default 40), `TING_SAMPLES` (default 3 per circuit),
//! `TING_MAX_K` (default 4; the sweep is 1, 2, 4, … up to this).

use bench::{env_u64, env_usize, seed};
use netsim::{NodeId, SimTime};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

fn main() {
    let relays = env_usize("TING_RELAYS", 40);
    let samples = env_usize("TING_SAMPLES", 3);
    let max_k = env_usize("TING_MAX_K", 4).max(1);
    let seed = env_u64("TING_SEED", seed());

    let mut ks = Vec::new();
    let mut k = 1;
    while k <= max_k {
        ks.push(k);
        k *= 2;
    }

    println!("# scan_throughput: relays={relays} samples={samples} seed={seed}");
    println!("# k\tmeasured\tfailed\tvirtual_s\tpairs_per_virtual_hour\tspeedup");
    let mut single_s = None;
    for k in ks {
        let mut net = TorNetworkBuilder::live(seed, relays).vantages(k).build();
        let nodes: Vec<NodeId> = net.relays.clone();
        let pairs = nodes.len() * (nodes.len() - 1) / 2;
        let mut scanner = Scanner::new(
            nodes,
            ScannerConfig {
                pairs_per_round: pairs,
                ..ScannerConfig::default()
            },
        );
        let ting = Ting::new(TingConfig::with_samples(samples));
        let report = scanner.run_round(&mut net, &ting);
        let virtual_s = (net.sim.now() - SimTime::ZERO).as_secs_f64();
        let rate = report.measured as f64 / (virtual_s / 3600.0);
        let speedup = single_s.get_or_insert(virtual_s).max(f64::MIN_POSITIVE) / virtual_s;
        println!(
            "{k}\t{}\t{}\t{virtual_s:.1}\t{rate:.0}\t{speedup:.2}",
            report.measured, report.failed
        );
        assert_eq!(
            report.measured + report.failed,
            pairs,
            "round must attempt every pair"
        );
    }
}
