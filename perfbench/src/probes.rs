//! Calibrated unit-cost probes for the scan's hot primitives.
//!
//! [`calibrate`] warms up, sizes its batches to a fixed wall time, and
//! reports the median over batches of the per-call mean, so repeated
//! runs agree within a few percent on a quiet machine. On a shared host
//! the unit costs drift with the host's load, so the scan ledger also
//! takes short [`Probes`] slices between rounds: unit costs sampled in
//! the same window as the rounds they split into layers the benchmark
//! cannot wrap from outside.

use onion_crypto::{
    client_handshake_finish, client_handshake_start, server_handshake, x25519, HopKeys, KeyPair,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tor_protocol::{ClientCrypto, RelayCell, RelayCmd, RelayCrypto, RelayCryptoOutcome};

const BATCH: Duration = Duration::from_millis(20);
const BATCHES: usize = 11;

/// Seconds per call of `f`: warm-up for one batch length, then the
/// median over [`BATCHES`] batches sized to [`BATCH`] each.
pub fn calibrate(mut f: impl FnMut()) -> f64 {
    let (warm, secs) = slice(BATCH, &mut f);
    let iters = ((BATCH.as_secs_f64() / (secs / warm as f64)) as u64).max(1);
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[BATCHES / 2]
}

/// Calls `f` until `d` has passed; returns the calls and seconds taken.
pub fn slice(d: Duration, mut f: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut calls = 0;
    while t.elapsed() < d {
        f();
        calls += 1;
    }
    (calls, t.elapsed().as_secs_f64())
}

/// A distinct secret per `i`. The counter sits clear of the bits
/// X25519 clamps, so consecutive secrets never collapse into one key.
fn secret(i: u64, tag: u8) -> [u8; 32] {
    let mut s = [tag; 32];
    s[1..9].copy_from_slice(&i.to_le_bytes());
    s
}

/// One full ntor handshake as a circuit hop performs it: client and
/// relay ephemeral keygen, the relay's two DHs and the client's two.
fn handshake(identity: &KeyPair, i: u64) -> (HopKeys, HopKeys) {
    let (state, x) = client_handshake_start(KeyPair::from_secret(secret(i, 2)), identity.public);
    let (reply, server) = server_handshake(identity, KeyPair::from_secret(secret(i, 3)), &x);
    let client = client_handshake_finish(&state, &reply).expect("honest handshake verifies");
    (client, server)
}

/// State for the three probed primitives.
pub struct Probes {
    identity: KeyPair,
    peer: [u8; 32],
    /// The first hop's keys of a 3-hop circuit and cells its client
    /// addressed to the exit, so that hop only ever forwards.
    hop0: HopKeys,
    cells: Vec<Vec<u8>>,
    relay: RelayCrypto,
    next_cell: usize,
    i: u64,
}

impl Default for Probes {
    fn default() -> Probes {
        let identity = KeyPair::from_secret([1u8; 32]);
        let mut client = ClientCrypto::new();
        let mut hop0 = None;
        for h in 0..3u64 {
            let (c, s) = handshake(&identity, 1 << 40 | h);
            client.add_hop(&c);
            hop0.get_or_insert(s);
        }
        let hop0 = hop0.expect("three hops were built");
        let rc = RelayCell::new(RelayCmd::Data, 1, vec![0u8; 64]);
        let cells = (0..1024).map(|_| client.encrypt_forward(2, &rc)).collect();
        Probes {
            identity,
            peer: KeyPair::from_secret([9u8; 32]).public,
            relay: RelayCrypto::new(&hop0),
            hop0,
            cells,
            next_cell: 0,
            i: 0,
        }
    }
}

impl Probes {
    /// One X25519 scalar multiplication.
    pub fn x25519(&mut self) {
        self.i += 1;
        black_box(x25519(black_box(&secret(self.i, 5)), &self.peer));
    }

    /// One full ntor handshake.
    pub fn ntor(&mut self) {
        self.i += 1;
        black_box(handshake(&self.identity, self.i));
    }

    /// One relay's per-cell onion work: `RelayCrypto::process_forward`
    /// on a cell it forwards. Each pass over the cells restarts the
    /// relay's cipher state, so cells are processed in the order they
    /// were produced.
    pub fn cell(&mut self) {
        let k = self.next_cell;
        self.next_cell = (k + 1) % self.cells.len();
        if k == 0 {
            self.relay = RelayCrypto::new(&self.hop0);
        }
        match self.relay.process_forward(black_box(&self.cells[k])) {
            RelayCryptoOutcome::Forward(p) => {
                black_box(p);
            }
            RelayCryptoOutcome::Recognized(_) => panic!("a middle relay recognized an exit cell"),
        }
    }
}
