//! Interleaved multi-vantage measurement.
//!
//! §6 of the paper sizes all-pairs coverage of the live network by
//! assuming "multiple instances of Ting can run in parallel" from
//! several vantage pairs. This module reproduces that scaling step in
//! the simulator: each vantage `i` (its own proxy, local relay pair
//! `(w_i, z_i)`, and echo server — see
//! [`tor_sim::TorNetworkBuilder::vantages`]) owns one in-flight
//! measurement at a time, and a cooperative driver multiplexes all of
//! them over the single `netsim` event loop so K pairs are measured
//! concurrently *in virtual time*.
//!
//! Every Ting measurement in the crate runs here. A measurement is a
//! poll-driven state machine ([`PairTask`]) that samples an ordered
//! list of circuits — `C_xy`, `C_x`, `C_y` for a pair, a single circuit
//! for [`Ting::sample_circuit`] — issuing controller commands without
//! ever draining the queue itself. The driver peeks the next event time
//! ([`netsim::Simulator::next_event_at`]), compares it with every
//! task's earliest wake-up deadline, and advances whichever comes
//! first. [`Ting::measure_pair`] and [`Ting::sample_circuit`] are
//! one-task drives on vantage 0; [`measure_interleaved`] keeps one task
//! in flight per vantage. The event stream — and therefore every
//! estimate — remains a deterministic function of
//! `(seed, K, assignment order)`.

use crate::estimator::{CircuitSamples, TingMeasurement};
use crate::orchestrator::{Ting, TingError};
use crate::timeout::TimeoutPhase;
use netsim::{NodeId, SimDuration, SimTime, Simulator};
use std::collections::VecDeque;
use tor_sim::{CircuitHandle, CircuitStatus, Controller, StreamHandle, StreamStatus, TorNetwork};

/// The completion record of one interleaved pair measurement.
#[derive(Debug)]
pub struct PairOutcome {
    pub x: NodeId,
    pub y: NodeId,
    /// Vantage index that measured the pair.
    pub vantage: usize,
    /// Virtual instant the measurement finished (success or failure).
    pub completed_at: SimTime,
    /// The pair's `scan.pair` trace span, opened when the measurement
    /// started. The completion handler must close it (the
    /// scanner does so with the validation outcome;
    /// [`measure_interleaved`] closes it with the raw result).
    pub span: obs::SpanId,
    pub result: Result<TingMeasurement, TingError>,
}

/// Where one in-flight measurement currently is.
enum TaskState {
    /// About to build the current circuit.
    StartPhase,
    /// Waiting for the circuit build to settle.
    Building {
        circuit: CircuitHandle,
        deadline: Option<SimTime>,
    },
    /// Waiting for the echo stream to connect.
    Opening {
        circuit: CircuitHandle,
        stream: StreamHandle,
        deadline: Option<SimTime>,
    },
    /// Waiting out the inter-probe spacing.
    Spacing {
        circuit: CircuitHandle,
        stream: StreamHandle,
        resume_at: SimTime,
    },
    /// A probe is in flight.
    AwaitEcho {
        circuit: CircuitHandle,
        stream: StreamHandle,
        expect: Vec<u8>,
        sent_at: SimTime,
        deadline: Option<SimTime>,
    },
    /// Waiting out the retry backoff before rebuilding the circuit.
    Backoff { resume_at: SimTime },
    /// Finished; the result has been recorded.
    Done,
}

/// The circuits a task samples, in order: each relay path with its
/// Eq. (4) role (`full`, `x`, `y`, or `leg` for a bare circuit).
pub(crate) type CircuitPlan = Vec<(Vec<NodeId>, &'static str)>;

/// What a finished task hands back: one sample set per planned circuit,
/// in order, and the virtual seconds the task took.
pub(crate) type TaskResult = Result<(Vec<CircuitSamples>, f64), TingError>;

/// A poll-driven measurement through one vantage: each planned circuit
/// is built, given an echo stream, sampled under the policy and torn
/// down, with failed attempts retried under backoff through the same
/// relays. It never drains the event queue itself, so it can interleave
/// with other tasks.
struct PairTask {
    circuits: CircuitPlan,
    echo: NodeId,
    /// Vantage index this task measures from (trace attribution).
    vantage: usize,
    /// The `ting.circuit` span of the in-flight attempt, tagging every
    /// phase/error event recorded while it is open.
    circuit_span: obs::SpanId,
    started: SimTime,
    /// Index into `circuits` of the circuit being sampled.
    phase: usize,
    /// 1-based attempt counter for the current circuit.
    attempt: u32,
    samples: Vec<f64>,
    lost: u32,
    probe_idx: u64,
    phase_samples: Vec<CircuitSamples>,
    /// When the in-flight circuit build was issued (adaptive-timeout
    /// observation).
    build_started: SimTime,
    /// When the in-flight stream open was issued.
    open_started: SimTime,
    state: TaskState,
    result: Option<TaskResult>,
}

impl PairTask {
    fn new(circuits: CircuitPlan, echo: NodeId, vantage: usize, now: SimTime) -> PairTask {
        PairTask {
            circuits,
            echo,
            vantage,
            circuit_span: obs::SpanId(0),
            started: now,
            phase: 0,
            attempt: 1,
            samples: Vec::new(),
            lost: 0,
            probe_idx: 0,
            phase_samples: Vec::new(),
            build_started: now,
            open_started: now,
            state: TaskState::StartPhase,
            result: None,
        }
    }

    /// The relay path of the current circuit.
    fn phase_path(&self) -> Vec<NodeId> {
        self.circuits[self.phase].0.clone()
    }

    fn deadline(sim: &Simulator, timeout_ms: Option<f64>) -> Option<SimTime> {
        timeout_ms.map(|ms| sim.now() + SimDuration::from_millis_f64(ms))
    }

    fn past(sim: &Simulator, deadline: Option<SimTime>) -> bool {
        deadline.is_some_and(|d| sim.now() >= d)
    }

    /// Handles a failed circuit attempt: retry under jittered
    /// exponential backoff, or conclude the measurement once attempts
    /// are exhausted (or the failure is permanent).
    fn fail_attempt(&mut self, sim: &Simulator, ting: &Ting, err: TingError) {
        // Whatever happens next (retry or give up), this attempt's
        // circuit is over — close its span so no error path leaks one.
        ting.observe_circuit_end(self.circuit_span, err.code(), sim.now());
        let max_attempts = ting.config.max_attempts.max(1);
        if !err.is_retryable() || self.attempt >= max_attempts {
            self.result = Some(Err(err));
            self.state = TaskState::Done;
            return;
        }
        let path = self.phase_path();
        let pause_ms = ting.backoff_ms(&path, self.attempt);
        self.attempt += 1;
        ting.metrics.on_retry();
        ting.observe_retry(self.attempt, sim.now());
        ting.metrics.trace(format!(
            "retry attempt={} path={:?} backoff_ms={pause_ms:.1}",
            self.attempt,
            path.iter().map(|n| n.0).collect::<Vec<_>>()
        ));
        self.state = TaskState::Backoff {
            resume_at: sim.now() + SimDuration::from_millis_f64(pause_ms),
        };
    }

    /// Sends the next probe on the open stream.
    fn send_probe(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        let payload = ting.probe_payload(self.probe_idx);
        self.probe_idx += 1;
        let sent_at = sim.now();
        let deadline = Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Probe));
        ctl.send(sim, stream, payload.clone());
        self.state = TaskState::AwaitEcho {
            circuit,
            stream,
            expect: payload,
            sent_at,
            deadline,
        };
    }

    /// Advances the state machine as far as it can go at the current
    /// instant. Returns the earliest virtual time this task needs to be
    /// woken at (`None` = it is waiting purely on network events).
    ///
    /// `idle` tells the task the global event queue has drained with no
    /// task holding a wake-up. Only a wait with no deadline can be
    /// pending then (a deadline is a wake-up), and its condition
    /// (circuit ready, stream open, echo back) can never be met any
    /// more, so it is treated as a failure/timeout. A wait with a
    /// deadline always runs to its deadline: a lost probe costs its full
    /// timeout in virtual time.
    fn poll(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        mut idle: bool,
    ) -> Option<SimTime> {
        loop {
            match self.state {
                TaskState::StartPhase => {
                    self.samples.clear();
                    self.lost = 0;
                    self.probe_idx = 0;
                    self.build_started = sim.now();
                    let (path, kind) = self.circuits[self.phase].clone();
                    self.circuit_span = ting.observe_circuit_begin(
                        &path,
                        kind,
                        self.attempt,
                        self.vantage,
                        sim.now(),
                    );
                    let deadline = Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Build));
                    let circuit = ctl.build_circuit(sim, path);
                    self.state = TaskState::Building { circuit, deadline };
                }
                TaskState::Building { circuit, deadline } => match ctl.circuit_status(circuit) {
                    CircuitStatus::Ready => {
                        ting.observe_phase_ms(
                            TimeoutPhase::Build,
                            sim.now().since(self.build_started).as_millis_f64(),
                            sim.now(),
                            self.circuit_span,
                        );
                        self.open_started = sim.now();
                        let deadline =
                            Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Stream));
                        let stream = ctl.open_stream(sim, circuit, self.echo);
                        self.state = TaskState::Opening {
                            circuit,
                            stream,
                            deadline,
                        };
                    }
                    status => {
                        let settled = status == CircuitStatus::Failed;
                        if !settled && !Self::past(sim, deadline) && !idle {
                            return deadline;
                        }
                        idle = false;
                        let path = self.phase_path();
                        let permanent = ctl.circuit_error(circuit).is_some();
                        ting.metrics.on_circuit_failed();
                        ting.metrics.trace(format!(
                            "circuit_failed path={:?} permanent={permanent}",
                            path.iter().map(|n| n.0).collect::<Vec<_>>()
                        ));
                        ctl.close_circuit(sim, circuit);
                        let err = TingError::CircuitBuildFailed { path, permanent };
                        ting.observe_error(&err, sim.now(), self.circuit_span);
                        self.fail_attempt(sim, ting, err);
                    }
                },
                TaskState::Opening {
                    circuit,
                    stream,
                    deadline,
                } => match ctl.stream_status(stream) {
                    StreamStatus::Open => {
                        ting.observe_phase_ms(
                            TimeoutPhase::Stream,
                            sim.now().since(self.open_started).as_millis_f64(),
                            sim.now(),
                            self.circuit_span,
                        );
                        self.send_probe(sim, ctl, ting, circuit, stream);
                    }
                    status => {
                        let settled = status != StreamStatus::Connecting;
                        if !settled && !Self::past(sim, deadline) && !idle {
                            return deadline;
                        }
                        idle = false;
                        ting.metrics
                            .trace(format!("stream_failed circuit={}", circuit.0));
                        ctl.close_circuit(sim, circuit);
                        ting.observe_error(&TingError::StreamFailed, sim.now(), self.circuit_span);
                        self.fail_attempt(sim, ting, TingError::StreamFailed);
                    }
                },
                TaskState::Spacing {
                    circuit,
                    stream,
                    resume_at,
                } => {
                    if sim.now() < resume_at {
                        return Some(resume_at);
                    }
                    self.send_probe(sim, ctl, ting, circuit, stream);
                }
                TaskState::AwaitEcho {
                    circuit,
                    stream,
                    ref expect,
                    sent_at,
                    deadline,
                } => {
                    let echoed = ctl
                        .take_received(stream)
                        .into_iter()
                        .filter(|(arrival, data)| *arrival >= sent_at && data == expect)
                        .map(|(arrival, _)| (arrival - sent_at).as_millis_f64())
                        .next_back();
                    match echoed {
                        Some(rtt) => {
                            ting.observe_phase_ms(
                                TimeoutPhase::Probe,
                                rtt,
                                sim.now(),
                                self.circuit_span,
                            );
                            self.samples.push(rtt);
                            if ting.config.policy.wants_more(&self.samples) {
                                self.pause_or_probe(sim, ctl, ting, circuit, stream);
                            } else {
                                self.finish_phase(sim, ctl, ting, circuit, stream);
                            }
                        }
                        None => {
                            if !Self::past(sim, deadline) && !idle {
                                return deadline;
                            }
                            idle = false;
                            self.lost += 1;
                            ting.metrics.on_probe_timed_out();
                            ting.observe_probe_timeout();
                            if self.lost > ting.config.max_lost_probes {
                                ting.metrics.trace(format!(
                                    "probes_lost circuit={} lost={}",
                                    circuit.0, self.lost
                                ));
                                ctl.close_stream(sim, stream);
                                ctl.close_circuit(sim, circuit);
                                ting.observe_error(
                                    &TingError::ProbeLost,
                                    sim.now(),
                                    self.circuit_span,
                                );
                                self.fail_attempt(sim, ting, TingError::ProbeLost);
                            } else {
                                self.pause_or_probe(sim, ctl, ting, circuit, stream);
                            }
                        }
                    }
                }
                TaskState::Backoff { resume_at } => {
                    if sim.now() < resume_at {
                        return Some(resume_at);
                    }
                    self.state = TaskState::StartPhase;
                }
                TaskState::Done => return None,
            }
        }
    }

    /// Waits out the probe spacing (if configured) before the next
    /// probe. The first probe of a circuit never waits.
    fn pause_or_probe(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        if ting.config.probe_spacing_ms > 0.0 && self.probe_idx > 0 {
            self.state = TaskState::Spacing {
                circuit,
                stream,
                resume_at: sim.now() + SimDuration::from_millis_f64(ting.config.probe_spacing_ms),
            };
        } else {
            self.send_probe(sim, ctl, ting, circuit, stream);
        }
    }

    /// Seals the current circuit's samples, tears the circuit down, and
    /// either moves on to the next circuit or completes the measurement.
    fn finish_phase(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        ctl.close_stream(sim, stream);
        ctl.close_circuit(sim, circuit);
        ting.observe_circuit_end(self.circuit_span, "ok", sim.now());
        self.phase_samples
            .push(CircuitSamples::new(std::mem::take(&mut self.samples)));
        self.phase += 1;
        self.attempt = 1;
        if self.phase == self.circuits.len() {
            let elapsed_s = (sim.now() - self.started).as_secs_f64();
            self.result = Some(Ok((std::mem::take(&mut self.phase_samples), elapsed_s)));
            self.state = TaskState::Done;
        } else {
            self.state = TaskState::StartPhase;
        }
    }
}

/// The three circuits of a §3.3 pair measurement from local relays
/// `(w, z)`: `C_xy`, `C_x`, `C_y`.
pub(crate) fn pair_circuits(w: NodeId, x: NodeId, y: NodeId, z: NodeId) -> CircuitPlan {
    vec![
        (vec![w, x, y, z], "full"),
        (vec![w, x], "x"),
        (vec![w, y], "y"),
    ]
}

/// Assembles a finished [`pair_circuits`] task into its measurement.
pub(crate) fn pair_measurement(
    (circuits, elapsed_s): (Vec<CircuitSamples>, f64),
) -> TingMeasurement {
    let mut circuits = circuits.into_iter();
    let mut next = || circuits.next().expect("three circuits");
    TingMeasurement {
        full: next(),
        x_leg: next(),
        y_leg: next(),
        elapsed_s,
    }
}

/// Runs one task on vantage 0 to completion — the engine behind
/// [`Ting::measure_pair`] and [`Ting::sample_circuit`].
pub(crate) fn drive_one(net: &mut TorNetwork, ting: &Ting, circuits: CircuitPlan) -> TaskResult {
    let (_, _, echo) = net.vantage_endpoints(0);
    let mut task = Some(PairTask::new(circuits, echo, 0, net.sim.now()));
    let mut out = None;
    drive(
        net,
        ting,
        |_, v| {
            if v == 0 {
                task.take().map(|t| ((), t))
            } else {
                None
            }
        },
        |(), _, result, _| out = Some(result),
    );
    out.expect("the task ran to completion")
}

/// Measures `assignments` — `(vantage, x, y)` triples — with one
/// in-flight measurement per vantage, interleaved over the shared event
/// loop so up to [`TorNetwork::vantage_count`] pairs progress
/// concurrently in virtual time. Each vantage works through its own
/// shard of the assignment list in order; outcomes are returned in
/// completion order (deterministic for a fixed network and assignment
/// list). The engine closes each pair's trace span with the raw
/// measurement outcome; use [`measure_interleaved_with`] to take over
/// completion handling (the scanner does, closing spans with the
/// validation verdict instead).
///
/// # Panics
/// Panics when an assignment names a vantage the network does not have,
/// or when the driver detects a livelock (a task neither progressing
/// nor holding a wake-up — a bug, not an expected runtime condition).
pub fn measure_interleaved(
    net: &mut TorNetwork,
    ting: &Ting,
    assignments: &[(usize, NodeId, NodeId)],
) -> Vec<PairOutcome> {
    let mut outcomes = Vec::with_capacity(assignments.len());
    measure_interleaved_with(net, ting, assignments, |outcome| {
        let label = match &outcome.result {
            Ok(_) => "ok",
            Err(e) => e.code(),
        };
        ting.observe_pair_end(outcome.span, label, outcome.completed_at);
        outcomes.push(outcome);
    });
    outcomes
}

/// [`measure_interleaved`] with a custom completion handler:
/// `on_complete` runs *at the virtual instant each measurement
/// finishes* (the simulation has not advanced past
/// [`PairOutcome::completed_at`]), so bookkeeping it performs — cache
/// updates, health accounting, trace events — lands at the completion
/// time and the trace stays time-ordered. The handler owns the pair's
/// `scan.pair` span ([`PairOutcome::span`]) and must close it.
pub fn measure_interleaved_with(
    net: &mut TorNetwork,
    ting: &Ting,
    assignments: &[(usize, NodeId, NodeId)],
    mut on_complete: impl FnMut(PairOutcome),
) {
    let k = net.vantage_count();
    let mut shards: Vec<VecDeque<(NodeId, NodeId)>> = (0..k).map(|_| VecDeque::new()).collect();
    for &(v, x, y) in assignments {
        assert!(v < k, "assignment to vantage {v} but only {k} provisioned");
        shards[v].push_back((x, y));
    }
    drive(
        net,
        ting,
        |net, v| {
            let (x, y) = shards[v].pop_front()?;
            let (w, z, echo) = net.vantage_endpoints(v);
            let now = net.sim.now();
            let span = ting.observe_pair_begin(x, y, v, now);
            let task = PairTask::new(pair_circuits(w, x, y, z), echo, v, now);
            Some(((x, y, span), task))
        },
        |(x, y, span), vantage, result, completed_at| {
            on_complete(PairOutcome {
                x,
                y,
                vantage,
                completed_at,
                span,
                result: result.map(pair_measurement),
            })
        },
    );
}

/// The driver: keeps one task in flight per vantage until `next` has no
/// more work for any of them. `next(net, v)` supplies vantage `v`'s next
/// task (with a caller tag) when its previous one finishes;
/// `on_complete(tag, v, result, now)` runs at the virtual instant the
/// task finishes.
///
/// # Panics
/// Panics when the driver detects a livelock (a task neither
/// progressing nor holding a wake-up — a bug, not an expected runtime
/// condition).
fn drive<T>(
    net: &mut TorNetwork,
    ting: &Ting,
    mut next: impl FnMut(&TorNetwork, usize) -> Option<(T, PairTask)>,
    mut on_complete: impl FnMut(T, usize, TaskResult, SimTime),
) {
    let k = net.vantage_count();
    let mut active: Vec<Option<(T, PairTask)>> = (0..k).map(|_| None).collect();
    let mut idle_pending = false;
    let mut stuck_polls = 0u32;

    loop {
        let idle = std::mem::take(&mut idle_pending);
        let mut wake: Option<SimTime> = None;
        let mut any_active = false;
        for (v, slot) in active.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = next(net, v);
            }
            let Some((_, task)) = slot.as_mut() else {
                continue;
            };
            any_active = true;
            let (sim, ctl, _, _, _) = net.vantage_parts(v);
            let hint = task.poll(sim, ctl, ting, idle);
            if let Some(result) = task.result.take() {
                let (tag, _) = slot.take().expect("task is active");
                on_complete(tag, v, result, net.sim.now());
            } else if let Some(h) = hint {
                wake = Some(wake.map_or(h, |w| w.min(h)));
            }
        }
        if !any_active {
            break;
        }

        // Advance virtual time to whatever comes first: the next queued
        // event or the earliest task wake-up. When neither exists the
        // network is quiescent with tasks still waiting — re-poll them
        // with the idle flag so unmet conditions resolve as timeouts.
        match (net.sim.next_event_at(), wake) {
            (Some(te), Some(tw)) if te > tw => {
                net.sim.advance_to(tw);
            }
            (Some(_), _) => {
                net.sim.step();
            }
            (None, Some(tw)) => {
                net.sim.advance_to(tw);
            }
            (None, None) => {
                idle_pending = true;
                stuck_polls += 1;
                assert!(
                    stuck_polls < 100_000,
                    "interleaved measurement livelocked with tasks pending"
                );
                continue;
            }
        }
        stuck_polls = 0;
    }
}
