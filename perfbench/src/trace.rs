//! The benchmark's own spans: wall-clock intervals recorded around each
//! call into a layer, from outside the program.
//!
//! A span has a name (`<crate>.<module>.<call>`), a start, an end, the
//! span that caused it, and a group id shared by the spans of one round,
//! publish or query batch. Spans stay in memory and are written out as
//! JSON lines when the run ends. A layer's self time is its spans'
//! duration minus the part their child spans cover.
//!
//! Spans under a `bench.replay` root re-run one step of the program on
//! the side to time it; they are excluded from the layer shares, which
//! describe the workload itself.

use crate::report::Report;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The root span name of side replays.
pub const REPLAY: &str = "bench.replay";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the outermost open span when this one began (itself
    /// for a root).
    pub root: usize,
    pub group: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; pass it back to [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

/// In-memory span recorder for one thread. Disabled, it records
/// nothing and costs a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    groups: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, 0, Instant::now())
    }

    /// A recorder for another thread sharing `origin`, so spans of all
    /// threads sit on one time axis.
    pub fn with_origin(enabled: bool, thread: u32, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            groups: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh group id for the spans of one round, publish or batch.
    pub fn next_group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let root = self.stack.first().copied().unwrap_or(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            root,
            group,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with its wall
    /// time, which is measured whether or not tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, group);
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        self.end(open);
        (out, d)
    }

    /// Appends another thread's spans (which must share this origin).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.root += base;
            s
        }));
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    fn in_replay(&self, s: &Span) -> bool {
        self.spans[s.root].name == REPLAY
    }

    /// Self time (ns) per span name, replays excluded.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.in_replay(s) {
                continue;
            }
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Share of `wall` covered by root spans of `thread`, replays
    /// excluded from both.
    pub fn coverage(&self, thread: u32, wall: Duration) -> f64 {
        let replay = self.replay_secs(thread);
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.thread == thread && s.name != REPLAY)
            .map(Span::dur_ns)
            .sum();
        covered as f64 / 1e9 / (wall.as_secs_f64() - replay)
    }

    /// Seconds `thread` spent in side replays.
    pub fn replay_secs(&self, thread: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == REPLAY && s.thread == thread)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Self-time shares of `wall` (replays excluded), summed by the
    /// first `depth` name components: 1 gives crates, 2 modules.
    pub fn layer_shares(&self, wall: Duration, depth: usize) -> Vec<(String, f64, f64)> {
        let replay: f64 = (0..=self.max_thread()).map(|t| self.replay_secs(t)).sum();
        let wall_s = wall.as_secs_f64() * (self.max_thread() + 1) as f64 - replay;
        let mut by: BTreeMap<String, u64> = BTreeMap::new();
        for (name, ns) in self.self_times() {
            let layer: Vec<&str> = name.split('.').take(depth).collect();
            *by.entry(layer.join(".")).or_insert(0) += ns;
        }
        by.into_iter()
            .map(|(layer, ns)| {
                let s = ns as f64 / 1e9;
                (layer, s, s / wall_s)
            })
            .collect()
    }

    fn max_thread(&self) -> u32 {
        self.spans.iter().map(|s| s.thread).max().unwrap_or(0)
    }

    /// The layer table printed with a traced run.
    pub fn table(&self, workload: &str, wall: Duration) -> Vec<String> {
        let mut lines = vec![format!(
            "# layers of {workload}: self time and share of {:.3} s wall per thread, \
             side replays excluded ({} spans, root coverage {:.2}%)",
            wall.as_secs_f64() - self.replay_secs(0),
            self.spans.len(),
            100.0 * self.coverage(0, wall)
        )];
        for (layer, s, share) in self.layer_shares(wall, 2) {
            lines.push(format!(
                "#   {layer:<32} {:>10.3} ms {:>7.2}%",
                s * 1e3,
                share * 100.0
            ));
        }
        let mut replayed: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| self.in_replay(s) && s.name != REPLAY)
        {
            let e = replayed.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns();
        }
        if !replayed.is_empty() {
            lines.push("# side replays (calls, mean per call):".to_owned());
        }
        for (name, (calls, ns)) in replayed {
            lines.push(format!(
                "#   {name:<32} {calls:>6} {:>10.3} ms",
                ns as f64 / calls as f64 / 1e6
            ));
        }
        lines
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"group\":{},\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.thread, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
    /// Adds what every traced run reports — span coverage, crate-level
    /// self shares and the layer table — and writes the span file
    /// beside the run's scratch directory.
    pub fn finish(&self, report: &mut Report, workload: &str, wall: Duration, work: &Path) {
        report.metric("trace.span_coverage", self.coverage(0, wall), "ratio");
        // A layer the workload never calls has a share of zero.
        let shares = self.layer_shares(wall, 1);
        for (layer, name) in [
            ("bench", "layer.bench.self_share"),
            ("ting", "layer.ting.self_share"),
            ("oracle", "layer.oracle.self_share"),
        ] {
            let share = shares.iter().find(|r| r.0 == layer).map_or(0.0, |r| r.2);
            report.metric(name, share, "ratio");
        }
        report.notes.extend(self.table(workload, wall));
        let path = work
            .parent()
            .unwrap_or(work)
            .join(format!("{workload}.spans.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => report.notes.push(format!("# spans: {}", path.display())),
            Err(e) => report.gate(false, || {
                format!("writing spans to {}: {e}", path.display())
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_replays() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.round", 1);
        let child = t.begin("ting.shard.run_round", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let r = t.begin(REPLAY, 1);
        let c = t.begin("oracle.journal.append", 1);
        t.end(c);
        t.end(r);
        let st = t.self_times();
        assert!(st["ting.shard.run_round"] >= 2_000_000);
        assert!(st["bench.round"] < st["ting.shard.run_round"]);
        assert!(!st.contains_key("oracle.journal.append"));
        let shares = t.layer_shares(Duration::from_millis(4), 1);
        assert_eq!(
            shares.iter().map(|r| r.0.as_str()).collect::<Vec<_>>(),
            ["bench", "ting"]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x.y", 0, || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(t.self_times().is_empty());
    }
}
