//! One run's outcome: metrics, operation counts, correctness gates and
//! the deterministic work ledger, rendered as the benchmark's result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: pairs, publishes and queries.
    pub attempted: u64,
    /// Operations that failed, plus one per violated gate.
    pub failed: u64,
    /// Violated correctness gates, in the order they were checked.
    pub errors: Vec<String>,
    /// CRC-32 of the final served document.
    pub digest: Option<u32>,
    pub metrics: Vec<Metric>,
    /// Deterministic work counts: they repeat exactly for one seed, so
    /// a change can cite them as counts.
    pub counts: Vec<(&'static str, u64)>,
    /// Lines printed ahead of the result: the ledger and layer table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a correctness gate; a violation counts as a failed
    /// operation.
    pub fn gate(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(describe());
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A percentile metric, left out (with a note) when the sample
    /// does not support it.
    pub fn tail_metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => self
                .notes
                .push(format!("# {name} omitted: fewer than 10 samples beyond it")),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// The ledger line: every deterministic count, in insertion order.
    pub fn ledger_line(&self) -> String {
        let mut s = String::from("# ledger");
        for (name, v) in &self.counts {
            let _ = write!(s, " {name}={v}");
        }
        s
    }

    /// The result object, one line of JSON.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Takes over the operations, gate verdicts and the metrics this
    /// report lacks from a run made beside it, named `what` in the notes.
    pub fn adopt(&mut self, what: &str, side: Report) {
        self.attempted += side.attempted;
        self.failed += side.failed;
        self.errors
            .extend(side.errors.into_iter().map(|e| format!("{what}: {e}")));
        let mut taken = Vec::new();
        for m in side.metrics {
            if self.get(m.name).is_none() {
                taken.push(m.name);
                self.metrics.push(m);
            }
        }
        self.notes
            .push(format!("# from the {what}: {}", taken.join(" ")));
    }

    /// Fails the run unless it measured exactly `names`.
    pub fn expect_metrics(&mut self, names: &[&str]) {
        let missing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| self.get(n).is_none())
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|m| m.name)
            .filter(|n| !names.contains(n))
            .collect();
        self.gate(missing.is_empty() && extra.is_empty(), || {
            format!("metrics missing: {missing:?}, not listed: {extra:?}")
        });
    }

    /// Refuses values JSON cannot carry; a NaN or infinite metric is a
    /// benchmark defect, reported as a failed gate.
    pub fn check_finite(&mut self) {
        let bad: Vec<&'static str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        self.metrics.retain(|m| m.value.is_finite());
        for name in bad {
            self.gate(false, || format!("metric {name} is not a finite number"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_and_the_gate_verdict() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        r.metric("x.per_s", 1234.5, "1/s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x.per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        r.gate(false, || "broken".into());
        r.metric("nan", f64::NAN, "s");
        r.check_finite();
        assert!(!r.correct());
        assert_eq!(r.failed, 2);
        assert!(r.get("nan").is_none());
    }
}
