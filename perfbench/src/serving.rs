//! The serving side's per-layer ledger, shared by both workloads: each
//! served document's publish steps replayed on the side, and the query
//! kernels timed on the final snapshot.

use crate::queries::{self, Mix};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Tracer, REPLAY};
use netsim::NodeId;
use oracle::journal::{frame_record, render_published};
use oracle::{Journal, Oracle, OracleReader, Pipeline, Snapshot};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ting::shard::parse_merged_document;
use ting::RttMatrix;

/// Side state the traced run replays each served document into.
pub struct Replay {
    journal: Journal,
    oracle: Oracle,
    /// Journal bytes of the publishes replayed with `counted` set.
    pub journal_bytes: u64,
}

impl Replay {
    pub fn new(nodes: &[NodeId], dir: &Path) -> Replay {
        Replay {
            journal: Journal::open(dir).expect("open the replay journal"),
            oracle: Oracle::new(Snapshot::from_matrix(&RttMatrix::new(nodes.to_vec()))),
            journal_bytes: 0,
        }
    }

    /// Re-runs one publish's steps on the served document, each in its
    /// own span.
    pub fn publish(&mut self, p: &Pipeline, gen: u64, tracer: &mut Tracer, g: u64, counted: bool) {
        let replay = tracer.begin(REPLAY, g);
        let (doc, _) = tracer.time("ting.shard.render", g, || p.serving_document());
        let (parsed, _) = tracer.time("ting.shard.parse", g, || parse_merged_document(&doc));
        parsed.expect("the served document parses");
        let (snap, _) = tracer.time("oracle.snapshot.build", g, || {
            Snapshot::from_merged_document(&doc)
        });
        let snap = snap.expect("the served document loads as a snapshot");
        let (appended, _) = tracer.time("oracle.journal.append", g, || {
            self.journal.append(gen, &doc)
        });
        appended.expect("append to the replay journal");
        let (marked, _) = tracer.time("oracle.journal.mark_published", g, || {
            self.journal.mark_published(gen, &doc)
        });
        marked.expect("publish into the replay journal");
        tracer.time("oracle.service.swap", g, || {
            self.oracle.publish_versioned(snap, gen)
        });
        if counted {
            self.journal_bytes +=
                (frame_record(gen, &doc).len() + render_published(gen, &doc).len()) as u64;
        }
        tracer.end(replay);
    }
}

/// The publish path's layer metrics, read off the spans of the
/// pipeline calls and of the [`Replay`]s.
pub fn publish_layers(tracer: &Tracer, report: &mut Report) {
    let med = |name: &str| median(&tracer.durations(name));
    report.metric(
        "pipeline.offer_us",
        med("oracle.pipeline.offer") * 1e6,
        "us",
    );
    report.metric("pipeline.tick_ms", med("oracle.pipeline.tick") * 1e3, "ms");
    report.metric("shard.render_ms", med("ting.shard.render") * 1e3, "ms");
    report.metric("shard.parse_ms", med("ting.shard.parse") * 1e3, "ms");
    report.metric(
        "snapshot.build_ms",
        med("oracle.snapshot.build") * 1e3,
        "ms",
    );
    report.metric(
        "journal.append_ms",
        med("oracle.journal.append") * 1e3,
        "ms",
    );
    report.metric(
        "journal.mark_published_ms",
        med("oracle.journal.mark_published") * 1e3,
        "ms",
    );
    report.metric("oracle.swap_us", med("oracle.service.swap") * 1e6, "us");
    // Parse is part of the snapshot build, so it is not added again.
    let steps: f64 = [
        "ting.shard.render",
        "oracle.snapshot.build",
        "oracle.journal.append",
        "oracle.journal.mark_published",
        "oracle.service.swap",
    ]
    .iter()
    .map(|n| tracer.total_secs(n))
    .sum();
    report.metric(
        "publish.ledger_coverage",
        steps / tracer.total_secs("oracle.pipeline.tick"),
        "ratio",
    );
}

/// The query kernels timed on the final snapshot for `probe` each:
/// straight on the snapshot, and point lookups through the swap cell.
/// The difference between the two point figures is the read path's
/// overhead.
pub fn query_layers(
    snap: &Arc<Snapshot>,
    reader: &OracleReader,
    mix: &Mix,
    probe: Duration,
    report: &mut Report,
) {
    let direct = queries::read(&**snap, mix, Instant::now() + probe, false);
    let points = queries::read(&**snap, mix, Instant::now() + probe, true);
    let cell = queries::read(reader, mix, Instant::now() + probe, true);
    for r in [&direct, &points, &cell] {
        report.attempted += r.queries;
        report.failed += r.errors;
    }
    report.metric("snapshot.point_ns", median(&points.point_ns), "ns");
    report.metric("snapshot.detour_us", median(&direct.detour_us), "us");
    report.metric("snapshot.nearest_us", median(&direct.nearest_us), "us");
    report.metric("service.point_ns", median(&cell.point_ns), "ns");
}
