//! The served generation's merged-matrix document, rendered by
//! splicing.
//!
//! Consecutive generations share almost every matrix row: a publish
//! changes the header, the coverage rows, and the rows of the pairs
//! its batch carried. [`ServedDocument`] keeps the previous sealed
//! text together with where each pair's row ends, so the next
//! generation formats only the batch's rows and copies the unchanged
//! runs between them. Every byte is still written by
//! [`ting::shard::write_document_header`] and
//! [`ting::shard::write_matrix_row`], so the result is exactly what
//! [`ting::shard::MergeOutcome::to_document`] renders for the same
//! state.

use crate::snapshot::Snapshot;
use ting::checkpoint;
use ting::shard::{write_document_header, write_matrix_row, ShardCoverage};

/// A sealed merged document plus the row index splicing needs.
#[derive(Debug, Clone)]
pub(crate) struct ServedDocument {
    text: String,
    /// Byte offset of the first matrix row in `text`.
    rows_start: usize,
    /// `row_end[p]` is where pair `p`'s row ends, relative to
    /// `rows_start`; pairs are numbered in `(i, j)` index order, and
    /// an unmeasured pair's empty row ends where its predecessor's
    /// does.
    row_end: Vec<usize>,
}

impl ServedDocument {
    /// Renders every measured pair of `snap` from scratch.
    pub fn render(snap: &Snapshot, now_ns: u64, shards: &[ShardCoverage]) -> ServedDocument {
        let n = snap.view().len() as u32;
        let all = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        let empty = ServedDocument {
            text: String::new(),
            rows_start: 0,
            row_end: vec![0; pair_count(n as usize)],
        };
        empty.splice(snap, now_ns, shards, all.enumerate())
    }

    /// The next generation's document: a fresh header and coverage
    /// rows, the rows of `changed` pairs (`(ordinal, (i, j))`, strictly
    /// ascending by ordinal) re-formatted from `snap`, and every other
    /// row copied from this document.
    pub fn splice(
        &self,
        snap: &Snapshot,
        now_ns: u64,
        shards: &[ShardCoverage],
        changed: impl IntoIterator<Item = (usize, (u32, u32))>,
    ) -> ServedDocument {
        let mut text = String::with_capacity(self.text.len() + 4096);
        write_document_header(&mut text, snap.view().nodes(), now_ns, shards);
        let rows_start = text.len();
        let mut row_end = Vec::with_capacity(self.row_end.len());
        // First old row not yet carried into the new text.
        let mut next = 0;
        for (p, (i, j)) in changed {
            self.copy_rows(&mut text, rows_start, &mut row_end, next..p);
            write_row(&mut text, snap, i, j);
            row_end.push(text.len() - rows_start);
            next = p + 1;
        }
        self.copy_rows(
            &mut text,
            rows_start,
            &mut row_end,
            next..self.row_end.len(),
        );
        ServedDocument {
            text: checkpoint::seal(text),
            rows_start,
            row_end,
        }
    }

    /// Appends this document's rows for the pairs `range` unchanged,
    /// re-basing their end offsets onto the new text.
    fn copy_rows(
        &self,
        text: &mut String,
        rows_start: usize,
        row_end: &mut Vec<usize>,
        range: std::ops::Range<usize>,
    ) {
        let offset = |q: usize| q.checked_sub(1).map_or(0, |q| self.row_end[q]);
        let (from, to) = (offset(range.start), offset(range.end));
        let base = text.len() - rows_start;
        let rows = self.rows_start;
        text.push_str(&self.text[rows + from..rows + to]);
        row_end.extend(self.row_end[range].iter().map(|&e| e - from + base));
    }

    /// The sealed document.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Off-diagonal pairs over `n` nodes.
pub(crate) fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Position of pair `(i, j)`, `i < j`, in `(i, j)` index order over
/// `n` nodes — its row's place in the document and its turn in
/// [`ting::shard::partition_pairs`]'s round-robin.
pub(crate) fn pair_ordinal(n: usize, i: u32, j: u32) -> usize {
    let (i, j) = (i as usize, j as usize);
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Formats pair `(i, j)`'s row when it is measured; an unmeasured
/// pair has no row.
fn write_row(out: &mut String, snap: &Snapshot, i: u32, j: u32) {
    let Some(rtt_ms) = snap.view().get_idx(i, j) else {
        return;
    };
    let t = snap
        .timestamp_idx(i, j)
        .expect("every measured pair carries its measurement instant");
    let view = snap.view();
    write_matrix_row(
        out,
        view.node(i),
        view.node(j),
        rtt_ms,
        t,
        snap.lineage_idx(i, j),
    );
}
