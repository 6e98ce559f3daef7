//! Bounded consumer-side deduplication for the at-least-once data plane.
//!
//! Resilient runs (chaos installed, or failover enabled) deliver tuple
//! blocks at-least-once: chaos duplicates blocks outright, and a recall
//! or a failover re-delivers tuples a consumer may have seen. Consumers
//! must therefore process effectively-once, which previously
//! meant two `HashSet`s — per-tuple `(source, seq)` keys and whole-block
//! range keys — that grew *per delivered tuple for the lifetime of the
//! run*. Under sustained duplication chaos that is an O(input) memory
//! leak dressed up as a filter.
//!
//! [`DedupFilter`] keeps the same two-granularity filter but bounds it by
//! the same thing that bounds the producers: the recovery-log window.
//! Every tuple and block key is associated with the checkpoint window
//! that will cover it (the next marker from its source observed at this
//! consumer). When that window's acknowledgement is accepted by the log,
//! the entries are evicted. The only duplicates that can outlive eviction
//! are stragglers of a block that carried the window's own marker (chaos
//! duplication is adjacent on a FIFO ring, and a window always travels
//! with its marker), and those are rejected by the acked-window skip
//! mask: a marker id that was already acknowledged marks every tuple
//! ahead of it in the block as covered.
//!
//! Live size is O(unacked windows × window size), not O(tuples ever
//! delivered); the acked-id mask per source is a contiguous floor plus
//! any out-of-order ids above it, which collapses to two integers in the
//! common in-order case.

use std::collections::{BTreeSet, HashMap, HashSet};

/// A whole-block dedup key: `(first_seq, last_seq, count)` over the
/// block's tuples.
pub(crate) type BlockKey = (u64, u64, u64);

/// Entries awaiting their covering window's acknowledgement.
#[derive(Debug, Default)]
struct PendingEntries {
    seqs: Vec<u64>,
    blocks: Vec<BlockKey>,
}

/// Acknowledged checkpoint ids for one source at this consumer: every id
/// strictly below `floor` plus the sparse out-of-order ids in `above`.
/// Marker ids are per-destination monotonic from zero (matching the
/// recovery log's own `acked_floor`), so `above` drains into `floor` as
/// gaps close and the set stays near-empty on healthy runs.
#[derive(Debug, Default)]
struct AckedIds {
    floor: u64,
    above: BTreeSet<u64>,
}

impl AckedIds {
    fn contains(&self, id: u64) -> bool {
        id < self.floor || self.above.contains(&id)
    }

    fn insert(&mut self, id: u64) {
        if id < self.floor {
            return;
        }
        self.above.insert(id);
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
    }
}

/// The bounded effectively-once filter shared by the threaded consumer
/// and the socket worker.
#[derive(Debug, Default)]
pub(crate) struct DedupFilter {
    /// Per-tuple `(source, seq)` keys of live (unacked-window) entries.
    seen: HashSet<(usize, u64)>,
    /// Whole-block `(source, first, last, count)` keys of live entries.
    seen_blocks: HashSet<(usize, BlockKey)>,
    /// Entries delivered since the last marker from each source; they
    /// roll into `windows` when that marker arrives.
    open: HashMap<usize, PendingEntries>,
    /// Entries covered by a specific not-yet-acknowledged window.
    windows: HashMap<(usize, u64), PendingEntries>,
    /// The skip mask: window ids whose acknowledgement was accepted.
    acked: HashMap<usize, AckedIds>,
    /// High-water mark of `seen.len() + seen_blocks.len()`.
    peak: usize,
}

impl DedupFilter {
    pub(crate) fn new() -> Self {
        DedupFilter::default()
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.seen.len() + self.seen_blocks.len());
    }

    /// Registers a block's range key. Returns `true` when an identical
    /// block from this source was already delivered (and its window is
    /// still live): closed windows only shrink (entries move out to other
    /// destinations, never in), so an equal `(first, last, count)` means
    /// an equal tuple set.
    pub(crate) fn block_is_dup(&mut self, source: usize, key: BlockKey) -> bool {
        if !self.seen_blocks.insert((source, key)) {
            return true;
        }
        self.open.entry(source).or_default().blocks.push(key);
        self.note_peak();
        false
    }

    /// Registers a tuple. Returns `true` when `(source, seq)` was already
    /// delivered into a still-live window.
    pub(crate) fn tuple_is_dup(&mut self, source: usize, seq: u64) -> bool {
        if !self.seen.insert((source, seq)) {
            return true;
        }
        self.open.entry(source).or_default().seqs.push(seq);
        self.note_peak();
        false
    }

    /// Records a recall/failover re-delivery (`Migrated` traffic), which
    /// is always processed — the barrier carries exactly-once for that
    /// path — but must still shadow a later duplicate of the same
    /// sequence number.
    pub(crate) fn note_delivered(&mut self, source: usize, seq: u64) {
        if self.seen.insert((source, seq)) {
            self.open.entry(source).or_default().seqs.push(seq);
            self.note_peak();
        }
    }

    /// A marker for window `(source, id)` arrived: everything delivered
    /// from that source since the previous marker is covered by it.
    /// Rolls the open entries into the window (evicting immediately when
    /// the window was already acknowledged — a late duplicate).
    pub(crate) fn close_window(&mut self, source: usize, id: u64) {
        let entries = self.open.remove(&source).unwrap_or_default();
        if self.is_acked(source, id) {
            self.evict_entries(source, entries);
            return;
        }
        let slot = self.windows.entry((source, id)).or_default();
        slot.seqs.extend(entries.seqs);
        slot.blocks.extend(entries.blocks);
    }

    /// True when window `(source, id)` has already been acknowledged at
    /// this consumer — the skip mask consulted before processing tuples
    /// that ride ahead of a marker in a late duplicate block.
    pub(crate) fn is_acked(&self, source: usize, id: u64) -> bool {
        self.acked.get(&source).is_some_and(|a| a.contains(id))
    }

    /// The log accepted window `(source, id)`'s acknowledgement: no fresh
    /// copy of it can arrive anymore, so its entries leave the live sets
    /// and the id joins the skip mask.
    pub(crate) fn window_acked(&mut self, source: usize, id: u64) {
        self.acked.entry(source).or_default().insert(id);
        if let Some(entries) = self.windows.remove(&(source, id)) {
            self.evict_entries(source, entries);
        }
    }

    fn evict_entries(&mut self, source: usize, entries: PendingEntries) {
        for seq in entries.seqs {
            self.seen.remove(&(source, seq));
        }
        for key in entries.blocks {
            self.seen_blocks.remove(&(source, key));
        }
    }

    /// Live filter entries right now (tuple keys plus block keys).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.seen.len() + self.seen_blocks.len()
    }

    /// High-water mark of live filter entries over the filter's lifetime.
    pub(crate) fn peak(&self) -> u64 {
        self.peak as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_caught_while_the_window_is_live() {
        let mut d = DedupFilter::new();
        assert!(!d.tuple_is_dup(0, 1));
        assert!(!d.tuple_is_dup(0, 2));
        assert!(d.tuple_is_dup(0, 1), "redelivery before ack is a dup");
        assert!(!d.block_is_dup(0, (1, 2, 2)));
        assert!(d.block_is_dup(0, (1, 2, 2)));
        assert!(!d.tuple_is_dup(1, 1), "sources are independent");
    }

    #[test]
    fn acked_windows_evict_their_entries_and_mask_stragglers() {
        let mut d = DedupFilter::new();
        for seq in 1..=8 {
            assert!(!d.tuple_is_dup(0, seq));
        }
        assert!(!d.block_is_dup(0, (1, 8, 8)));
        d.close_window(0, 1);
        assert_eq!(d.live(), 9);
        d.window_acked(0, 1);
        assert_eq!(d.live(), 0, "acked window evicts everything it covers");
        // The skip mask shadows the evicted entries: a late block carrying
        // marker 1 is recognised without per-tuple state.
        assert!(d.is_acked(0, 1));
        assert!(!d.is_acked(0, 2));
        assert!(!d.is_acked(1, 1));
    }

    #[test]
    fn late_marker_for_an_acked_window_evicts_immediately() {
        let mut d = DedupFilter::new();
        d.close_window(0, 1);
        d.window_acked(0, 1);
        // A duplicate copy of window 1 arrives after eviction: its
        // entries must not take up residence again once its (already
        // acked) marker closes it.
        assert!(!d.tuple_is_dup(0, 5));
        assert!(!d.block_is_dup(0, (5, 5, 1)));
        d.close_window(0, 1);
        assert_eq!(d.live(), 0);
    }

    #[test]
    fn out_of_order_acks_keep_the_mask_compact() {
        let mut d = DedupFilter::new();
        assert!(!d.is_acked(0, 0), "nothing is acked before any ack");
        for id in [3u64, 0, 2, 4, 1] {
            d.close_window(0, id);
            d.window_acked(0, id);
        }
        let mask = &d.acked[&0];
        assert_eq!(mask.floor, 5, "contiguous ids collapse into the floor");
        assert!(mask.above.is_empty());
        for id in 0..5 {
            assert!(d.is_acked(0, id));
        }
        assert!(!d.is_acked(0, 5));
    }

    #[test]
    fn live_size_tracks_unacked_windows_not_history() {
        let mut d = DedupFilter::new();
        let window = 8u64;
        for id in 0..100u64 {
            for seq in (id * window)..((id + 1) * window) {
                assert!(!d.tuple_is_dup(0, seq));
            }
            d.close_window(0, id);
            d.window_acked(0, id);
        }
        assert_eq!(d.live(), 0);
        assert!(
            d.peak() <= 2 * window,
            "peak {} must be O(window), not O(history)",
            d.peak()
        );
    }
}
