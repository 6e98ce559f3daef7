//! The one re-route routine: where a tuple that left the data plane goes
//! under the *current* distribution, and what happens to its
//! recovery-log entry. Serves surrendered operator state and recalled
//! held and queued tuples (a `Migrate` hand-over) and the producers'
//! post-recall restage.
//!
//! A hand-over is re-routed in one place on both substrates — every
//! worker surrenders to the coordinator, the only caller of
//! [`Exchange::reroute`].
//!
//! A hand-over costs what it moves: re-delivery leaves in blocks of the
//! exchange's `buffer_tuples` ([`Regroup`]), and the log bookkeeping of a
//! whole hand-over is settled in one pass per (source, old owner → new
//! owner) group ([`LogMoves`]), never one pass per tuple.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gridq_engine::evaluator::StreamTag;
use gridq_recovery::LogMoves;

use super::{Exchange, Routed, Tallies};

/// Packs re-delivered entries into blocks of at most `block` per key
/// (the new owner), in arrival order — so surrendered state stays ahead
/// of the probes that need it — and counts every block it hands out in
/// the run's tallies.
pub(crate) struct Regroup {
    block: usize,
    tallies: Arc<Tallies>,
    pending: Vec<Vec<Routed>>,
}

impl Regroup {
    pub(crate) fn new(x: &Exchange, keys: usize) -> Self {
        Regroup {
            block: x.block_tuples,
            tallies: Arc::clone(&x.tallies),
            pending: (0..keys).map(|_| Vec::new()).collect(),
        }
    }

    /// Adds `entry` under `key`; returns the block it filled, if any.
    pub(crate) fn push(&mut self, key: usize, entry: Routed) -> Option<Vec<Routed>> {
        let pending = &mut self.pending[key];
        pending.push(entry);
        if pending.len() < self.block {
            return None;
        }
        self.tallies.recall_blocks.fetch_add(1, Ordering::Relaxed);
        Some(std::mem::replace(pending, Vec::with_capacity(self.block)))
    }

    /// The partial blocks left over, in key order.
    pub(crate) fn finish(&mut self) -> Vec<(usize, Vec<Routed>)> {
        let mut rest = Vec::new();
        for (key, pending) in self.pending.iter_mut().enumerate() {
            if !pending.is_empty() {
                self.tallies.recall_blocks.fetch_add(1, Ordering::Relaxed);
                rest.push((key, std::mem::take(pending)));
            }
        }
        rest
    }
}

impl Exchange {
    /// Re-routes what partition `from` surrendered to a recall — the
    /// operator state and the held and queued tuples of its outgoing
    /// buckets — under the already swapped router, calling
    /// `deliver(owner, entry)` for each. The owner may be `from` itself:
    /// a tuple surrendered under weighted routing, or state a later
    /// recall routed back before this hand-over arrived. Returns
    /// `(state_moved, recalled)`: build entries, and the other entries
    /// that changed owner.
    ///
    /// The log bookkeeping is noted in `moves` for [`Exchange::settle`]:
    /// in resilient runs an entry follows its tuple to the new owner's
    /// open window; otherwise surrendered build entries and moved tuples
    /// leave the log for good (the migration traffic now carries them and
    /// the barrier guarantees exactly-once).
    pub(crate) fn reroute(
        &self,
        from: usize,
        entries: Vec<Routed>,
        moves: &mut LogMoves,
        mut deliver: impl FnMut(usize, Routed),
    ) -> (u64, u64) {
        let (mut state_moved, mut recalled) = (0u64, 0u64);
        for (stream, source, tuple) in entries {
            let owner = self
                .router
                .lock()
                .route(stream, &tuple)
                .unwrap_or(from as u32) as usize;
            let build = stream == StreamTag::Build;
            state_moved += u64::from(build);
            recalled += u64::from(!build && owner != from);
            if self.resilient {
                if owner != from {
                    moves.note(source, from, Some(owner), tuple.seq());
                }
            } else if build || owner != from {
                moves.note(source, from, None, tuple.seq());
            }
            deliver(owner, (stream, source, tuple));
        }
        (state_moved, recalled)
    }

    /// Applies the noted log bookkeeping ([`LogMoves::settle`]). Must run
    /// before the recall resumes the producers.
    pub(crate) fn settle(&self, moves: LogMoves) {
        if let Some(logs) = &self.logs {
            moves.settle(logs);
        }
    }
}
