//! The one re-route routine: where a tuple that left the data plane goes
//! under the *current* distribution, and what happens to its
//! recovery-log entry. Serves surrendered operator state and recalled
//! held probes (a `Migrate` hand-over), retransmit strays (a
//! retransmitted window whose bucket moved since it closed) and the
//! producers' post-recall restage.
//!
//! Who calls it is the substrates' real difference: threaded consumers
//! share the router and re-route locally; socket workers have no router,
//! ship `STATE_OUT` / `STRAY` and the coordinator calls the same code.

use std::collections::{HashMap, HashSet};

use gridq_common::Tuple;
use gridq_engine::evaluator::StreamTag;

use super::{Exchange, Routed};

impl Exchange {
    /// Moves the log entry of tuple `(stream, seq)` from `from`'s slice
    /// of `source`'s log to `to`'s open window, so a later crash at the
    /// new owner still finds it replayable and the audit stays conserved.
    pub(super) fn move_log_entry(
        &self,
        source: usize,
        from: usize,
        to: usize,
        stream: StreamTag,
        seq: u64,
    ) {
        if let Some(log) = self.log(source) {
            let _ = log.migrate_matching(from as u32, to as u32, |(s, t)| {
                *s == stream && t.seq() == seq
            });
        }
    }

    /// The current owner of a tuple delivered to `at`; `at` itself when
    /// the router cannot place it.
    fn owner(&self, at: usize, stream: StreamTag, tuple: &Tuple) -> usize {
        self.router.lock().route(stream, tuple).unwrap_or(at as u32) as usize
    }

    /// Re-routes a fresh tuple from a retransmitted block delivered to
    /// `at`, under hash routing. Returns its current owner; when that is
    /// another partition the log entry has followed the tuple there.
    /// Forwarding consumer-side — behind the dedup filter, log entry
    /// riding along — is the sound direction: re-routing at the producer
    /// would let an ack-loss redelivery reach a partition that never saw
    /// the original and duplicate its output.
    pub(crate) fn reroute_stray(
        &self,
        at: usize,
        stream: StreamTag,
        source: usize,
        tuple: &Tuple,
    ) -> usize {
        let owner = self.owner(at, stream, tuple);
        if owner != at {
            self.move_log_entry(source, at, owner, stream, tuple.seq());
        }
        owner
    }

    /// Re-routes what partition `from` surrendered to a recall — the
    /// operator state of its outgoing buckets and its held probes —
    /// under the already swapped router, calling `deliver(owner, entry)`
    /// for each (the owner may be `from` itself: a probe whose bucket
    /// stayed, or defensively a state tuple). Returns
    /// `(state_moved, recalled)`.
    ///
    /// Log bookkeeping: in resilient runs an entry follows its tuple to
    /// the new owner's open window; otherwise moved entries leave the log
    /// for good (the migration traffic now carries them and the barrier
    /// guarantees exactly-once) — build entries up front, probes once
    /// the batch is routed.
    pub(crate) fn reroute(
        &self,
        from: usize,
        entries: Vec<Routed>,
        mut deliver: impl FnMut(usize, Routed),
    ) -> (u64, u64) {
        if !self.resilient {
            if let Some(log) = self.build_source.and_then(|b| self.log(b)) {
                let moved: HashSet<u64> = entries
                    .iter()
                    .filter(|(s, _, _)| *s == StreamTag::Build)
                    .map(|(_, _, t)| t.seq())
                    .collect();
                if !moved.is_empty() {
                    let _ = log.retire_matching(from as u32, |(s, t)| {
                        *s == StreamTag::Build && moved.contains(&t.seq())
                    });
                }
            }
        }
        let mut retire: HashMap<usize, HashSet<u64>> = HashMap::new();
        let (mut state_moved, mut recalled) = (0u64, 0u64);
        for (stream, source, tuple) in entries {
            let owner = self.owner(from, stream, &tuple);
            let probe = stream == StreamTag::Probe;
            if !probe {
                state_moved += 1;
            }
            if owner != from {
                if probe {
                    recalled += 1;
                }
                if self.resilient {
                    self.move_log_entry(source, from, owner, stream, tuple.seq());
                } else if probe {
                    retire.entry(source).or_default().insert(tuple.seq());
                }
            }
            deliver(owner, (stream, source, tuple));
        }
        for (source, seqs) in retire {
            if let Some(log) = self.log(source) {
                let _ = log.retire_matching(from as u32, |(s, t)| {
                    *s == StreamTag::Probe && seqs.contains(&t.seq())
                });
            }
        }
        (state_moved, recalled)
    }
}
