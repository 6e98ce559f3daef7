#![warn(missing_docs)]

//! Recovery logs with a checkpoint/acknowledgement protocol, and the
//! engine-free rules every driver of that protocol shares.
//!
//! This crate reproduces the state-management substrate that the paper
//! borrows from its companion fault-tolerance work (Smith & Watson,
//! *Fault-tolerance in distributed query processing*, Newcastle TR
//! CS-TR-893): exchange **producers** insert checkpoint markers into the
//! stream of tuples they send to each consumer and keep a copy of the
//! outgoing tuples in a local *recovery log*. When the tuples between two
//! checkpoints have finished processing downstream (and are no longer
//! needed by operators higher in the plan), the consumer returns an
//! acknowledgement and the producer prunes the covered window.
//!
//! **One log.** [`SharedRecoveryLog`] is the only log type. The simulator
//! owns its logs from a single event loop; the threaded and socket
//! executors share each producer's log with the consumers that
//! acknowledge into it and with the recall coordinator. Both call the
//! same methods, and one set of conservation counters ([`LogAudit`])
//! accounts for every entry.
//!
//! **Three ways out of a window.** An entry leaves the window it was
//! recorded in by exactly one of:
//!
//! - **ack** — [`SharedRecoveryLog::acknowledge`] confirms exactly the
//!   entries of one window, never earlier windows whose markers may
//!   still be in flight. A window whose ack has not come back stays in
//!   the log: [`SharedRecoveryLog::has_undelivered`] is what a producer
//!   waits on before it ends its stream, and
//!   [`SharedRecoveryLog::undelivered`] counts what it writes off as
//!   a [`DeliveryGap`] when the destination died with no failover.
//! - **retire** — [`SharedRecoveryLog::retire_matching`] and
//!   [`SharedRecoveryLog::drain_dest`] take entries out for good, because
//!   something other than the ack protocol re-delivers them (migrated
//!   operator state, a failover replay).
//! - **move** — [`SharedRecoveryLog::migrate_matching`] (a recall, a
//!   producer's restage) and [`SharedRecoveryLog::record_migrated`] (a
//!   failover replay) put an entry into its new owner's *open* window. A
//!   move never closes a window, so it never uses up a marker id: the
//!   producer's next real or forced checkpoint on that destination
//!   covers it, and that marker is actually sent.
//!
//! At any point the log therefore holds exactly the tuples that have *not*
//! finished being processed: all in-transit tuples plus the tuples that
//! make up downstream operator state. That is what makes **retrospective
//! (R1) repartitioning** possible — the Responder can extract the
//! unacknowledged tuples and re-send them under a new distribution policy.
//!
//! **Ordering invariant.** A destination's entries are held in
//! non-decreasing order of the checkpoint id that closes their window:
//! every append (a record or a move) stamps the id the *next* checkpoint
//! will take, which never decreases, and every removal preserves the
//! order of what it leaves behind. A window is therefore one contiguous
//! run, and acknowledging it costs two binary searches plus the entries it
//! removes — not a pass over everything still in flight.
//! [`SharedRecoveryLog::entries_visited`] counts that work, so tests
//! assert the proportionality on a count, never on a timer.
//!
//! Logs come in two modes. The default **prune** mode pops a window's
//! entries when it is acknowledged. **Retained** mode marks the window
//! delivered but keeps the entries: build streams of resilient runs use
//! it ([`SharedRecoveryLog::for_stream`]), because build tuples *are* the
//! downstream operator state and must stay replayable for node-failure
//! recovery even after their delivery is confirmed.
//!
//! Beside the log live the other rules both drivers apply the same way:
//! which log a stream keeps ([`SharedRecoveryLog::for_stream`]), the log
//! bookkeeping of a hand-over ([`LogMoves`]), the record of what a
//! producer wrote off ([`DeliveryGap`]) and result de-duplication
//! ([`ResultDedup`]).
//!
//! The log is generic over the logged item so it can be tested in
//! isolation; the execution substrates instantiate it with
//! `(StreamTag, Tuple)` pairs.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use gridq_common::sync::Mutex;
use gridq_common::{GridError, Result, Tuple};

pub use gridq_common::{DeliveryGap, LogAudit};

/// A checkpoint marker emitted into a destination's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checkpoint {
    /// The destination partition this checkpoint was sent to.
    pub dest: u32,
    /// Monotonically increasing checkpoint id within that destination.
    pub id: u64,
}

/// Outcome of an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The acknowledgement was applied. In prune mode this many entries
    /// were popped from the window; a retained log always reports 0.
    Accepted(usize),
    /// The acknowledgement carried a stale epoch (it was issued before a
    /// window-voiding drain of its destination, or under an epoch the log
    /// has not reached) and was dropped.
    Stale,
    /// The window was already acknowledged. Benign under an
    /// at-least-once transport: a duplicated block's marker is processed
    /// (and acknowledged) again by design.
    Duplicate,
    /// The acknowledgement was malformed (unemitted checkpoint, unknown
    /// destination) and was ignored.
    Ignored,
}

/// How a log treats an acknowledged window's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogMode {
    /// Acknowledged windows are popped from the log.
    Prune,
    /// Acknowledged windows are marked delivered but their entries stay
    /// replayable (build streams: the entries are downstream state).
    Retain,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// The id of the checkpoint that closes this entry's window. Entries
    /// recorded after the latest checkpoint carry the id the *next*
    /// checkpoint will take.
    cp: u64,
    item: T,
}

#[derive(Debug, Clone)]
struct DestLog<T> {
    /// In non-decreasing `cp` order (the crate's ordering invariant).
    entries: VecDeque<Entry<T>>,
    /// Id the next checkpoint will take; all ids below it are emitted.
    next_cp: u64,
    /// Entries appended since the last checkpoint.
    since_last: usize,
    /// Every checkpoint id below this is acknowledged.
    acked_floor: u64,
    /// Acks stamped with an earlier epoch are stale: this destination was
    /// drained since they were issued.
    voided_below: u64,
    /// Acknowledged ids at or above the floor (out-of-order acks whose
    /// predecessors are still outstanding). Compacted into the floor as
    /// soon as the sequence becomes contiguous, so it stays small.
    acked_above: BTreeSet<u64>,
}

impl<T> DestLog<T> {
    fn new() -> Self {
        DestLog {
            entries: VecDeque::new(),
            next_cp: 0,
            since_last: 0,
            acked_floor: 0,
            voided_below: 0,
            acked_above: BTreeSet::new(),
        }
    }

    /// Appends `item` to the open window.
    fn append(&mut self, item: T) {
        self.entries.push_back(Entry {
            cp: self.next_cp,
            item,
        });
        self.since_last += 1;
    }

    /// Closes the open window, returning its marker.
    fn close(&mut self, dest: u32) -> Checkpoint {
        let id = self.next_cp;
        self.next_cp += 1;
        self.since_last = 0;
        Checkpoint { dest, id }
    }

    fn is_acked(&self, id: u64) -> bool {
        id < self.acked_floor || self.acked_above.contains(&id)
    }

    fn mark_acked(&mut self, id: u64) {
        self.acked_above.insert(id);
        while self.acked_above.remove(&self.acked_floor) {
            self.acked_floor += 1;
        }
    }

    /// The ordering invariant, for `debug_assert!`.
    fn cp_ordered(&self) -> bool {
        let cps = self.entries.iter().map(|e| e.cp);
        cps.clone().zip(cps.skip(1)).all(|(a, b)| a <= b)
            && self.entries.back().is_none_or(|e| e.cp <= self.next_cp)
    }

    /// Removes window `id` as the contiguous run it is: two binary
    /// searches and one `drain` (a front pop for the oldest window; an
    /// out-of-order ack shifts the shorter side, contiguous memory and no
    /// per-entry work). Returns `(removed, entries examined)`.
    fn prune_window(&mut self, id: u64) -> (usize, u64) {
        debug_assert!(self.cp_ordered(), "log entries out of checkpoint order");
        let mut probes = 0u64;
        let lo = self.entries.partition_point(|e| {
            probes += 1;
            e.cp < id
        });
        let hi = self.entries.partition_point(|e| {
            probes += 1;
            e.cp <= id
        });
        self.entries.drain(lo..hi);
        (hi - lo, probes + (hi - lo) as u64)
    }

    /// Removes the entries matching `pred`, preserving order among both
    /// the taken and the kept. Returns `(taken, entries examined)`.
    fn take_matching(&mut self, mut pred: impl FnMut(&T) -> bool) -> (Vec<T>, u64) {
        let examined = self.entries.len() as u64;
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for entry in self.entries.drain(..) {
            if pred(&entry.item) {
                taken.push(entry.item);
            } else {
                kept.push_back(entry);
            }
        }
        self.entries = kept;
        (taken, examined)
    }
}

#[derive(Debug)]
struct Inner<T> {
    dests: Vec<DestLog<T>>,
    interval: usize,
    mode: LogMode,
    /// Bumped by every drain that voids windows.
    epoch: u64,
    /// The conservation counters; `unacked` is filled in on snapshot.
    audit: LogAudit,
    /// Entries examined by acknowledgements and matching drains.
    visited: u64,
}

impl<T> Inner<T> {
    fn dest_mut(&mut self, dest: u32) -> Result<&mut DestLog<T>> {
        self.dests
            .get_mut(dest as usize)
            .ok_or_else(|| GridError::Execution(format!("recovery log has no destination {dest}")))
    }

    fn take_matching(&mut self, dest: u32, pred: impl FnMut(&T) -> bool) -> Result<Vec<T>> {
        let (taken, examined) = self.dest_mut(dest)?.take_matching(pred);
        self.visited += examined;
        Ok(taken)
    }
}

/// Per-destination recovery logs for one exchange producer.
///
/// Interior mutability behind a poison-recovering mutex lets real
/// threads share one log; the simulator's single event loop pays an
/// uncontended lock. An **epoch** guards acknowledgements: checkpoints
/// are stamped with the epoch under which their window was opened, and
/// an ack whose epoch predates a window-voiding drain of its own
/// destination ([`SharedRecoveryLog::drain_dest`]) is dropped instead of
/// pruning entries it no longer covers. Another destination's windows
/// are untouched by that drain, so their acks stay good: nothing would
/// ever acknowledge those windows again. A recall *preserves* windows,
/// so it does not bump the epoch.
#[derive(Debug)]
pub struct SharedRecoveryLog<T> {
    inner: Mutex<Inner<T>>,
}

impl<T> SharedRecoveryLog<T> {
    /// Creates pruning logs for `dest_count` destinations with a
    /// checkpoint every `interval` recorded items per destination.
    /// `interval` must be positive.
    pub fn new(dest_count: usize, interval: usize) -> Result<Self> {
        Self::with_mode(dest_count, interval, LogMode::Prune)
    }

    /// The log a producer keeps for one stream over `dest_count`
    /// destinations — the one choice every driver makes.
    ///
    /// - A build stream in a `resilient` run (one that waits for every
    ///   ack and fails over) is checkpointed into a *retained* log: an ack marks
    ///   its window delivered (see
    ///   [`SharedRecoveryLog::undelivered`]) but removes nothing,
    ///   so the entries stay replayable for failure recovery.
    /// - Otherwise a build stream's windows never close (an unreachable
    ///   interval): its entries are downstream operator state and stay
    ///   recallable all run.
    /// - Every other stream prunes on ack.
    ///
    /// A resilient run clamps the interval to the exchange's
    /// `buffer_tuples`, so a whole window fits one block and a duplicated
    /// block repeats tuples and marker together: marker delivery implies
    /// content delivery.
    pub fn for_stream(
        dest_count: usize,
        build: bool,
        resilient: bool,
        interval: usize,
        buffer_tuples: usize,
    ) -> Result<Self> {
        let interval = if resilient {
            interval.min(buffer_tuples.max(1))
        } else {
            interval
        };
        match (build, resilient) {
            (true, true) => Self::with_mode(dest_count, interval, LogMode::Retain),
            (true, false) => Self::new(dest_count, usize::MAX / 2),
            (false, _) => Self::new(dest_count, interval),
        }
    }

    fn with_mode(dest_count: usize, interval: usize, mode: LogMode) -> Result<Self> {
        if interval == 0 {
            return Err(GridError::Config(
                "checkpoint interval must be positive".into(),
            ));
        }
        Ok(SharedRecoveryLog {
            inner: Mutex::new(Inner {
                dests: (0..dest_count).map(|_| DestLog::new()).collect(),
                interval,
                mode,
                epoch: 0,
                audit: LogAudit::default(),
                visited: 0,
            }),
        })
    }

    /// The current epoch; checkpoints emitted now should carry it.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Records an outgoing item for `dest`. Returns a checkpoint marker to
    /// insert into the stream when this record completes a window of
    /// `interval` items.
    pub fn record(&self, dest: u32, item: T) -> Result<Option<Checkpoint>> {
        let mut inner = self.inner.lock();
        let interval = inner.interval;
        let log = inner.dest_mut(dest)?;
        log.append(item);
        let cp = (log.since_last >= interval).then(|| log.close(dest));
        inner.audit.recorded += 1;
        Ok(cp)
    }

    /// Re-records an entry a drain took out ([`SharedRecoveryLog::drain_dest`])
    /// under its new owner `dest`: a move, so it joins `dest`'s open
    /// window and never closes it. It counts toward the window's fill
    /// (so a following record or force closes it) and as recorded again,
    /// since the drain retired the old incarnation.
    pub fn record_migrated(&self, dest: u32, item: T) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.dest_mut(dest)?.append(item);
        inner.audit.recorded += 1;
        Ok(())
    }

    /// Forces a checkpoint covering any items appended since the last
    /// one; used when a stream ends mid-window. Returns `None` if the
    /// window is empty.
    pub fn force_checkpoint(&self, dest: u32) -> Result<Option<Checkpoint>> {
        let mut inner = self.inner.lock();
        let log = inner.dest_mut(dest)?;
        Ok((log.since_last > 0).then(|| log.close(dest)))
    }

    /// Acknowledges checkpoint `id` on `dest`, stamped with `epoch`. The
    /// ack covers exactly the entries of window `id`. In prune mode they
    /// are popped; a retained log only advances the delivery watermark.
    /// Stale epochs, repeated acks (expected under an at-least-once
    /// transport) and malformed acks are absorbed and counted, not
    /// errors: an ack can always cross a redistribution or a failover in
    /// flight.
    pub fn acknowledge(&self, dest: u32, id: u64, epoch: u64) -> AckOutcome {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let outcome = match inner.dests.get_mut(dest as usize) {
            _ if epoch > inner.epoch => AckOutcome::Stale,
            Some(log) if epoch < log.voided_below => AckOutcome::Stale,
            Some(log) if id < log.next_cp => {
                if log.is_acked(id) {
                    AckOutcome::Duplicate
                } else {
                    log.mark_acked(id);
                    AckOutcome::Accepted(match inner.mode {
                        LogMode::Retain => 0,
                        LogMode::Prune => {
                            let (pruned, examined) = log.prune_window(id);
                            inner.visited += examined;
                            pruned
                        }
                    })
                }
            }
            _ => AckOutcome::Ignored,
        };
        let audit = &mut inner.audit;
        match outcome {
            AckOutcome::Accepted(pruned) => {
                audit.pruned += pruned as u64;
                audit.acks_accepted += 1;
            }
            AckOutcome::Duplicate => audit.acks_duplicate += 1,
            AckOutcome::Stale | AckOutcome::Ignored => audit.acks_dropped += 1,
        }
        outcome
    }

    /// Moves the entries on `from` matching `pred` into `to`'s open
    /// window (a recall's migration, a producer's restage). Checkpoint
    /// windows on `from` stay valid for the entries left behind, and the
    /// move never consumes a marker id. Neutral for the audit: the
    /// entries are still logged. Returns how many entries moved.
    pub fn migrate_matching(
        &self,
        from: u32,
        to: u32,
        pred: impl FnMut(&T) -> bool,
    ) -> Result<usize> {
        let mut inner = self.inner.lock();
        inner.dest_mut(to)?;
        let moved = inner.take_matching(from, pred)?;
        let (n, to) = (moved.len(), inner.dest_mut(to)?);
        for item in moved {
            to.append(item);
        }
        Ok(n)
    }

    /// Retires the entries on `dest` matching `pred`: they leave the log
    /// for good because the recall protocol re-delivered them directly
    /// (migrated operator state, re-routed held tuples). The migration
    /// traffic carries the exactly-once guarantee, so for the audit they
    /// count as accounted-for, like a pruned entry. Returns how many
    /// entries were retired.
    pub fn retire_matching(&self, dest: u32, pred: impl FnMut(&T) -> bool) -> Result<usize> {
        let mut inner = self.inner.lock();
        let n = inner.take_matching(dest, pred)?.len();
        inner.audit.retired += n as u64;
        Ok(n)
    }

    /// Drains every logged entry for `dest` — the node-failure recovery
    /// path; in a retained log this includes delivered entries. The open
    /// window restarts empty. When anything was drained the dest's
    /// windows are void, so the epoch is bumped: acks to `dest` in flight
    /// from before the failure can no longer touch the log. An empty
    /// drain bumps nothing — there were no windows to void. Returns the entries, oldest first, for
    /// [`SharedRecoveryLog::record_migrated`] under their new owners.
    pub fn drain_dest(&self, dest: u32) -> Result<Vec<T>> {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch + 1;
        let log = inner.dest_mut(dest)?;
        log.since_last = 0;
        let drained: Vec<T> = log.entries.drain(..).map(|e| e.item).collect();
        if !drained.is_empty() {
            log.voided_below = epoch;
            inner.audit.retired += drained.len() as u64;
            inner.epoch = epoch;
        }
        Ok(drained)
    }

    /// What `dest` still owes acknowledgements for: the number of closed,
    /// unacknowledged windows that still hold entries, and the entries
    /// they hold. Windows whose entries have all been drained or moved
    /// elsewhere do not count (there is nothing left here to lose), nor
    /// does the open window — its marker has not been sent yet, so
    /// nothing can acknowledge it. A resilient producer waits while the
    /// count is non-zero, and writes it off as a [`DeliveryGap`] when
    /// `dest` died with no failover.
    pub fn undelivered(&self, dest: u32) -> (u64, u64) {
        let inner = self.inner.lock();
        let Some(log) = inner.dests.get(dest as usize) else {
            return (0, 0);
        };
        let (mut windows, mut tuples, mut last) = (0, 0, None);
        // Entries are in non-decreasing `cp` order, so a window's entries
        // are contiguous.
        for entry in &log.entries {
            if entry.cp < log.next_cp && !log.is_acked(entry.cp) {
                tuples += 1;
                if last != Some(entry.cp) {
                    windows += 1;
                    last = Some(entry.cp);
                }
            }
        }
        (windows, tuples)
    }

    /// True when [`SharedRecoveryLog::undelivered`] counts a window: what
    /// a resilient producer waits out before it ends its stream.
    pub fn has_undelivered(&self, dest: u32) -> bool {
        self.undelivered(dest).0 > 0
    }

    /// Number of items still logged for `dest` (in a retained log this
    /// includes delivered entries, which stay replayable by design).
    pub fn unacked_len(&self, dest: u32) -> usize {
        let inner = self.inner.lock();
        inner
            .dests
            .get(dest as usize)
            .map_or(0, |l| l.entries.len())
    }

    /// Total logged items across all destinations.
    pub fn total_unacked(&self) -> usize {
        let inner = self.inner.lock();
        inner.dests.iter().map(|l| l.entries.len()).sum()
    }

    /// How many logged entries acknowledgements and matching drains have
    /// examined so far: a work counter (comparisons plus removals for an
    /// acknowledgement, one per logged entry for a matching drain), so a
    /// test can show a step costs what it touches without reading a
    /// clock.
    pub fn entries_visited(&self) -> u64 {
        self.inner.lock().visited
    }

    /// Snapshot of the conservation counters.
    pub fn audit(&self) -> LogAudit {
        let inner = self.inner.lock();
        let unacked = inner.dests.iter().map(|l| l.entries.len() as u64).sum();
        LogAudit {
            unacked,
            ..inner.audit
        }
    }
}

/// The recovery-log bookkeeping a hand-over owes — a recall's moved
/// state and tuples, a producer's restage — grouped
/// so that [`LogMoves::settle`] visits each source's log once per
/// (source, old owner → new owner) group however many entries moved. A
/// source logs exactly one stream, so a tuple's sequence number
/// identifies its entry.
#[derive(Debug, Default)]
pub struct LogMoves {
    /// `(source, from, to)` → seqs; `to == None` retires the entries.
    groups: BTreeMap<(usize, usize, Option<usize>), HashSet<u64>>,
}

impl LogMoves {
    /// Notes that `source`'s entry for tuple `seq` leaves `from`: for
    /// `to`'s open window, or for good when `to` is `None`.
    pub fn note(&mut self, source: usize, from: usize, to: Option<usize>, seq: u64) {
        let group = self.groups.entry((source, from, to)).or_default();
        // lint: bounded-by one hand-over's entries; `LogMoves::settle` consumes it whole
        group.insert(seq);
    }

    /// Applies the noted bookkeeping to `logs`, indexed by source: one
    /// pass over a source's slice per group. A driver settles before it
    /// resumes the producers, so a moved entry joins the window their
    /// next marker closes.
    pub fn settle<S>(self, logs: &[SharedRecoveryLog<(S, Tuple)>]) {
        for ((source, from, to), seqs) in self.groups {
            let Some(log) = logs.get(source) else {
                continue;
            };
            let hit = |(_, t): &(S, Tuple)| seqs.contains(&t.seq());
            let _ = match to {
                Some(to) => log.migrate_matching(from as u32, to as u32, hit),
                None => log.retire_matching(from as u32, hit),
            };
        }
    }
}

/// The one result de-duplication rule. At-least-once transport can
/// deliver a result twice across a crash or recall seam (a worker
/// flushed results and died before acking, and its successor processed
/// the failover replay). Two results are the same result
/// exactly when their sequence numbers and every value match, so
/// distinct results are never merged.
#[derive(Debug, Default)]
pub struct ResultDedup {
    seen: HashSet<(u64, String)>,
}

impl ResultDedup {
    /// True the first time `result` is seen.
    pub fn first(&mut self, result: &Tuple) -> bool {
        let key = (result.seq(), format!("{:?}", result.values()));
        // lint: bounded-by one key per distinct result, which the collector keeps anyway
        self.seen.insert(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn log(dests: usize, interval: usize) -> SharedRecoveryLog<u64> {
        SharedRecoveryLog::new(dests, interval).unwrap()
    }

    /// Acknowledges under the log's current epoch.
    fn ack(l: &SharedRecoveryLog<u64>, dest: u32, id: u64) -> AckOutcome {
        l.acknowledge(dest, id, l.epoch())
    }

    fn accepted(outcome: AckOutcome) -> usize {
        match outcome {
            AckOutcome::Accepted(pruned) => pruned,
            other => panic!("expected an accepted ack, got {other:?}"),
        }
    }

    /// The items logged for `dest`, oldest first.
    fn items(l: &SharedRecoveryLog<u64>, dest: u32) -> Vec<u64> {
        let inner = l.inner.lock();
        inner.dests[dest as usize]
            .entries
            .iter()
            .map(|e| e.item)
            .collect()
    }

    #[test]
    fn zero_interval_rejected() {
        assert!(SharedRecoveryLog::<u64>::new(2, 0).is_err());
    }

    #[test]
    fn checkpoint_every_interval() {
        let l = log(1, 3);
        assert_eq!(l.record(0, 10).unwrap(), None);
        assert_eq!(l.record(0, 11).unwrap(), None);
        assert_eq!(
            l.record(0, 12).unwrap(),
            Some(Checkpoint { dest: 0, id: 0 })
        );
        assert_eq!(l.record(0, 13).unwrap(), None);
        assert_eq!(l.unacked_len(0), 4);
    }

    #[test]
    fn checkpoints_are_per_destination() {
        let l = log(2, 2);
        assert_eq!(l.record(0, 1).unwrap(), None);
        assert_eq!(l.record(1, 2).unwrap(), None);
        assert_eq!(l.record(1, 3).unwrap(), Some(Checkpoint { dest: 1, id: 0 }));
        assert_eq!(l.record(0, 4).unwrap(), Some(Checkpoint { dest: 0, id: 0 }));
    }

    #[test]
    fn acknowledge_prunes_exactly_its_window() {
        let l = log(1, 2);
        for i in 0..6 {
            l.record(0, i).unwrap();
        }
        // Checkpoints 0 (items 0,1), 1 (items 2,3), 2 (items 4,5).
        assert_eq!(l.unacked_len(0), 6);
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        assert_eq!(l.unacked_len(0), 4);
        // Acks are per window: acking cp 2 must NOT prune cp 1's window —
        // cp 1's marker (and possibly its tuples) may be lost in flight,
        // and pruning here would make that loss unrecoverable.
        assert_eq!(accepted(ack(&l, 0, 2)), 2);
        assert_eq!(l.unacked_len(0), 2);
        assert_eq!(accepted(ack(&l, 0, 1)), 2);
        assert_eq!(l.unacked_len(0), 0);
    }

    #[test]
    fn acknowledge_unemitted_is_ignored_duplicate_is_benign() {
        let l = log(1, 2);
        l.record(0, 1).unwrap();
        assert_eq!(ack(&l, 0, 0), AckOutcome::Ignored); // not yet emitted
        l.record(0, 2).unwrap(); // emits cp 0
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        // A duplicated marker produces a repeat ack: absorbed.
        assert_eq!(ack(&l, 0, 0), AckOutcome::Duplicate);
    }

    #[test]
    fn force_checkpoint_closes_open_window() {
        let l = log(1, 10);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        let cp = l.force_checkpoint(0).unwrap().unwrap();
        assert_eq!(cp.id, 0);
        assert_eq!(l.force_checkpoint(0).unwrap(), None); // window empty
        assert_eq!(accepted(ack(&l, 0, cp.id)), 2);
    }

    #[test]
    fn drain_dest_returns_in_order_and_clears() {
        let l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap();
        }
        ack(&l, 0, 0); // prune items 0,1
        let drained = l.drain_dest(0).unwrap();
        assert_eq!(drained, vec![2, 3, 4]);
        assert_eq!(l.unacked_len(0), 0);
        // After a drain the open window restarts cleanly.
        assert_eq!(l.record(0, 9).unwrap(), None);
        assert_eq!(l.record(0, 10).unwrap().unwrap().id, 2);
    }

    #[test]
    fn migrate_matching_splits_correctly() {
        let l = log(2, 100);
        for i in 0..10 {
            l.record(0, i).unwrap();
        }
        assert_eq!(l.migrate_matching(0, 1, |x| x % 2 == 0).unwrap(), 5);
        assert_eq!(items(&l, 1), vec![0, 2, 4, 6, 8]);
        assert_eq!(items(&l, 0), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn retire_matching_keeps_ack_semantics_for_rest() {
        let l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        // cp0 covers {0,1}, cp1 covers {2,3}.
        assert_eq!(l.retire_matching(0, |x| *x == 1).unwrap(), 1);
        // Acking cp0 prunes the remaining item 0 only.
        assert_eq!(accepted(ack(&l, 0, 0)), 1);
        assert_eq!(l.unacked_len(0), 2);
    }

    #[test]
    fn unknown_destination_errors() {
        let l = log(1, 2);
        assert!(l.record(5, 1).is_err());
        assert_eq!(ack(&l, 5, 0), AckOutcome::Ignored);
        assert!(l.drain_dest(5).is_err());
        assert!(l.migrate_matching(0, 5, |_| true).is_err());
        assert_eq!(l.unacked_len(5), 0);
    }

    #[test]
    fn total_unacked_sums_destinations() {
        let l = log(3, 10);
        l.record(0, 1).unwrap();
        l.record(1, 2).unwrap();
        l.record(1, 3).unwrap();
        assert_eq!(l.total_unacked(), 3);
    }

    #[test]
    fn duplicate_ack_is_benign_without_losing_items() {
        let l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        assert_eq!(ack(&l, 0, 0), AckOutcome::Duplicate);
        // The duplicate ack must not have pruned anything.
        assert_eq!(l.unacked_len(0), 2);
        assert_eq!(accepted(ack(&l, 0, 1)), 2);
    }

    #[test]
    fn out_of_order_ack_leaves_skipped_windows_recoverable() {
        let l = log(1, 2);
        for i in 0..6 {
            l.record(0, i).unwrap();
        }
        // Checkpoints 0, 1, 2 are all emitted; cp 2's ack arrives first
        // (acks 0 and 1 still in transit). Only window 2 is pruned — the
        // earlier windows stay replayable until their own acks come
        // back.
        assert_eq!(accepted(ack(&l, 0, 2)), 2);
        assert_eq!(l.unacked_len(0), 4);
        assert_eq!(l.undelivered(0), (2, 4), "windows 0 and 1");
        // The late ack for window 1 applies normally.
        assert_eq!(accepted(ack(&l, 0, 1)), 2);
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        assert!(!l.has_undelivered(0));
    }

    #[test]
    fn ack_of_unemitted_checkpoint_is_rejected() {
        let l = log(1, 5);
        l.record(0, 1).unwrap();
        // No checkpoint has been emitted yet (window not full).
        assert_eq!(ack(&l, 0, 0), AckOutcome::Ignored);
        assert_eq!(l.unacked_len(0), 1);
        assert_eq!(l.audit().acks_dropped, 1);
    }

    #[test]
    fn drain_resets_open_window() {
        let l = log(1, 3);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        assert_eq!(l.drain_dest(0).unwrap(), vec![1, 2]);
        // The open window was voided: the next checkpoint needs a full
        // interval of fresh records.
        assert_eq!(l.record(0, 3).unwrap(), None);
        assert_eq!(l.record(0, 4).unwrap(), None);
        assert!(l.record(0, 5).unwrap().is_some());
    }

    #[test]
    fn audit_conserves_across_drain_and_rerecord() {
        let l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap();
        }
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        assert_eq!(ack(&l, 0, 0), AckOutcome::Duplicate);
        let drained = l.drain_dest(0).unwrap();
        assert_eq!(drained.len(), 3);
        // Re-record the drained items (the failure-resend pattern).
        for i in drained {
            l.record_migrated(0, i).unwrap();
        }
        let audit = l.audit();
        assert_eq!(audit.recorded, 8, "5 original + 3 re-recorded");
        assert_eq!(audit.pruned, 2);
        assert_eq!(audit.retired, 3);
        assert_eq!(audit.unacked, 3);
        assert_eq!(audit.acks_accepted, 1);
        assert_eq!(audit.acks_duplicate, 1);
        assert_eq!(audit.acks_dropped, 0);
        assert!(audit.conserved(), "not conserved: {audit:?}");
    }

    /// A duplicated window produces a duplicate ack, and the audit must
    /// stay conserved — the duplicate is counted on its own channel,
    /// never as an accepted prune or a protocol error.
    #[test]
    fn duplicate_ack_conserves_audit() {
        let l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        // Window 0's ack is late; the window is still in the log...
        assert_eq!(l.undelivered(0), (2, 4));
        // ...and then BOTH acks arrive: the block's and its duplicate's.
        assert_eq!(accepted(ack(&l, 0, 0)), 2);
        assert_eq!(ack(&l, 0, 0), AckOutcome::Duplicate);
        assert_eq!(accepted(ack(&l, 0, 1)), 2);
        let audit = l.audit();
        assert_eq!(audit.recorded, 4);
        assert_eq!(audit.pruned, 4);
        assert_eq!(audit.acks_accepted, 2);
        assert_eq!(audit.acks_duplicate, 1);
        assert_eq!(audit.acks_dropped, 0);
        assert!(audit.conserved(), "not conserved: {audit:?}");
    }

    #[test]
    fn undelivered_windows_exclude_acked_and_open() {
        let l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap(); // windows 0 and 1 close; item 4 open
        }
        ack(&l, 0, 0);
        assert_eq!(
            l.undelivered(0),
            (1, 2),
            "only window 1 is closed and unacked"
        );
        assert!(l.has_undelivered(0));
        ack(&l, 0, 1);
        assert!(!l.has_undelivered(0), "open window never counts");
        assert_eq!(l.undelivered(0), (0, 0));
    }

    #[test]
    fn retained_log_keeps_entries_across_acks() {
        let l = SharedRecoveryLog::<u64>::for_stream(1, true, true, 2, 2).unwrap();
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        assert_eq!(ack(&l, 0, 0), AckOutcome::Accepted(0));
        // Delivery is confirmed (the window leaves the undelivered set)
        // but the entries stay replayable.
        assert_eq!(l.unacked_len(0), 4);
        assert_eq!(l.undelivered(0), (1, 2), "window 1");
        ack(&l, 0, 1);
        assert!(!l.has_undelivered(0));
        // Node-failure recovery still gets the full state back.
        assert_eq!(l.drain_dest(0).unwrap(), vec![0, 1, 2, 3]);
        let audit = l.audit();
        assert_eq!(audit.pruned, 0);
        assert_eq!(audit.retired, 4);
        assert!(audit.conserved(), "not conserved: {audit:?}");
    }

    #[test]
    fn record_migrated_rides_open_window_without_marker() {
        let l = log(2, 3);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        // Two entries are replayed onto dest 1's open window; no marker
        // id may be consumed silently, or its window could never be acked.
        for item in l.drain_dest(0).unwrap() {
            l.record_migrated(1, item).unwrap();
        }
        assert_eq!(l.unacked_len(1), 2);
        assert!(!l.has_undelivered(1), "window still open");
        // The next real record closes the window (2 migrated + 1 fresh
        // reach the interval) and its marker covers all three.
        let cp = l.record(1, 3).unwrap().expect("window closes");
        assert_eq!(cp.id, 0);
        assert_eq!(accepted(ack(&l, 1, cp.id)), 3);
        assert_eq!(l.unacked_len(1), 0);
        assert!(l.audit().conserved());
    }

    #[test]
    fn force_checkpoint_on_empty_window_is_none() {
        let l = log(1, 3);
        assert_eq!(l.force_checkpoint(0).unwrap(), None);
        l.record(0, 1).unwrap();
        let cp = l.force_checkpoint(0).unwrap().unwrap();
        assert_eq!(cp.dest, 0);
        assert_eq!(l.force_checkpoint(0).unwrap(), None);
    }

    #[test]
    fn cross_thread_record_and_ack_conserve() {
        let log = Arc::new(SharedRecoveryLog::<u64>::new(1, 5).unwrap());
        let producer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut cps = Vec::new();
                for i in 0..100u64 {
                    if let Some(cp) = log.record(0, i).unwrap() {
                        cps.push(cp);
                    }
                }
                cps
            })
        };
        let cps = producer.join().unwrap();
        assert_eq!(cps.len(), 20);
        let consumer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for cp in cps {
                    assert!(matches!(
                        log.acknowledge(cp.dest, cp.id, 0),
                        AckOutcome::Accepted(_)
                    ));
                }
            })
        };
        consumer.join().unwrap();
        let audit = log.audit();
        assert!(audit.conserved(), "not conserved: {audit:?}");
        assert_eq!(audit.recorded, 100);
        assert_eq!(audit.pruned, 100);
        assert_eq!(audit.unacked, 0);
        assert_eq!(audit.acks_accepted, 20);
    }

    #[test]
    fn stale_epoch_ack_is_dropped() {
        let log = SharedRecoveryLog::<u64>::new(2, 2).unwrap();
        log.record(0, 1).unwrap();
        let cp = log.record(0, 2).unwrap().unwrap();
        log.record(1, 3).unwrap();
        let dead = log.record(1, 4).unwrap().unwrap();
        // Destination 1's node fails: draining it voids its windows and
        // bumps the epoch.
        assert_eq!(log.drain_dest(1).unwrap(), vec![3, 4]);
        assert_eq!(log.epoch(), 1);
        // Its ack was issued under epoch 0; after the bump it must not
        // touch the log, and nor may an ack from an epoch to come.
        assert_eq!(log.acknowledge(dead.dest, dead.id, 0), AckOutcome::Stale);
        assert_eq!(log.acknowledge(cp.dest, cp.id, 2), AckOutcome::Stale);
        assert_eq!(log.total_unacked(), 2);
        // Destination 0 was not drained: its window survives, and the ack
        // issued under epoch 0 — the only one that will ever come — lands.
        assert_eq!(log.acknowledge(cp.dest, cp.id, 0), AckOutcome::Accepted(2));
        assert!(log.audit().conserved());
    }

    #[test]
    fn duplicate_ack_is_absorbed_not_fatal() {
        let log = SharedRecoveryLog::<u64>::new(1, 1).unwrap();
        let cp = log.record(0, 7).unwrap().unwrap();
        assert_eq!(log.acknowledge(0, cp.id, 0), AckOutcome::Accepted(1));
        assert_eq!(log.acknowledge(0, cp.id, 0), AckOutcome::Duplicate);
        let audit = log.audit();
        assert_eq!(audit.acks_duplicate, 1);
        assert_eq!(audit.acks_dropped, 0);
        assert!(audit.conserved());
    }

    #[test]
    fn migrate_preserves_unacked_and_later_checkpoint_covers() {
        let log = SharedRecoveryLog::<u64>::new(2, 10).unwrap();
        for i in 0..4 {
            log.record(0, i).unwrap();
        }
        // Entries 0 and 2 move to destination 1 (distribution changed).
        assert_eq!(log.migrate_matching(0, 1, |x| x % 2 == 0).unwrap(), 2);
        assert_eq!(log.unacked_len(0), 2);
        assert_eq!(log.unacked_len(1), 2);
        let audit = log.audit();
        assert_eq!(audit.recorded, 4, "migration must not double-count");
        assert!(audit.conserved());
        // The producer finishing the stream closes both open windows.
        let cp0 = log.force_checkpoint(0).unwrap().unwrap();
        let cp1 = log.force_checkpoint(1).unwrap().unwrap();
        assert!(matches!(
            log.acknowledge(0, cp0.id, 0),
            AckOutcome::Accepted(2)
        ));
        assert!(matches!(
            log.acknowledge(1, cp1.id, 0),
            AckOutcome::Accepted(2)
        ));
        assert_eq!(log.total_unacked(), 0);
        assert!(log.audit().conserved());
    }

    #[test]
    fn retire_accounts_entries_as_delivered() {
        let log = SharedRecoveryLog::<u64>::new(1, 100).unwrap();
        for i in 0..6 {
            log.record(0, i).unwrap();
        }
        assert_eq!(log.retire_matching(0, |x| *x < 4).unwrap(), 4);
        let audit = log.audit();
        assert_eq!(audit.retired, 4);
        assert_eq!(audit.unacked, 2);
        assert!(audit.conserved());
    }

    #[test]
    fn drain_dest_voids_windows_and_bumps_epoch() {
        let log = SharedRecoveryLog::<u64>::new(2, 2).unwrap();
        for i in 0..4 {
            log.record(0, i).unwrap(); // windows 0 and 1 close on dest 0
        }
        log.record(1, 9).unwrap();
        // Dest 0's node dies: drain everything for replay elsewhere.
        let drained = log.drain_dest(0).unwrap();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert_eq!(log.epoch(), 1, "window-voiding drain bumps the epoch");
        // A pre-failure ack arrives late: stale, dropped.
        assert_eq!(log.acknowledge(0, 0, 0), AckOutcome::Stale);
        // The survivor's entries are untouched.
        assert_eq!(log.unacked_len(1), 1);
        // Re-record under the new owner; the audit stays conserved.
        for item in drained {
            log.record_migrated(1, item).unwrap();
        }
        let audit = log.audit();
        assert_eq!(audit.recorded, 9, "5 original + 4 replayed");
        assert_eq!(audit.retired, 4);
        assert!(audit.conserved(), "not conserved: {audit:?}");
        // Draining the now-empty dest again voids nothing, so in-flight
        // acks elsewhere must survive: no epoch bump.
        assert!(log.drain_dest(0).unwrap().is_empty());
        assert_eq!(log.epoch(), 1, "empty drain must not bump the epoch");
    }

    #[test]
    fn the_log_a_stream_keeps() {
        // Resilient: the interval is clamped to the block, build retained.
        let build = SharedRecoveryLog::<u64>::for_stream(1, true, true, 8, 3).unwrap();
        let probe = SharedRecoveryLog::<u64>::for_stream(1, false, true, 8, 3).unwrap();
        for l in [&build, &probe] {
            l.record(0, 1).unwrap();
            l.record(0, 2).unwrap();
            assert!(l.record(0, 3).unwrap().is_some(), "a window fits a block");
        }
        assert_eq!(accepted(ack(&build, 0, 0)), 0, "retained");
        assert_eq!(accepted(ack(&probe, 0, 0)), 3, "pruned");
        // Otherwise the interval stands, and build windows never close.
        let build = SharedRecoveryLog::<u64>::for_stream(1, true, false, 2, 1).unwrap();
        let probe = SharedRecoveryLog::<u64>::for_stream(1, false, false, 2, 1).unwrap();
        for i in 0..100 {
            assert_eq!(build.record(0, i).unwrap(), None);
        }
        probe.record(0, 1).unwrap();
        assert!(probe.record(0, 2).unwrap().is_some());
    }

    #[test]
    fn log_moves_settle_once_per_group() {
        let logs: Vec<SharedRecoveryLog<(u8, Tuple)>> = (0..2)
            .map(|_| SharedRecoveryLog::new(3, 100).unwrap())
            .collect();
        for seq in 0..6u64 {
            logs[1]
                .record(0, (0, Tuple::with_seq(vec![], seq)))
                .unwrap();
        }
        let mut moves = LogMoves::default();
        for seq in [0, 2, 4] {
            moves.note(1, 0, Some(2), seq);
        }
        moves.note(1, 0, None, 5);
        moves.note(7, 0, None, 1); // no such source: skipped
        moves.settle(&logs);
        let log = &logs[1];
        assert_eq!((log.unacked_len(0), log.unacked_len(2)), (2, 3));
        // The retire group goes first (`None` sorts low), then the move.
        assert_eq!(log.entries_visited(), 6 + 5, "one pass per group");
        assert_eq!(log.audit().retired, 1);
        assert!(log.audit().conserved());
    }

    #[test]
    fn result_dedup_merges_exact_duplicates_only() {
        use gridq_common::Value;
        let t = |seq, v: Vec<Value>| Tuple::with_seq(v, seq);
        let mut dedup = ResultDedup::default();
        assert!(dedup.first(&t(1, vec![Value::Int(1), Value::str("a")])));
        assert!(!dedup.first(&t(1, vec![Value::Int(1), Value::str("a")])));
        // A join emits several results per probe sequence number.
        assert!(dedup.first(&t(1, vec![Value::Int(1), Value::str("b")])));
        assert!(dedup.first(&t(2, vec![Value::Int(1), Value::str("a")])));
        // Values that compare equal but are not the same result stay apart.
        assert!(dedup.first(&t(3, vec![Value::Float(0.0)])));
        assert!(dedup.first(&t(3, vec![Value::Float(-0.0)])));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridq_common::check::{shrink_vec, Check, Gen};

    /// The log never loses or duplicates an item: at any point,
    /// pruned + drained + still-logged counts add up, and every
    /// recorded value is accounted for exactly once.
    #[test]
    fn conservation() {
        Check::new("recovery log conserves items").run_shrink(
            |rng| rng.vec_of(1, 200, |r| r.i64_in(0, 4) as u8),
            |ops: &Vec<u8>| shrink_vec(ops),
            |ops| {
                if ops.is_empty() {
                    return Ok(()); // shrinking may empty the op list
                }
                let log = SharedRecoveryLog::<u64>::new(1, 3).unwrap();
                let mut next_item = 0u64;
                let mut emitted_cps: Vec<u64> = Vec::new();
                let mut acked: Vec<u64> = Vec::new();
                let mut accounted = 0usize; // pruned or drained
                for &op in ops {
                    match op {
                        0 | 1 => {
                            if let Some(cp) = log.record(0, next_item).unwrap() {
                                emitted_cps.push(cp.id);
                            }
                            next_item += 1;
                        }
                        2 => {
                            // Ack the oldest unacked emitted checkpoint.
                            let candidate = emitted_cps
                                .iter()
                                .copied()
                                .filter(|id| !acked.contains(id))
                                .min();
                            if let Some(id) = candidate {
                                match log.acknowledge(0, id, log.epoch()) {
                                    AckOutcome::Accepted(pruned) => accounted += pruned,
                                    other => return Err(format!("ack of {id} was {other:?}")),
                                }
                                acked.push(id);
                            }
                        }
                        _ => {
                            accounted += log.drain_dest(0).unwrap().len();
                        }
                    }
                    if accounted + log.unacked_len(0) != next_item as usize {
                        return Err(format!(
                            "items not conserved: {} accounted + {} logged != {} recorded",
                            accounted,
                            log.unacked_len(0),
                            next_item
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    /// migrate_matching partitions the log: moved ∪ kept equals the
    /// previous contents with order preserved within each side.
    #[test]
    fn migrate_matching_partitions() {
        Check::new("migrate_matching partitions the log").run_shrink(
            |rng| rng.vec_of(0, 50, |r| r.i64_in(0, 100) as u64),
            |items: &Vec<u64>| shrink_vec(items),
            |items| {
                let log = SharedRecoveryLog::<u64>::new(2, 7).unwrap();
                for &i in items {
                    log.record(0, i).unwrap();
                }
                log.migrate_matching(0, 1, |x| x % 3 == 0).unwrap();
                let logged = |d: usize| -> Vec<u64> {
                    let inner = log.inner.lock();
                    inner.dests[d].entries.iter().map(|e| e.item).collect()
                };
                let (moved, kept) = (logged(1), logged(0));
                let expect_moved: Vec<u64> = items.iter().copied().filter(|x| x % 3 == 0).collect();
                let expect_kept: Vec<u64> = items.iter().copied().filter(|x| x % 3 != 0).collect();
                if moved != expect_moved {
                    return Err(format!("moved {moved:?} != {expect_moved:?}"));
                }
                if kept != expect_kept {
                    return Err(format!("kept {kept:?} != {expect_kept:?}"));
                }
                Ok(())
            },
        );
    }
}

/// The log against a model whose `acknowledge` is the old definition —
/// filter the destination's entries by checkpoint id — kept here as the
/// oracle for the contiguous-run implementation.
#[cfg(test)]
mod model_tests {
    use super::*;
    use gridq_common::check::{shrink_vec, Check, Gen};
    use gridq_common::DetRng;

    const DESTS: u32 = 3;
    const INTERVAL: usize = 3;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Record(u32),
        Force(u32),
        /// The oldest emitted, unacknowledged checkpoint: the in-order case.
        AckOldest(u32),
        /// Any emitted checkpoint: out of order, or a duplicate.
        AckAny(u32, u64),
        /// A checkpoint acknowledged before: always a duplicate.
        AckAgain(u32, u64),
        AckUnemitted(u32, u64),
        /// An ack stamped before the last window-voiding drain — stale
        /// only if that drain took its destination's windows — or, before
        /// any drain, under an epoch to come.
        AckStale(u32),
        /// Entries on `from` divisible by `m` move to `to`'s open window
        /// (`migrate_matching`: a recall, a producer's restage).
        Migrate(u32, u32, u64),
        /// Entries divisible by `m` leave for good (`retire_matching`).
        Retire(u32, u64),
        /// `drain_dest`: bumps the epoch when it takes anything.
        DrainDest(u32),
        /// A failover: `from` is drained, and the drained entries are
        /// re-recorded into `to`'s open window (`record_migrated`).
        Replay(u32, u32),
    }

    fn gen_op(r: &mut DetRng) -> Op {
        let d = r.u32_in(0, DESTS);
        let pick = r.next_u64() >> 40;
        match r.u32_in(0, 17) {
            0..=5 => Op::Record(d),
            6 => Op::Force(d),
            7..=8 => Op::AckOldest(d),
            9 => Op::AckAny(d, pick),
            10 => Op::AckAgain(d, pick),
            11 => Op::AckUnemitted(d, pick % 3),
            12 => Op::AckStale(d),
            13 => Op::Migrate(d, r.u32_in(0, DESTS), 2 + pick % 3),
            14 => Op::Retire(d, 2 + pick % 3),
            15 => Op::DrainDest(d),
            _ => Op::Replay(d, r.u32_in(0, DESTS)),
        }
    }

    #[derive(Default)]
    struct ModelDest {
        /// `(cp, item)`, oldest first.
        entries: Vec<(u64, u64)>,
        next_cp: u64,
        since_last: usize,
        acked: BTreeSet<u64>,
        voided_below: u64,
    }

    impl ModelDest {
        fn append(&mut self, item: u64) {
            self.entries.push((self.next_cp, item));
            self.since_last += 1;
        }

        fn close(&mut self) {
            self.next_cp += 1;
            self.since_last = 0;
        }

        fn take_matching(&mut self, m: u64) -> Vec<u64> {
            let (gone, kept) = self.entries.iter().partition(|(_, item)| item % m == 0);
            self.entries = kept;
            let gone: Vec<(u64, u64)> = gone;
            gone.into_iter().map(|(_, item)| item).collect()
        }
    }

    #[derive(Default)]
    struct Model {
        dests: Vec<ModelDest>,
        epoch: u64,
        next_item: u64,
        audit: LogAudit,
    }

    impl Model {
        /// The old `acknowledge`: a filter over everything logged.
        fn acknowledge(&mut self, dest: u32, id: u64, epoch: u64) -> AckOutcome {
            let d = &mut self.dests[dest as usize];
            if epoch > self.epoch || epoch < d.voided_below {
                self.audit.acks_dropped += 1;
                AckOutcome::Stale
            } else if id >= d.next_cp {
                self.audit.acks_dropped += 1;
                AckOutcome::Ignored
            } else if !d.acked.insert(id) {
                self.audit.acks_duplicate += 1;
                AckOutcome::Duplicate
            } else {
                let before = d.entries.len();
                d.entries.retain(|(cp, _)| *cp != id);
                let pruned = before - d.entries.len();
                self.audit.pruned += pruned as u64;
                self.audit.acks_accepted += 1;
                AckOutcome::Accepted(pruned)
            }
        }
    }

    fn run(ops: &[Op]) -> std::result::Result<(), String> {
        let log = SharedRecoveryLog::<u64>::new(DESTS as usize, INTERVAL).unwrap();
        let mut model = Model::default();
        model.dests.resize_with(DESTS as usize, ModelDest::default);
        for (step, &op) in ops.iter().enumerate() {
            let at = |what: String| format!("step {step} {op:?}: {what}");
            let check_ack = |real: AckOutcome, want: AckOutcome| {
                (real == want)
                    .then_some(())
                    .ok_or_else(|| at(format!("acknowledged {real:?}, the filter says {want:?}")))
            };
            // The marker ids emitted so far, per destination: a move must
            // leave them as they were.
            let emitted = |log: &SharedRecoveryLog<u64>| -> Vec<u64> {
                log.inner.lock().dests.iter().map(|d| d.next_cp).collect()
            };
            match op {
                Op::Record(d) => {
                    let item = model.next_item;
                    model.next_item += 1;
                    model.audit.recorded += 1;
                    let m = &mut model.dests[d as usize];
                    m.append(item);
                    let want = (m.since_last >= INTERVAL).then(|| {
                        let id = m.next_cp;
                        m.close();
                        Checkpoint { dest: d, id }
                    });
                    let real = log.record(d, item).unwrap();
                    if real != want {
                        return Err(at(format!("record emitted {real:?}, expected {want:?}")));
                    }
                }
                Op::Force(d) => {
                    let m = &mut model.dests[d as usize];
                    let want = (m.since_last > 0).then(|| {
                        let id = m.next_cp;
                        m.close();
                        Checkpoint { dest: d, id }
                    });
                    let real = log.force_checkpoint(d).unwrap();
                    if real != want {
                        return Err(at(format!("force emitted {real:?}, expected {want:?}")));
                    }
                }
                Op::AckOldest(d) => {
                    let m = &model.dests[d as usize];
                    let Some(id) = (0..m.next_cp).find(|id| !m.acked.contains(id)) else {
                        continue;
                    };
                    let want = model.acknowledge(d, id, model.epoch);
                    check_ack(log.acknowledge(d, id, model.epoch), want)?;
                }
                Op::AckAny(d, pick) => {
                    let emitted = model.dests[d as usize].next_cp;
                    if emitted == 0 {
                        continue;
                    }
                    let want = model.acknowledge(d, pick % emitted, model.epoch);
                    check_ack(log.acknowledge(d, pick % emitted, model.epoch), want)?;
                }
                Op::AckAgain(d, pick) => {
                    let acked = &model.dests[d as usize].acked;
                    let Some(&id) = acked.iter().nth(pick as usize % acked.len().max(1)) else {
                        continue;
                    };
                    let want = model.acknowledge(d, id, model.epoch);
                    check_ack(log.acknowledge(d, id, model.epoch), want)?;
                }
                Op::AckUnemitted(d, beyond) => {
                    let id = model.dests[d as usize].next_cp + beyond;
                    let want = model.acknowledge(d, id, model.epoch);
                    check_ack(log.acknowledge(d, id, model.epoch), want)?;
                }
                Op::AckStale(d) => {
                    let epoch = model.epoch.checked_sub(1).unwrap_or(1);
                    let want = model.acknowledge(d, 0, epoch);
                    check_ack(log.acknowledge(d, 0, epoch), want)?;
                }
                Op::Migrate(from, to, m) => {
                    let moved = model.dests[from as usize].take_matching(m);
                    for &item in &moved {
                        model.dests[to as usize].append(item);
                    }
                    let before = emitted(&log);
                    let real = log.migrate_matching(from, to, |x| x % m == 0).unwrap();
                    if real != moved.len() {
                        return Err(at(format!("migrated {real}, expected {}", moved.len())));
                    }
                    if emitted(&log) != before {
                        return Err(at("a moved entry closed a window".into()));
                    }
                }
                Op::Retire(d, m) => {
                    let gone = model.dests[d as usize].take_matching(m).len();
                    model.audit.retired += gone as u64;
                    let real = log.retire_matching(d, |x| x % m == 0).unwrap();
                    if real != gone {
                        return Err(at(format!("retired {real}, expected {gone}")));
                    }
                }
                Op::DrainDest(d) | Op::Replay(d, _) => {
                    let m = &mut model.dests[d as usize];
                    let want: Vec<u64> = m.entries.drain(..).map(|(_, item)| item).collect();
                    m.since_last = 0;
                    if !want.is_empty() {
                        model.audit.retired += want.len() as u64;
                        model.epoch += 1;
                        m.voided_below = model.epoch;
                    }
                    let real = log.drain_dest(d).unwrap();
                    if real != want {
                        return Err(at(format!("drained {real:?}, expected {want:?}")));
                    }
                    if let Op::Replay(_, to) = op {
                        for &item in &want {
                            model.dests[to as usize].append(item);
                            model.audit.recorded += 1;
                        }
                        let before = emitted(&log);
                        for item in real {
                            log.record_migrated(to, item).unwrap();
                        }
                        if emitted(&log) != before {
                            return Err(at("a replayed entry closed a window".into()));
                        }
                    }
                }
            }
            // After every step: same survivors in the same order, the
            // same open windows, the ordering invariant, the same audit,
            // nothing lost.
            let inner = log.inner.lock();
            for (d, m) in model.dests.iter().enumerate() {
                let real = &inner.dests[d];
                let items: Vec<u64> = real.entries.iter().map(|e| e.item).collect();
                let want: Vec<u64> = m.entries.iter().map(|(_, item)| *item).collect();
                if items != want {
                    return Err(at(format!("dest {d} holds {items:?}, expected {want:?}")));
                }
                if (real.next_cp, real.since_last) != (m.next_cp, m.since_last) {
                    return Err(at(format!("dest {d}'s open window differs from the model")));
                }
                if !real.cp_ordered() {
                    return Err(at(format!("dest {d} is out of checkpoint order")));
                }
            }
            drop(inner);
            model.audit.unacked = model.dests.iter().map(|m| m.entries.len() as u64).sum();
            let audit = log.audit();
            if audit != model.audit || log.epoch() != model.epoch {
                return Err(at(format!("audit {audit:?}, expected {:?}", model.audit)));
            }
            if !audit.conserved() {
                return Err(at(format!("not conserved: {audit:?}")));
            }
        }
        Ok(())
    }

    #[test]
    fn every_schedule_matches_the_filter_definition_step_by_step() {
        Check::new("recovery log vs the filter model")
            .cases(300)
            .run_shrink(
                |rng| rng.vec_of(1, 120, gen_op),
                |ops: &Vec<Op>| shrink_vec(ops),
                |ops| run(ops),
            );
    }

    /// Acknowledging a window costs the window plus two binary searches,
    /// whatever is still in flight behind it — counted, not timed.
    #[test]
    fn an_acknowledgement_visits_its_window_not_the_backlog() {
        const WINDOW: usize = 50;
        const WINDOWS: u64 = 1_000;
        let log = SharedRecoveryLog::<u64>::new(1, WINDOW).unwrap();
        for i in 0..WINDOWS * WINDOW as u64 {
            log.record(0, i).unwrap();
        }
        let backlog = log.unacked_len(0) as u64;
        // Two searches of at most ⌈log2(backlog)⌉ + 1 probes each.
        let per_ack = WINDOW as u64 + 2 * (u64::from(backlog.ilog2()) + 2);
        // Out of order first: a window in the middle of the backlog.
        assert_eq!(
            log.acknowledge(0, WINDOWS / 2, 0),
            AckOutcome::Accepted(WINDOW)
        );
        assert!(
            log.entries_visited() <= per_ack,
            "{}",
            log.entries_visited()
        );
        for id in (0..WINDOWS).filter(|id| *id != WINDOWS / 2) {
            assert_eq!(log.acknowledge(0, id, 0), AckOutcome::Accepted(WINDOW));
        }
        assert_eq!(log.unacked_len(0), 0);
        let visited = log.entries_visited();
        assert!(visited <= WINDOWS * per_ack, "visited {visited}");
        // The filter this replaces visited the whole backlog per ack.
        assert!(visited * 100 < WINDOWS * backlog / 2, "visited {visited}");
        assert!(log.audit().conserved());
    }
}
