#![warn(missing_docs)]

//! Recovery logs with a checkpoint/acknowledgement protocol.
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
//! Acknowledgements are **per window**: a marker's ack confirms exactly
//! the entries recorded under that checkpoint id, never earlier windows
//! whose own markers (and possibly tuples) may still be in flight or
//! lost. That is what makes the log usable as a *replay* substrate, not
//! just an audit: a window whose marker never comes back stays in the
//! log, and [`RecoveryLog::undelivered_windows`] hands it back — tuples
//! plus a reconstructed marker — for retransmission.
//!
//! At any point the log therefore holds exactly the tuples that have *not*
//! finished being processed: all in-transit tuples plus the tuples that
//! make up downstream operator state. That is what makes **retrospective
//! (R1) repartitioning** possible — the Responder can extract the
//! unacknowledged tuples and re-send them under a new distribution policy.
//!
//! **Ordering invariant.** A destination's entries are held in
//! non-decreasing order of the checkpoint id that closes their window:
//! every append ([`RecoveryLog::record`], [`RecoveryLog::record_migrated`],
//! a replay) stamps the id the *next* checkpoint will take, which never
//! decreases, and every removal ([`RecoveryLog::drain_matching`], an
//! acknowledgement) preserves the order of what it leaves behind. A
//! window is therefore one contiguous run, and acknowledging it costs
//! two binary searches plus the entries it removes — not a pass over
//! everything still in flight. [`RecoveryLog::entries_visited`] counts
//! that work, so tests assert the proportionality on a count, never on a
//! timer.
//!
//! Logs come in two modes. The default **prune** mode pops a window's
//! entries when it is acknowledged. **Retained** mode
//! ([`RecoveryLog::retained`]) marks the window delivered but keeps the
//! entries: build streams use it, because build tuples *are* the
//! downstream operator state and must stay replayable for node-failure
//! recovery even after their delivery is confirmed.
//!
//! The log is generic over the logged item so it can be tested in
//! isolation; the execution substrates instantiate it with
//! `(StreamTag, Tuple)` pairs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gridq_common::{GridError, Result};

/// A checkpoint marker emitted into a destination's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checkpoint {
    /// The destination partition this checkpoint was sent to.
    pub dest: u32,
    /// Monotonically increasing checkpoint id within that destination.
    pub id: u64,
}

/// Result of applying an acknowledgement to a [`RecoveryLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// The acknowledgement was applied. In prune mode `pruned` counts the
    /// entries popped from the window; a retained log always reports 0.
    Applied {
        /// Entries removed from the log by this acknowledgement.
        pruned: usize,
    },
    /// The window was already acknowledged. Benign by design: an
    /// at-least-once transport retransmits windows, so the same marker
    /// can legitimately be processed (and acknowledged) more than once.
    Duplicate,
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
    /// Entries recorded since the last checkpoint.
    since_last: usize,
    /// Every checkpoint id below this is acknowledged.
    acked_floor: u64,
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
            acked_above: BTreeSet::new(),
        }
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
}

/// Per-destination recovery logs for one exchange producer.
///
/// The log keeps its own conservation counters (see [`RecoveryLog::audit`]):
/// drained entries count as *retired* because every drain path re-delivers
/// them outside the ack protocol (failure resends, retrospective recalls),
/// and entries re-recorded afterwards count as freshly recorded — so
/// [`LogAudit::conserved`] holds across drains and re-records.
#[derive(Debug, Clone)]
pub struct RecoveryLog<T> {
    dests: Vec<DestLog<T>>,
    interval: usize,
    mode: LogMode,
    recorded: u64,
    pruned: u64,
    retired: u64,
    acks_accepted: u64,
    acks_duplicate: u64,
    acks_dropped: u64,
    /// Entries examined by acknowledgements and matching drains.
    visited: u64,
}

impl<T> RecoveryLog<T> {
    /// Creates pruning logs for `dest_count` destinations with a
    /// checkpoint every `interval` recorded tuples per destination.
    /// `interval` must be positive.
    pub fn new(dest_count: usize, interval: usize) -> Result<Self> {
        Self::with_mode(dest_count, interval, LogMode::Prune)
    }

    /// Creates retained logs: acknowledgements mark windows delivered
    /// (advancing the delivery watermark consulted by
    /// [`RecoveryLog::undelivered_windows`]) but never remove entries.
    /// Build streams use this mode, because their tuples are the
    /// downstream operator state and must stay replayable for the whole
    /// run.
    pub fn retained(dest_count: usize, interval: usize) -> Result<Self> {
        Self::with_mode(dest_count, interval, LogMode::Retain)
    }

    fn with_mode(dest_count: usize, interval: usize, mode: LogMode) -> Result<Self> {
        if interval == 0 {
            return Err(GridError::Config(
                "checkpoint interval must be positive".into(),
            ));
        }
        Ok(RecoveryLog {
            dests: (0..dest_count).map(|_| DestLog::new()).collect(),
            interval,
            mode,
            recorded: 0,
            pruned: 0,
            retired: 0,
            acks_accepted: 0,
            acks_duplicate: 0,
            acks_dropped: 0,
            visited: 0,
        })
    }

    /// Number of destinations.
    pub fn dest_count(&self) -> usize {
        self.dests.len()
    }

    /// The checkpoint interval.
    pub fn interval(&self) -> usize {
        self.interval
    }

    fn dest(&self, dest: u32) -> Result<&DestLog<T>> {
        self.dests
            .get(dest as usize)
            .ok_or_else(|| GridError::Execution(format!("recovery log has no destination {dest}")))
    }

    fn dest_mut(&mut self, dest: u32) -> Result<&mut DestLog<T>> {
        self.dests
            .get_mut(dest as usize)
            .ok_or_else(|| GridError::Execution(format!("recovery log has no destination {dest}")))
    }

    /// Records an outgoing item for `dest`. Returns a checkpoint marker to
    /// insert into the stream when this record completes a window of
    /// `interval` items.
    pub fn record(&mut self, dest: u32, item: T) -> Result<Option<Checkpoint>> {
        let interval = self.interval;
        let log = self.dest_mut(dest)?;
        log.entries.push_back(Entry {
            cp: log.next_cp,
            item,
        });
        log.since_last += 1;
        let cp = if log.since_last >= interval {
            let id = log.next_cp;
            log.next_cp += 1;
            log.since_last = 0;
            Some(Checkpoint { dest, id })
        } else {
            None
        };
        self.recorded += 1;
        Ok(cp)
    }

    /// Appends a migrated item to `dest`'s *open* window without ever
    /// emitting a marker. Unlike [`RecoveryLog::record`] this can never
    /// close the window, so no marker id is silently consumed: the
    /// migrated entries are covered by the next real or forced checkpoint
    /// on `dest`, whose marker the producer actually sends. The appended
    /// item counts toward the open window's fill (so a following record
    /// or force can close it) and as recorded again — the drain that
    /// produced it retired the original incarnation, keeping the audit
    /// balanced.
    pub fn record_migrated(&mut self, dest: u32, item: T) -> Result<()> {
        let log = self.dest_mut(dest)?;
        log.entries.push_back(Entry {
            cp: log.next_cp,
            item,
        });
        log.since_last += 1;
        self.recorded += 1;
        Ok(())
    }

    /// Forces a checkpoint covering any items recorded since the last
    /// one; used when a stream ends mid-window. Returns `None` if the
    /// window is empty.
    pub fn force_checkpoint(&mut self, dest: u32) -> Result<Option<Checkpoint>> {
        let log = self.dest_mut(dest)?;
        if log.since_last == 0 {
            return Ok(None);
        }
        let id = log.next_cp;
        log.next_cp += 1;
        log.since_last = 0;
        Ok(Some(Checkpoint { dest, id }))
    }

    /// Acknowledges checkpoint `id` on `dest`. The ack covers exactly the
    /// entries of window `id` — never earlier windows, whose markers (or
    /// tuples) may independently be lost in flight. In prune mode the
    /// window's entries are popped; a retained log only advances the
    /// delivery watermark. A repeated ack is reported as
    /// [`Ack::Duplicate`] and changes nothing; acknowledging a checkpoint
    /// that was never emitted is an error (a protocol bug, not a race).
    pub fn acknowledge(&mut self, dest: u32, id: u64) -> Result<Ack> {
        let mode = self.mode;
        let mut visited = 0;
        let result = {
            let log = self.dest_mut(dest)?;
            if id >= log.next_cp {
                Err(GridError::Execution(format!(
                    "acknowledging unemitted checkpoint {id} on dest {dest}"
                )))
            } else if log.is_acked(id) {
                Ok(Ack::Duplicate)
            } else {
                log.mark_acked(id);
                let pruned = match mode {
                    LogMode::Retain => 0,
                    LogMode::Prune => {
                        let (pruned, examined) = log.prune_window(id);
                        visited = examined;
                        pruned
                    }
                };
                Ok(Ack::Applied { pruned })
            }
        };
        self.visited += visited;
        match &result {
            Ok(Ack::Applied { pruned }) => {
                self.pruned += *pruned as u64;
                self.acks_accepted += 1;
            }
            Ok(Ack::Duplicate) => self.acks_duplicate += 1,
            Err(_) => self.acks_dropped += 1,
        }
        result
    }

    /// Number of items still logged for `dest` (in a retained log this
    /// includes delivered entries, which stay replayable by design).
    pub fn unacked_len(&self, dest: u32) -> usize {
        self.dest(dest).map(|l| l.entries.len()).unwrap_or(0)
    }

    /// Total logged items across all destinations.
    pub fn total_unacked(&self) -> usize {
        self.dests.iter().map(|l| l.entries.len()).sum()
    }

    /// Iterates over the logged items for `dest`, oldest first.
    pub fn iter_unacked(&self, dest: u32) -> impl Iterator<Item = &T> {
        self.dests
            .get(dest as usize)
            .into_iter()
            .flat_map(|l| l.entries.iter().map(|e| &e.item))
    }

    /// The closed-but-unacknowledged windows on `dest`, oldest first:
    /// each is the reconstructed marker plus clones of the entries it
    /// covers, ready for retransmission. Windows whose entries have all
    /// been drained or migrated elsewhere are omitted (there is nothing
    /// left here to lose). The open window is not included — its marker
    /// has not been sent yet, so nothing can acknowledge it.
    pub fn undelivered_windows(&self, dest: u32) -> Vec<(Checkpoint, Vec<T>)>
    where
        T: Clone,
    {
        let Ok(log) = self.dest(dest) else {
            return Vec::new();
        };
        let mut windows: BTreeMap<u64, Vec<T>> = BTreeMap::new();
        for entry in &log.entries {
            if entry.cp < log.next_cp && !log.is_acked(entry.cp) {
                windows
                    .entry(entry.cp)
                    .or_default()
                    .push(entry.item.clone());
            }
        }
        windows
            .into_iter()
            .map(|(id, items)| (Checkpoint { dest, id }, items))
            .collect()
    }

    /// True when `dest` has at least one closed window that still awaits
    /// acknowledgement and still holds entries (the retry-loop
    /// termination condition).
    pub fn has_undelivered(&self, dest: u32) -> bool {
        self.dest(dest).is_ok_and(|log| {
            log.entries
                .iter()
                .any(|e| e.cp < log.next_cp && !log.is_acked(e.cp))
        })
    }

    /// Removes and returns every logged item for `dest`, oldest first —
    /// in a retained log this includes delivered entries (node-failure
    /// recovery replays the full build state). The open checkpoint window
    /// resets (the items are re-sent under new ownership, so the old
    /// stream's windows are void).
    pub fn drain_all(&mut self, dest: u32) -> Result<Vec<T>> {
        let drained: Vec<T> = {
            let log = self.dest_mut(dest)?;
            log.since_last = 0;
            log.entries.drain(..).map(|e| e.item).collect()
        };
        self.retired += drained.len() as u64;
        Ok(drained)
    }

    /// Removes and returns the logged items for `dest` matching `pred`,
    /// preserving order among both kept and drained items.
    pub fn drain_matching(
        &mut self,
        dest: u32,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Result<Vec<T>> {
        let (drained, examined) = {
            let log = self.dest_mut(dest)?;
            let examined = log.entries.len() as u64;
            let mut drained = Vec::new();
            let mut kept = VecDeque::with_capacity(log.entries.len());
            for entry in log.entries.drain(..) {
                if pred(&entry.item) {
                    drained.push(entry.item);
                } else {
                    kept.push_back(entry);
                }
            }
            log.entries = kept;
            (drained, examined)
        };
        self.visited += examined;
        self.retired += drained.len() as u64;
        Ok(drained)
    }

    /// How many logged entries acknowledgements and matching drains have
    /// examined so far: a work counter (comparisons plus removals for an
    /// acknowledgement, one per logged entry for a matching drain), so a
    /// test can show a step costs what it touches without reading a
    /// clock.
    pub fn entries_visited(&self) -> u64 {
        self.visited
    }

    /// Snapshot of this log's conservation counters. Drained entries
    /// appear as `retired` (every drain path re-delivers them outside the
    /// ack protocol); entries re-recorded after a drain count as freshly
    /// `recorded`, so [`LogAudit::conserved`] holds across both.
    pub fn audit(&self) -> LogAudit {
        LogAudit {
            recorded: self.recorded,
            pruned: self.pruned,
            retired: self.retired,
            unacked: self.total_unacked() as u64,
            acks_accepted: self.acks_accepted,
            acks_duplicate: self.acks_duplicate,
            acks_dropped: self.acks_dropped,
        }
    }
}

/// Outcome of an epoch-guarded acknowledgement on a [`SharedRecoveryLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The acknowledgement was applied; this many entries were pruned.
    Accepted(usize),
    /// The acknowledgement carried a stale epoch (it was issued before a
    /// window-voiding drain) and was dropped.
    Stale,
    /// The window was already acknowledged. Benign under an
    /// at-least-once transport: retransmitted markers are processed (and
    /// acknowledged) again by design.
    Duplicate,
    /// The acknowledgement was malformed (unemitted checkpoint, unknown
    /// destination) and was ignored.
    Ignored,
}

/// A point-in-time conservation audit of a recovery log.
///
/// Every recorded entry must be accounted for exactly once: pruned by an
/// acknowledgement, retired by a retrospective migration, or still
/// unacknowledged in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogAudit {
    /// Entries recorded (including entries re-recorded by migration).
    pub recorded: u64,
    /// Entries pruned by acknowledgements.
    pub pruned: u64,
    /// Entries retired by retrospective migration (the migration traffic
    /// itself carries the exactly-once guarantee for them).
    pub retired: u64,
    /// Entries still held in the log (for a retained build log this
    /// includes delivered entries, kept replayable by design).
    pub unacked: u64,
    /// Acknowledgements accepted.
    pub acks_accepted: u64,
    /// Duplicate acknowledgements absorbed (retransmitted markers; never
    /// part of the conservation equation, but a retransmission-health
    /// signal).
    pub acks_duplicate: u64,
    /// Acknowledgements dropped as stale or malformed.
    pub acks_dropped: u64,
}

impl LogAudit {
    /// True when every recorded entry is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.recorded == self.pruned + self.retired + self.unacked
    }
}

/// A per-(source, destination) record of recovery-log windows a producer
/// could not deliver within its retry budget. The query still completes;
/// the gap is the explicit, queryable record of what is missing. Both
/// substrates report these: the threaded executor from its wall-clock
/// retry loop, the simulator from its virtual-time `RetryCheck` events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryGap {
    /// Producer (source) index that gave up.
    pub source: usize,
    /// Consumer (partition) index that never acknowledged.
    pub dest: usize,
    /// Number of closed windows left undelivered.
    pub windows: u64,
    /// Total tuples in those windows.
    pub tuples: u64,
}

#[derive(Debug)]
struct SharedInner<T> {
    log: RecoveryLog<T>,
    epoch: u64,
    recorded: u64,
    pruned: u64,
    retired: u64,
    acks_accepted: u64,
    acks_duplicate: u64,
    acks_dropped: u64,
}

/// A [`RecoveryLog`] shared between real threads.
///
/// The simulator owns its logs outright and mutates them from the single
/// event loop; the threaded executor instead shares each producer's log
/// with the consumers that acknowledge checkpoints into it and with the
/// recall coordinator that migrates entries during a retrospective
/// redistribution. This wrapper adds the three things real concurrency
/// needs on top of [`RecoveryLog`]:
///
/// - interior mutability behind a poison-recovering mutex;
/// - an **epoch** guard on acknowledgements: checkpoints are stamped with
///   the epoch under which their window was opened, and an ack whose
///   epoch predates a window-voiding drain is dropped instead of pruning
///   entries it no longer covers (a retrospective recall *preserves*
///   windows, so it does not bump the epoch; only a drain that voids
///   windows — e.g. failure recovery — must);
/// - conservation counters, so a run can assert after the fact that no
///   tuple was lost or double-accounted ([`LogAudit::conserved`]).
#[derive(Debug)]
pub struct SharedRecoveryLog<T> {
    inner: gridq_common::sync::Mutex<SharedInner<T>>,
}

impl<T> SharedRecoveryLog<T> {
    /// Creates a shared pruning log for `dest_count` destinations
    /// checkpointing every `interval` records per destination.
    pub fn new(dest_count: usize, interval: usize) -> Result<Self> {
        Self::wrap(RecoveryLog::new(dest_count, interval)?)
    }

    /// Creates a shared retained log (see [`RecoveryLog::retained`]):
    /// acknowledgements confirm delivery but entries stay replayable.
    pub fn retained(dest_count: usize, interval: usize) -> Result<Self> {
        Self::wrap(RecoveryLog::retained(dest_count, interval)?)
    }

    fn wrap(log: RecoveryLog<T>) -> Result<Self> {
        Ok(SharedRecoveryLog {
            inner: gridq_common::sync::Mutex::new(SharedInner {
                log,
                epoch: 0,
                recorded: 0,
                pruned: 0,
                retired: 0,
                acks_accepted: 0,
                acks_duplicate: 0,
                acks_dropped: 0,
            }),
        })
    }

    /// The current epoch; checkpoints emitted now should carry it.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Records an outgoing item for `dest`; returns the checkpoint marker
    /// to insert into the stream when this record closes a window.
    pub fn record(&self, dest: u32, item: T) -> Result<Option<Checkpoint>> {
        let mut inner = self.inner.lock();
        let cp = inner.log.record(dest, item)?;
        inner.recorded += 1;
        Ok(cp)
    }

    /// Forces a checkpoint covering the open window on `dest`, if any.
    pub fn force_checkpoint(&self, dest: u32) -> Result<Option<Checkpoint>> {
        self.inner.lock().log.force_checkpoint(dest)
    }

    /// Applies an acknowledgement of checkpoint `id` on `dest` stamped
    /// with `epoch`. Stale epochs, duplicated acks (expected under an
    /// at-least-once transport), and benign races are absorbed, not
    /// errors: under real threads an ack can always cross a
    /// redistribution or a retransmission in flight.
    pub fn acknowledge(&self, dest: u32, id: u64, epoch: u64) -> AckOutcome {
        let mut inner = self.inner.lock();
        if epoch != inner.epoch {
            inner.acks_dropped += 1;
            return AckOutcome::Stale;
        }
        match inner.log.acknowledge(dest, id) {
            Ok(Ack::Applied { pruned }) => {
                inner.pruned += pruned as u64;
                inner.acks_accepted += 1;
                AckOutcome::Accepted(pruned)
            }
            Ok(Ack::Duplicate) => {
                inner.acks_duplicate += 1;
                AckOutcome::Duplicate
            }
            Err(_) => {
                inner.acks_dropped += 1;
                AckOutcome::Ignored
            }
        }
    }

    /// Migrates the entries on `from` matching `pred` to `to`, preserving
    /// their unacknowledged status (checkpoint windows on `from` stay
    /// valid for the entries left behind). Used when a producer restages
    /// its own unsent buffers under a new distribution: the producer is
    /// still alive, so a later (or forced end-of-stream) checkpoint on
    /// `to` closes the migrated entries' window — migration itself never
    /// consumes a marker id. Returns how many entries moved.
    pub fn migrate_matching(
        &self,
        from: u32,
        to: u32,
        pred: impl FnMut(&T) -> bool,
    ) -> Result<usize> {
        let mut inner = self.inner.lock();
        let drained = inner.log.drain_matching(from, pred)?;
        let moved = drained.len();
        for item in drained {
            inner.log.record_migrated(to, item)?;
        }
        Ok(moved)
    }

    /// Retires the entries on `dest` matching `pred`: they leave the log
    /// for good because the recall protocol re-delivered them directly
    /// (migrated operator state, re-routed held tuples). The migration
    /// traffic carries the exactly-once guarantee, so for the audit they
    /// count as accounted-for, like a pruned entry. Returns how many
    /// entries were retired.
    pub fn retire_matching(&self, dest: u32, pred: impl FnMut(&T) -> bool) -> Result<usize> {
        let mut inner = self.inner.lock();
        let drained = inner.log.drain_matching(dest, pred)?;
        inner.retired += drained.len() as u64;
        Ok(drained.len())
    }

    /// Drains every logged entry for `dest` — the node-failure recovery
    /// path. When anything was drained the dest's windows are void, so
    /// the epoch is bumped: in-flight acks from before the failure can no
    /// longer touch the log. An empty drain bumps nothing — there were no
    /// windows to void, and invalidating unrelated in-flight acks would
    /// force pointless retransmission churn. Returns the entries, oldest
    /// first (for a retained build log this is the full replayable state).
    pub fn drain_dest(&self, dest: u32) -> Result<Vec<T>> {
        let mut inner = self.inner.lock();
        let drained = inner.log.drain_all(dest)?;
        if !drained.is_empty() {
            inner.retired += drained.len() as u64;
            inner.epoch += 1;
        }
        Ok(drained)
    }

    /// Re-records an entry drained by failure recovery under its new
    /// destination. Counts as freshly recorded (the drain retired the old
    /// incarnation), and returns a marker when the record closes a
    /// window, exactly like [`SharedRecoveryLog::record`].
    pub fn record_replayed(&self, dest: u32, item: T) -> Result<Option<Checkpoint>> {
        self.record(dest, item)
    }

    /// The closed-but-unacknowledged windows on `dest` (marker plus entry
    /// clones), for retransmission. See
    /// [`RecoveryLog::undelivered_windows`].
    pub fn undelivered_windows(&self, dest: u32) -> Vec<(Checkpoint, Vec<T>)>
    where
        T: Clone,
    {
        self.inner.lock().log.undelivered_windows(dest)
    }

    /// True when `dest` still has a closed window awaiting delivery
    /// confirmation.
    pub fn has_undelivered(&self, dest: u32) -> bool {
        self.inner.lock().log.has_undelivered(dest)
    }

    /// Number of entries logged for `dest`.
    pub fn unacked_len(&self, dest: u32) -> usize {
        self.inner.lock().log.unacked_len(dest)
    }

    /// Total logged entries across destinations.
    pub fn total_unacked(&self) -> usize {
        self.inner.lock().log.total_unacked()
    }

    /// The checkpoint interval.
    pub fn interval(&self) -> usize {
        self.inner.lock().log.interval()
    }

    /// See [`RecoveryLog::entries_visited`].
    pub fn entries_visited(&self) -> u64 {
        self.inner.lock().log.entries_visited()
    }

    /// Snapshot of the conservation counters.
    pub fn audit(&self) -> LogAudit {
        let inner = self.inner.lock();
        LogAudit {
            recorded: inner.recorded,
            pruned: inner.pruned,
            retired: inner.retired,
            unacked: inner.log.total_unacked() as u64,
            acks_accepted: inner.acks_accepted,
            acks_duplicate: inner.acks_duplicate,
            acks_dropped: inner.acks_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(dests: usize, interval: usize) -> RecoveryLog<u64> {
        RecoveryLog::new(dests, interval).unwrap()
    }

    fn applied(ack: Result<Ack>) -> usize {
        match ack.unwrap() {
            Ack::Applied { pruned } => pruned,
            Ack::Duplicate => panic!("expected an applied ack, got a duplicate"),
        }
    }

    #[test]
    fn zero_interval_rejected() {
        assert!(RecoveryLog::<u64>::new(2, 0).is_err());
    }

    #[test]
    fn checkpoint_every_interval() {
        let mut l = log(1, 3);
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
        let mut l = log(2, 2);
        assert_eq!(l.record(0, 1).unwrap(), None);
        assert_eq!(l.record(1, 2).unwrap(), None);
        assert_eq!(l.record(1, 3).unwrap(), Some(Checkpoint { dest: 1, id: 0 }));
        assert_eq!(l.record(0, 4).unwrap(), Some(Checkpoint { dest: 0, id: 0 }));
    }

    #[test]
    fn acknowledge_prunes_exactly_its_window() {
        let mut l = log(1, 2);
        for i in 0..6 {
            l.record(0, i).unwrap();
        }
        // Checkpoints 0 (items 0,1), 1 (items 2,3), 2 (items 4,5).
        assert_eq!(l.unacked_len(0), 6);
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        assert_eq!(l.unacked_len(0), 4);
        // Acks are per window: acking cp 2 must NOT prune cp 1's window —
        // cp 1's marker (and possibly its tuples) may be lost in flight,
        // and pruning here would make that loss unrecoverable.
        assert_eq!(applied(l.acknowledge(0, 2)), 2);
        assert_eq!(l.unacked_len(0), 2);
        assert_eq!(applied(l.acknowledge(0, 1)), 2);
        assert_eq!(l.unacked_len(0), 0);
    }

    #[test]
    fn acknowledge_unemitted_fails_duplicate_is_benign() {
        let mut l = log(1, 2);
        l.record(0, 1).unwrap();
        assert!(l.acknowledge(0, 0).is_err()); // not yet emitted
        l.record(0, 2).unwrap(); // emits cp 0
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        // A retransmitted marker produces a repeat ack: absorbed.
        assert_eq!(l.acknowledge(0, 0).unwrap(), Ack::Duplicate);
    }

    #[test]
    fn force_checkpoint_closes_open_window() {
        let mut l = log(1, 10);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        let cp = l.force_checkpoint(0).unwrap().unwrap();
        assert_eq!(cp.id, 0);
        assert_eq!(l.force_checkpoint(0).unwrap(), None); // window empty
        assert_eq!(applied(l.acknowledge(0, cp.id)), 2);
    }

    #[test]
    fn drain_all_returns_in_order_and_clears() {
        let mut l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap();
        }
        l.acknowledge(0, 0).unwrap(); // prune items 0,1
        let drained = l.drain_all(0).unwrap();
        assert_eq!(drained, vec![2, 3, 4]);
        assert_eq!(l.unacked_len(0), 0);
        // After a drain the open window restarts cleanly.
        assert_eq!(l.record(0, 9).unwrap(), None);
        assert_eq!(l.record(0, 10).unwrap().unwrap().id, 2);
    }

    #[test]
    fn drain_matching_splits_correctly() {
        let mut l = log(1, 100);
        for i in 0..10 {
            l.record(0, i).unwrap();
        }
        let evens = l.drain_matching(0, |x| x % 2 == 0).unwrap();
        assert_eq!(evens, vec![0, 2, 4, 6, 8]);
        let kept: Vec<u64> = l.iter_unacked(0).copied().collect();
        assert_eq!(kept, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn drain_matching_keeps_ack_semantics_for_rest() {
        let mut l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        // cp0 covers {0,1}, cp1 covers {2,3}.
        let _ = l.drain_matching(0, |x| *x == 1).unwrap();
        // Acking cp0 prunes the remaining item 0 only.
        assert_eq!(applied(l.acknowledge(0, 0)), 1);
        assert_eq!(l.unacked_len(0), 2);
    }

    #[test]
    fn unknown_destination_errors() {
        let mut l = log(1, 2);
        assert!(l.record(5, 1).is_err());
        assert!(l.acknowledge(5, 0).is_err());
        assert!(l.drain_all(5).is_err());
        assert_eq!(l.unacked_len(5), 0);
    }

    #[test]
    fn total_unacked_sums_destinations() {
        let mut l = log(3, 10);
        l.record(0, 1).unwrap();
        l.record(1, 2).unwrap();
        l.record(1, 3).unwrap();
        assert_eq!(l.total_unacked(), 3);
    }

    #[test]
    fn duplicate_ack_is_benign_without_losing_items() {
        let mut l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        assert_eq!(l.acknowledge(0, 0).unwrap(), Ack::Duplicate);
        // The duplicate ack must not have pruned anything.
        assert_eq!(l.unacked_len(0), 2);
        assert_eq!(applied(l.acknowledge(0, 1)), 2);
    }

    #[test]
    fn out_of_order_ack_leaves_skipped_windows_recoverable() {
        let mut l = log(1, 2);
        for i in 0..6 {
            l.record(0, i).unwrap();
        }
        // Checkpoints 0, 1, 2 are all emitted; cp 2's ack arrives first
        // (acks 0 and 1 lost in transit). Only window 2 is pruned — the
        // earlier windows stay replayable until their own acks (or
        // retransmissions) come back.
        assert_eq!(applied(l.acknowledge(0, 2)), 2);
        assert_eq!(l.unacked_len(0), 4);
        let undelivered: Vec<u64> = l
            .undelivered_windows(0)
            .iter()
            .map(|(cp, _)| cp.id)
            .collect();
        assert_eq!(undelivered, vec![0, 1]);
        // The late ack for window 1 applies normally.
        assert_eq!(applied(l.acknowledge(0, 1)), 2);
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        assert!(!l.has_undelivered(0));
    }

    #[test]
    fn ack_of_unemitted_checkpoint_is_rejected() {
        let mut l = log(1, 5);
        l.record(0, 1).unwrap();
        // No checkpoint has been emitted yet (window not full).
        assert!(l.acknowledge(0, 0).is_err());
        assert_eq!(l.unacked_len(0), 1);
    }

    #[test]
    fn drain_resets_open_window() {
        let mut l = log(1, 3);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        assert_eq!(l.drain_all(0).unwrap(), vec![1, 2]);
        // The open window was voided: the next checkpoint needs a full
        // interval of fresh records.
        assert_eq!(l.record(0, 3).unwrap(), None);
        assert_eq!(l.record(0, 4).unwrap(), None);
        assert!(l.record(0, 5).unwrap().is_some());
    }

    #[test]
    fn plain_log_audit_conserves_across_drain_and_rerecord() {
        let mut l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap();
        }
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        assert_eq!(l.acknowledge(0, 0).unwrap(), Ack::Duplicate);
        let drained = l.drain_all(0).unwrap();
        assert_eq!(drained.len(), 3);
        // Re-record the drained items (the failure-resend pattern).
        for i in drained {
            l.record(0, i).unwrap();
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

    /// The satellite regression: a retransmitted window produces a
    /// duplicate ack, and the audit must stay conserved — the duplicate
    /// is counted on its own channel, never as an accepted prune or a
    /// protocol error.
    #[test]
    fn duplicate_ack_under_retransmission_conserves_audit() {
        let mut l = log(1, 2);
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        // Window 0's first ack is lost; the producer retransmits the
        // window from the log...
        let windows = l.undelivered_windows(0);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].0, Checkpoint { dest: 0, id: 0 });
        assert_eq!(windows[0].1, vec![0, 1]);
        // ...and then BOTH acks arrive: the original (delayed, not lost
        // after all) and the retransmission's.
        assert_eq!(applied(l.acknowledge(0, 0)), 2);
        assert_eq!(l.acknowledge(0, 0).unwrap(), Ack::Duplicate);
        assert_eq!(applied(l.acknowledge(0, 1)), 2);
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
        let mut l = log(1, 2);
        for i in 0..5 {
            l.record(0, i).unwrap(); // windows 0 and 1 close; item 4 open
        }
        l.acknowledge(0, 0).unwrap();
        let windows = l.undelivered_windows(0);
        assert_eq!(windows.len(), 1, "only window 1 is closed and unacked");
        assert_eq!(windows[0].0, Checkpoint { dest: 0, id: 1 });
        assert_eq!(windows[0].1, vec![2, 3]);
        assert!(l.has_undelivered(0));
        l.acknowledge(0, 1).unwrap();
        assert!(!l.has_undelivered(0), "open window never counts");
        assert!(l.undelivered_windows(0).is_empty());
    }

    #[test]
    fn retained_log_keeps_entries_across_acks() {
        let mut l = RecoveryLog::<u64>::retained(1, 2).unwrap();
        for i in 0..4 {
            l.record(0, i).unwrap();
        }
        assert_eq!(l.acknowledge(0, 0).unwrap(), Ack::Applied { pruned: 0 });
        // Delivery is confirmed (the window leaves the retransmission
        // set) but the entries stay replayable.
        assert_eq!(l.unacked_len(0), 4);
        let undelivered: Vec<u64> = l
            .undelivered_windows(0)
            .iter()
            .map(|(cp, _)| cp.id)
            .collect();
        assert_eq!(undelivered, vec![1]);
        l.acknowledge(0, 1).unwrap();
        assert!(!l.has_undelivered(0));
        // Node-failure recovery still gets the full state back.
        assert_eq!(l.drain_all(0).unwrap(), vec![0, 1, 2, 3]);
        let audit = l.audit();
        assert_eq!(audit.pruned, 0);
        assert_eq!(audit.retired, 4);
        assert!(audit.conserved(), "not conserved: {audit:?}");
    }

    #[test]
    fn record_migrated_rides_open_window_without_marker() {
        let mut l = log(2, 3);
        l.record(0, 1).unwrap();
        l.record(0, 2).unwrap();
        // Two entries migrate to dest 1's open window; no marker id may
        // be consumed silently, or its window could never be acked.
        let moved = l.drain_matching(0, |_| true).unwrap();
        for item in moved {
            l.record_migrated(1, item).unwrap();
        }
        assert_eq!(l.unacked_len(1), 2);
        assert!(!l.has_undelivered(1), "window still open");
        // The next real record closes the window (2 migrated + 1 fresh
        // reach the interval) and its marker covers all three.
        let cp = l.record(1, 3).unwrap().expect("window closes");
        assert_eq!(cp.id, 0);
        assert_eq!(applied(l.acknowledge(1, cp.id)), 3);
        assert_eq!(l.unacked_len(1), 0);
        assert!(l.audit().conserved());
    }

    #[test]
    fn force_checkpoint_on_empty_window_is_none() {
        let mut l = log(1, 3);
        assert_eq!(l.force_checkpoint(0).unwrap(), None);
        l.record(0, 1).unwrap();
        let cp = l.force_checkpoint(0).unwrap().unwrap();
        assert_eq!(cp.dest, 0);
        assert_eq!(l.force_checkpoint(0).unwrap(), None);
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use std::sync::Arc;

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
        // Destination 1's node fails: draining it voids its windows and
        // bumps the epoch for the whole log.
        log.record(1, 3).unwrap();
        assert_eq!(log.drain_dest(1).unwrap(), vec![3]);
        assert_eq!(log.epoch(), 1);
        // The ack was issued under epoch 0; after the bump it must not
        // prune anything.
        assert_eq!(log.acknowledge(cp.dest, cp.id, 0), AckOutcome::Stale);
        assert_eq!(log.total_unacked(), 2);
        // A current-epoch ack still works: the window itself survives.
        assert_eq!(log.acknowledge(cp.dest, cp.id, 1), AckOutcome::Accepted(2));
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
            log.record_replayed(1, item).unwrap();
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
                let mut log = RecoveryLog::<u64>::new(1, 3).unwrap();
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
                                match log.acknowledge(0, id).unwrap() {
                                    Ack::Applied { pruned } => accounted += pruned,
                                    Ack::Duplicate => {
                                        return Err(format!("unexpected duplicate ack of {id}"))
                                    }
                                }
                                acked.push(id);
                            }
                        }
                        _ => {
                            accounted += log.drain_all(0).unwrap().len();
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

    /// drain_matching partitions the log: drained ∪ kept equals the
    /// previous contents with order preserved within each side.
    #[test]
    fn drain_matching_partitions() {
        Check::new("drain_matching partitions the log").run_shrink(
            |rng| rng.vec_of(0, 50, |r| r.i64_in(0, 100) as u64),
            |items: &Vec<u64>| shrink_vec(items),
            |items| {
                let mut log = RecoveryLog::<u64>::new(1, 7).unwrap();
                for &i in items {
                    log.record(0, i).unwrap();
                }
                let drained = log.drain_matching(0, |x| x % 3 == 0).unwrap();
                let kept: Vec<u64> = log.iter_unacked(0).copied().collect();
                let expect_drained: Vec<u64> =
                    items.iter().copied().filter(|x| x % 3 == 0).collect();
                let expect_kept: Vec<u64> = items.iter().copied().filter(|x| x % 3 != 0).collect();
                if drained != expect_drained {
                    return Err(format!("drained {drained:?} != {expect_drained:?}"));
                }
                if kept != expect_kept {
                    return Err(format!("kept {kept:?} != {expect_kept:?}"));
                }
                Ok(())
            },
        );
    }
}

/// The shared log against a model whose `acknowledge` is the old
/// definition — filter the destination's entries by checkpoint id — kept
/// here as the oracle for the contiguous-run implementation.
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
        /// An ack stamped before the last window-voiding drain.
        AckStale(u32),
        /// Entries on `from` divisible by `m` move to `to`'s open window
        /// (`drain_matching` + `record_migrated`).
        Migrate(u32, u32, u64),
        /// Entries divisible by `m` leave for good (`drain_matching`).
        Retire(u32, u64),
        DrainDest(u32),
    }

    fn gen_op(r: &mut DetRng) -> Op {
        let d = r.u32_in(0, DESTS);
        let pick = r.next_u64() >> 40;
        match r.u32_in(0, 16) {
            0..=5 => Op::Record(d),
            6 => Op::Force(d),
            7..=8 => Op::AckOldest(d),
            9 => Op::AckAny(d, pick),
            10 => Op::AckAgain(d, pick),
            11 => Op::AckUnemitted(d, pick % 3),
            12 => Op::AckStale(d),
            13 => Op::Migrate(d, r.u32_in(0, DESTS), 2 + pick % 3),
            14 => Op::Retire(d, 2 + pick % 3),
            _ => Op::DrainDest(d),
        }
    }

    #[derive(Default)]
    struct ModelDest {
        /// `(cp, item)`, oldest first.
        entries: Vec<(u64, u64)>,
        next_cp: u64,
        since_last: usize,
        acked: BTreeSet<u64>,
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
            if epoch != self.epoch {
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
                    let want = model.acknowledge(d, 0, model.epoch + 1);
                    check_ack(log.acknowledge(d, 0, model.epoch + 1), want)?;
                }
                Op::Migrate(from, to, m) => {
                    let moved = model.dests[from as usize].take_matching(m);
                    for &item in &moved {
                        model.dests[to as usize].append(item);
                    }
                    let real = log.migrate_matching(from, to, |x| x % m == 0).unwrap();
                    if real != moved.len() {
                        return Err(at(format!("migrated {real}, expected {}", moved.len())));
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
                Op::DrainDest(d) => {
                    let m = &mut model.dests[d as usize];
                    let want: Vec<u64> = m.entries.drain(..).map(|(_, item)| item).collect();
                    m.since_last = 0;
                    if !want.is_empty() {
                        model.audit.retired += want.len() as u64;
                        model.epoch += 1;
                    }
                    let real = log.drain_dest(d).unwrap();
                    if real != want {
                        return Err(at(format!("drained {real:?}, expected {want:?}")));
                    }
                }
            }
            // After every step: same survivors in the same order, the
            // ordering invariant, the same audit, nothing lost.
            let inner = log.inner.lock();
            for (d, m) in model.dests.iter().enumerate() {
                let real: Vec<u64> = inner.log.iter_unacked(d as u32).copied().collect();
                let want: Vec<u64> = m.entries.iter().map(|(_, item)| *item).collect();
                if real != want {
                    return Err(at(format!("dest {d} holds {real:?}, expected {want:?}")));
                }
                if !inner.log.dests[d].cp_ordered() {
                    return Err(at(format!("dest {d} is out of checkpoint order")));
                }
            }
            let plain = inner.log.audit();
            drop(inner);
            model.audit.unacked = model.dests.iter().map(|m| m.entries.len() as u64).sum();
            let audit = log.audit();
            if audit != model.audit || log.epoch() != model.epoch {
                return Err(at(format!("audit {audit:?}, expected {:?}", model.audit)));
            }
            if !audit.conserved() || !plain.conserved() {
                return Err(at(format!("not conserved: {audit:?} / inner {plain:?}")));
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
        let mut log = RecoveryLog::<u64>::new(1, WINDOW).unwrap();
        for i in 0..WINDOWS * WINDOW as u64 {
            log.record(0, i).unwrap();
        }
        let backlog = log.unacked_len(0) as u64;
        // Two searches of at most ⌈log2(backlog)⌉ + 1 probes each.
        let per_ack = WINDOW as u64 + 2 * (u64::from(backlog.ilog2()) + 2);
        // Out of order first: a window in the middle of the backlog.
        assert_eq!(
            log.acknowledge(0, WINDOWS / 2).unwrap(),
            Ack::Applied { pruned: WINDOW }
        );
        assert!(
            log.entries_visited() <= per_ack,
            "{}",
            log.entries_visited()
        );
        for id in (0..WINDOWS).filter(|id| *id != WINDOWS / 2) {
            assert_eq!(
                log.acknowledge(0, id).unwrap(),
                Ack::Applied { pruned: WINDOW }
            );
        }
        assert_eq!(log.unacked_len(0), 0);
        let visited = log.entries_visited();
        assert!(visited <= WINDOWS * per_ack, "visited {visited}");
        // The filter this replaces visited the whole backlog per ack.
        assert!(visited * 100 < WINDOWS * backlog / 2, "visited {visited}");
        assert!(log.audit().conserved());
    }
}
