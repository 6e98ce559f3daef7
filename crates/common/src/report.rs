//! The plain facts a run report carries that more than one crate
//! produces: recovery-log audits and delivery gaps (written by
//! `gridq-recovery`'s log and the producers' end of stream) and the control
//! loop's counts (kept by `gridq-adapt`'s `ControlLoop`). They live here,
//! below both, so that `gridq_obs::RunReport` can hold them.

/// A point-in-time conservation audit of a recovery log.
///
/// Every recorded entry must be accounted for exactly once: pruned by an
/// acknowledgement, retired, or still in the log. A move neither records
/// nor retires; a drain retires and the re-record after it records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogAudit {
    /// Entries recorded (including entries re-recorded after a drain).
    pub recorded: u64,
    /// Entries pruned by acknowledgements.
    pub pruned: u64,
    /// Entries retired by a recall or drained by failure recovery (the
    /// migration or replay traffic itself carries the exactly-once
    /// guarantee for them).
    pub retired: u64,
    /// Entries still held in the log (for a retained build log this
    /// includes delivered entries, kept replayable by design).
    pub unacked: u64,
    /// Acknowledgements accepted.
    pub acks_accepted: u64,
    /// Duplicate acknowledgements absorbed (a duplicated block's or
    /// ack's second copy; never part of the conservation equation, and 0
    /// in a run without faults: each window is acknowledged once).
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
/// wrote off because their destination died and no failover will replay
/// them. The query still completes; the gap is the explicit, queryable
/// record of what is missing.
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

/// What one query's control loop counted: each count is the number of
/// one kind of loop record, kept whether or not a timeline keeps the
/// records. Drivers copy these and never count them again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopCounts {
    /// `RawM1` records.
    pub raw_m1: u64,
    /// `RawM2` records.
    pub raw_m2: u64,
    /// `DetectorNotify` records: notifications that reached the Diagnoser.
    pub notifications: u64,
    /// `Diagnosis` records.
    pub diagnoses: u64,
    /// Responder decisions declined near completion.
    pub declined_near_completion: u64,
    /// Responder decisions declined during the cooldown.
    pub declined_cooldown: u64,
    /// `Deploy` records.
    pub deploys: u64,
    /// `NodeDown` records: one per dead partition.
    pub node_downs: u64,
    /// `Failover` records.
    pub failovers: u64,
    /// Recovery-log entries those failovers replayed.
    pub replayed: u64,
}
