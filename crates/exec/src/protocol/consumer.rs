//! The consumer half of the protocol: two-level dedup, acked-marker
//! shadowing, held probes and deferred probe acks, end-of-build replay,
//! queued work shelved behind a recall, `Migrate` surrender (exactly the
//! buckets `W′` moves), `Migrated` re-delivery, M1 stride batching and
//! per-source end-of-stream accounting. Results leave in batches of at
//! most the exchange's `buffer_tuples`, as soon as one is pending: a
//! consumer never accumulates its whole output. The block is also the
//! unit of what a consumer tells the monitoring side: the M1 samples and
//! the progress count of one block leave as one hand-over, before the
//! block's modelled cost is paid.
//!
//! The consumer thread that steps it (the same one on both real
//! substrates) owns the inbox, the crash seam, the idle wait and the pay
//! of what [`Consumer::take_due`] hands it; it feeds the consumer
//! messages and implements [`ConsumerOut`] for what comes back out. Work
//! the consumer owes before its next data item — the end-of-build replay
//! in slices of [`REPLAY_SLICE`], then the shelf — runs one
//! [`Consumer::step`] at a time, so a driver can take a control message
//! between steps.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use gridq_common::dist::bucket_for_hash;
use gridq_common::{cast, ChaosHook, StallSite, Tuple};
use gridq_engine::evaluator::{PartitionEvaluator, StreamTag};
use gridq_obs::Counter;
use gridq_recovery::Checkpoint;

use super::dedup::DedupFilter;
use super::{sane_ms, Block, Routed, Staged};
use crate::service::contention_factor;

/// What a consumer emits. Implemented by the coordinator's port (log
/// acknowledged in place, peers a channel send away; called in-process or
/// from a decoded frame), a socket worker's frames to it, and the
/// protocol tests' recording fake.
pub(crate) trait ConsumerOut {
    /// Emits a checkpoint acknowledgement. Returns whether the window's
    /// dedup entries may be evicted now: the threaded consumer sees the
    /// log's verdict (accepted or already acked — no further copy of the
    /// window can be fresh), the socket worker cannot and evicts
    /// optimistically (its connection is FIFO until it ends, and an ack
    /// sent on it arrives).
    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool;
    /// Hands a batch of result tuples downstream: never empty, at most
    /// [`ConsumerSpec::block_tuples`] long.
    fn results(&mut self, batch: Vec<Tuple>);
    /// One hand-over of M1 monitoring samples, in emission order: never
    /// empty, never called with monitoring off. Sampling is per
    /// [`Consumer::m1_stride`] tuples; only the transport is per block.
    fn m1(&mut self, samples: Vec<M1Sample>);
}

/// How many held probes one replay step processes before it is paid.
const REPLAY_SLICE: usize = 16;

/// What one [`Consumer::step`] did.
#[derive(Debug, PartialEq)]
pub(crate) enum Progress {
    /// Nothing is owed: the driver may take its next data item.
    Idle,
    /// One unit of owed work is done; more may follow.
    Busy,
    /// The last stream has ended and everything is done but the pay: the
    /// tail M1 and the last of the progress count are handed over, the
    /// results are all downstream. Returned exactly once.
    Finished,
}

/// Queued data a recall's `Migrate` took off the transport, already past
/// dedup: processed in order, one entry a step, before any later data
/// item.
enum Shelved {
    /// The fresh tuples and every marker of one block, in block order.
    Items {
        source: usize,
        items: Vec<Staged>,
    },
    Eos(StreamTag),
}

/// One stride batch's worth of M1 measurements; the driver stamps it
/// with identity and time.
pub(crate) struct M1Sample {
    /// Mean modelled cost per tuple over the batch. Per-tuple exact
    /// because it reads the model, not the wall clock.
    pub(crate) cost_per_tuple_ms: f64,
    /// Mean *real* milliseconds per tuple spent waiting for input.
    pub(crate) wait_ms_per_tuple: f64,
    pub(crate) selectivity: f64,
    pub(crate) tuples_produced: u64,
}

/// The static description of one consumer — exactly what a socket worker
/// receives in its `CONFIG` frame.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerSpec {
    pub(crate) index: usize,
    pub(crate) resilient: bool,
    pub(crate) logging: bool,
    pub(crate) receive_cost_ms: f64,
    /// The node's perturbation in linear form (`base * factor + extra`).
    pub(crate) cost_factor: f64,
    pub(crate) cost_extra_ms: f64,
    pub(crate) eos_needed: usize,
    pub(crate) build_eos_needed: usize,
    pub(crate) build_source: Option<usize>,
    /// The exchange's `buffer_tuples`: the size of a result batch.
    pub(crate) block_tuples: usize,
}

pub(crate) struct Consumer {
    spec: ConsumerSpec,
    evaluator: Box<dyn PartitionEvaluator>,
    /// Emit an M1 every this many processed tuples; `None` with
    /// monitoring off. The phase carries across blocks.
    pub(crate) m1_stride: Option<u32>,
    /// Consumer-side stall seam (threaded only).
    pub(crate) chaos: Option<Arc<dyn ChaosHook>>,
    /// Service-plane contention: the number of queries sharing this
    /// node, read lock-free per tuple; co-residents inflate the modelled
    /// per-tuple cost by `contention_factor`.
    pub(crate) contention: Option<Arc<AtomicU32>>,
    /// Run-wide processed-tuple count and its metric (threaded only),
    /// advanced once per hand-over.
    pub(crate) progress: Option<(Arc<AtomicU64>, Option<Arc<Counter>>)>,
    out: Vec<Tuple>,
    processed: u64,
    /// How much of `processed` the run-wide count has been told.
    reported: u64,
    /// M1 samples taken since the last hand-over.
    m1_pending: Vec<M1Sample>,
    outputs_total: u64,
    batch: u32,
    batch_cost: f64,
    batch_wait_ms: f64,
    /// Modelled processing cost accrued but not yet spent in real time;
    /// the driver takes it once per block (or control message) instead of
    /// once per tuple, which is where batching wins its throughput back
    /// from the sleep granularity floor.
    due: f64,
    eos_seen: usize,
    build_eos_seen: usize,
    /// Probe tuples that arrived before the build phase completed, with
    /// the source that logged them; replayed once every build source is
    /// done (the iterator model consumes the build input first), or
    /// recalled to their new owner by a retrospective redistribution.
    held_probes: VecDeque<(usize, Tuple)>,
    /// The build phase has ended and `held_probes` are being replayed.
    replaying: bool,
    /// Queued data a `Migrate` kept, awaiting processing.
    shelf: VecDeque<Shelved>,
    /// Probe-window acks deferred while the build phase is incomplete:
    /// an ack is a *processing* receipt here, and held probes are
    /// unprocessed — a crash before the build completes must find their
    /// windows still replayable.
    pending_acks: Vec<(usize, Checkpoint, u64)>,
    /// Resilient-mode dedup: the transport is at-least-once, processing
    /// must be effectively-once.
    dedup: DedupFilter,
    finished: bool,
}

impl Consumer {
    pub(crate) fn new(spec: ConsumerSpec, evaluator: Box<dyn PartitionEvaluator>) -> Self {
        Consumer {
            spec,
            evaluator,
            m1_stride: None,
            chaos: None,
            contention: None,
            progress: None,
            out: Vec::new(),
            processed: 0,
            reported: 0,
            m1_pending: Vec::new(),
            outputs_total: 0,
            batch: 0,
            batch_cost: 0.0,
            batch_wait_ms: 0.0,
            due: 0.0,
            eos_seen: 0,
            build_eos_seen: 0,
            held_probes: VecDeque::new(),
            replaying: false,
            shelf: VecDeque::new(),
            pending_acks: Vec::new(),
            dedup: DedupFilter::new(),
            finished: false,
        }
    }

    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    pub(crate) fn dedup_peak(&self) -> u64 {
        self.dedup.peak()
    }

    /// The most tuples one block carries off the data plane (a result
    /// batch, a surrendered block): the exchange's `buffer_tuples`, at
    /// least one.
    fn block_tuples(&self) -> usize {
        self.spec.block_tuples.max(1)
    }

    /// Hands the pending results downstream in batches of at most a
    /// block: every whole block, and with `all` the partial tail too.
    pub(crate) fn flush_results<O: ConsumerOut>(&mut self, all: bool, out: &mut O) {
        let block = self.block_tuples();
        while self.out.len() >= block || (all && !self.out.is_empty()) {
            let n = block.min(self.out.len());
            out.results(self.out.drain(..n).collect());
        }
    }

    /// The driver spent `ms` real milliseconds waiting for input; feeds
    /// the leaf-wait signal of the next M1.
    pub(crate) fn add_wait(&mut self, ms: f64) {
        self.batch_wait_ms += ms;
    }

    fn building(&self) -> bool {
        self.spec.build_eos_needed > 0 && self.build_eos_seen < self.spec.build_eos_needed
    }

    /// Everything this consumer has to tell another thread about the
    /// tuples processed since the last call, at once: their M1 samples
    /// as one batch, and their count onto the run-wide progress. Runs
    /// wherever cost fell due, ahead of the driver's pay, so neither ever
    /// waits behind a sleep, and when the consumer ends.
    pub(crate) fn hand_over<O: ConsumerOut>(&mut self, out: &mut O) {
        if !self.m1_pending.is_empty() {
            out.m1(std::mem::take(&mut self.m1_pending));
        }
        let fresh = self.processed - self.reported;
        if fresh > 0 {
            if let Some((total, ctr)) = &self.progress {
                total.fetch_add(fresh, Ordering::Relaxed);
                if let Some(c) = ctr {
                    c.add(fresh);
                }
            }
            self.reported = self.processed;
        }
    }

    /// The modelled cost (model milliseconds) accrued since the last
    /// call, for the driver to pay: after each [`Consumer::on_block`],
    /// [`Consumer::on_migrated`] and [`Consumer::step`].
    pub(crate) fn take_due(&mut self) -> f64 {
        std::mem::take(&mut self.due)
    }

    /// Evaluates one tuple, accruing the modelled (and perturbed) cost
    /// into `due`. Shared by the streaming path, the held-probe replay
    /// and migrated re-delivery, so every processed tuple feeds the same
    /// M1 batch.
    fn process_one<O: ConsumerOut>(&mut self, stream: StreamTag, tuple: &Tuple, out: &mut O) {
        let Ok(outcome) = self.evaluator.process(stream, tuple) else {
            return;
        };
        let stall = self
            .chaos
            .as_ref()
            .map_or(0.0, |c| c.stall_ms(StallSite::Consumer, self.spec.index));
        let tenants_factor = self.contention.as_ref().map_or(1.0, |tenants| {
            contention_factor(tenants.load(Ordering::Relaxed))
        });
        let model_cost = (outcome.base_cost_ms * self.spec.cost_factor
            + self.spec.cost_extra_ms
            + self.spec.receive_cost_ms
            + sane_ms(stall))
            * tenants_factor;
        self.due += model_cost;
        self.processed += 1;
        self.outputs_total += outcome.outputs.len() as u64;
        self.out.extend(outcome.outputs);
        self.flush_results(false, out);
        if self.m1_stride.is_some() {
            self.batch += 1;
            self.batch_cost += model_cost;
            self.emit_m1(false);
        }
    }

    /// Takes the M1 sample of the current batch, for the next hand-over.
    /// `force` closes a partial tail batch (end of stream); without it
    /// the last `processed % stride` tuples would vanish from the
    /// monitoring record.
    fn emit_m1(&mut self, force: bool) {
        let Some(stride) = self.m1_stride else { return };
        if self.batch == 0 || (!force && self.batch < stride) {
            return;
        }
        let n = f64::from(self.batch);
        self.m1_pending.push(M1Sample {
            cost_per_tuple_ms: self.batch_cost / n,
            wait_ms_per_tuple: self.batch_wait_ms / n,
            selectivity: if self.processed == 0 {
                1.0
            } else {
                cast::ratio(self.outputs_total, self.processed)
            },
            tuples_produced: self.outputs_total,
        });
        self.batch = 0;
        self.batch_cost = 0.0;
        self.batch_wait_ms = 0.0;
    }

    /// Emits one checkpoint ack. In resilient mode the pending outputs
    /// are handed downstream *first*: once a window is acknowledged its
    /// outputs are owned downstream, so a later crash of this consumer
    /// can never lose them (replay covers exactly the unacknowledged
    /// windows).
    fn ack_window<O: ConsumerOut>(
        &mut self,
        source: usize,
        cp: Checkpoint,
        epoch: u64,
        out: &mut O,
    ) {
        if !self.spec.logging {
            return;
        }
        if self.spec.resilient {
            self.flush_results(true, out);
        }
        if out.ack(source, cp, epoch) && self.spec.resilient {
            self.dedup.window_acked(source, cp.id);
        }
    }

    /// Holds a probe that arrived during the build phase, or processes
    /// the tuple.
    fn hold_or_process<O: ConsumerOut>(
        &mut self,
        stream: StreamTag,
        source: usize,
        tuple: Tuple,
        out: &mut O,
    ) {
        if stream == StreamTag::Probe && self.building() {
            self.held_probes.push_back((source, tuple));
        } else {
            self.process_one(stream, &tuple, out);
        }
    }

    /// Consumes one tuple block: admits it past dedup and processes it,
    /// its modelled cost due as one sleep instead of one per tuple.
    pub(crate) fn on_block<O: ConsumerOut>(&mut self, block: Block, out: &mut O) {
        let source = block.source;
        let defer = self.defers_acks(source);
        self.admit(block, out, |c, item, out| c.take(source, defer, item, out));
        self.hand_over(out);
    }

    /// Admits one queued block to the shelf without processing it: the
    /// same dedup as [`Consumer::on_block`], so a duplicate is dropped
    /// here and not surrendered to another owner.
    pub(crate) fn shelve_block<O: ConsumerOut>(&mut self, block: Block, out: &mut O) {
        let source = block.source;
        let mut items = Vec::with_capacity(block.items.len());
        self.admit(block, out, |_, item, _| items.push(item));
        self.shelf.push_back(Shelved::Items { source, items });
    }

    /// Shelves a queued end-of-stream behind the blocks it trails.
    pub(crate) fn shelve_eos(&mut self, stream: StreamTag) {
        self.shelf.push_back(Shelved::Eos(stream));
    }

    /// Resilient-mode dedup, at two granularities: a whole-block range
    /// hit skips every tuple in one set probe (markers still apply —
    /// acks are idempotent), and the per-tuple `seen` filter catches
    /// redelivery that is not block-identical (a tuple a recall or a
    /// failover already re-delivered). Hands `keep` the fresh tuples and
    /// every marker, in block order, each marker once it has closed its
    /// dedup window.
    fn admit<O: ConsumerOut>(
        &mut self,
        block: Block,
        out: &mut O,
        mut keep: impl FnMut(&mut Self, Staged, &mut O),
    ) {
        let source = block.source;
        let resilient = self.spec.resilient;
        let dup = resilient
            && block
                .range_key()
                .is_some_and(|key| self.dedup.block_is_dup(source, key));
        // The covering marker for each tuple is the next one at a higher
        // index in the block: a window always travels with its marker,
        // so an already-acked marker id shadows every tuple ahead of it
        // even after their per-tuple keys were evicted.
        let marker_ids: Vec<(usize, u64)> = block
            .items
            .iter()
            .enumerate()
            .filter_map(|(idx, item)| match item {
                Staged::Marker(cp, _) => Some((idx, cp.id)),
                Staged::Tuple(..) => None,
            })
            .collect();
        let mut next_marker = 0usize;
        for (idx, staged) in block.items.into_iter().enumerate() {
            while next_marker < marker_ids.len() && marker_ids[next_marker].0 < idx {
                next_marker += 1;
            }
            match staged {
                Staged::Tuple(stream, tuple) => {
                    if dup {
                        continue;
                    }
                    if resilient
                        && (marker_ids
                            .get(next_marker)
                            .is_some_and(|&(_, id)| self.dedup.is_acked(source, id))
                            || self.dedup.tuple_is_dup(source, tuple.seq()))
                    {
                        continue;
                    }
                    keep(self, Staged::Tuple(stream, tuple), out);
                }
                Staged::Marker(cp, epoch) => {
                    debug_assert_eq!(cp.dest as usize, self.spec.index);
                    // The window closes at the *marker*, not the ack:
                    // entries delivered since the last marker are now
                    // covered by this id and will be evicted when its
                    // ack lands.
                    if resilient {
                        self.dedup.close_window(source, cp.id);
                    }
                    keep(self, Staged::Marker(cp, epoch), out);
                }
            }
        }
    }

    /// Whether `source`'s window acks wait for the build to end: in
    /// resilient mode an ack is a processing receipt, and a probe window's
    /// tuples may be held.
    fn defers_acks(&self, source: usize) -> bool {
        self.spec.resilient && self.building() && Some(source) != self.spec.build_source
    }

    /// Processes one admitted item: a tuple is held or processed, a
    /// marker acks its window — the tuples ahead of it are processed —
    /// or, with `defer`, waits for the build to end.
    fn take<O: ConsumerOut>(&mut self, source: usize, defer: bool, item: Staged, out: &mut O) {
        match item {
            Staged::Tuple(stream, tuple) => self.hold_or_process(stream, source, tuple, out),
            Staged::Marker(cp, epoch) if defer => self.pending_acks.push((source, cp, epoch)),
            Staged::Marker(cp, epoch) => self.ack_window(source, cp, epoch, out),
        }
    }

    /// One source's stream has ended (every block that source shipped
    /// is processed or shelved ahead of it). Completing the build phase
    /// starts the replay of the held probes; the steps that follow run
    /// it and, once the last stream has ended, finish.
    pub(crate) fn end_stream(&mut self, stream: StreamTag) {
        self.eos_seen += 1;
        if stream == StreamTag::Build {
            self.build_eos_seen += 1;
            let build_needed = self.spec.build_eos_needed;
            self.replaying |= build_needed > 0 && self.build_eos_seen == build_needed;
        }
    }

    /// One unit of the work owed before the next data item, in order:
    /// a replay slice of at most [`REPLAY_SLICE`] held probes (replaying
    /// a large backlog takes real time, so its cost falls due, and its M1
    /// samples are handed over, a slice at a time), then one shelved
    /// entry, then — the last stream ended — finishing.
    pub(crate) fn step<O: ConsumerOut>(&mut self, out: &mut O) -> Progress {
        if self.replaying {
            if !self.held_probes.is_empty() {
                for _ in 0..REPLAY_SLICE {
                    let Some((_, tuple)) = self.held_probes.pop_front() else {
                        break;
                    };
                    self.process_one(StreamTag::Probe, &tuple, out);
                }
                self.hand_over(out);
                return Progress::Busy;
            }
            self.replaying = false;
            // The held probes are processed (or were surrendered): their
            // deferred window acks are now true processing receipts, so
            // release them.
            for (source, cp, epoch) in std::mem::take(&mut self.pending_acks) {
                self.ack_window(source, cp, epoch, out);
            }
        }
        if let Some(entry) = self.shelf.pop_front() {
            match entry {
                Shelved::Items { source, items } => {
                    let defer = self.defers_acks(source);
                    for item in items {
                        self.take(source, defer, item, out);
                    }
                    self.hand_over(out);
                }
                Shelved::Eos(stream) => self.end_stream(stream),
            }
            return Progress::Busy;
        }
        if self.eos_seen != self.spec.eos_needed || self.finished {
            return Progress::Idle;
        }
        self.finished = true;
        // Close the partial tail batch before the monitoring record goes
        // quiet; the last hand-over takes it.
        self.emit_m1(true);
        self.flush_results(true, out);
        self.hand_over(out);
        Progress::Finished
    }

    /// Answers a recall's `Migrate`: gives up exactly what `W′` moves —
    /// the operator state of the `outgoing` buckets, and the held probes
    /// and shelved tuples whose bucket is one of them — in blocks of at
    /// most [`ConsumerSpec::block_tuples`], state (extracted, then
    /// shelved build tuples) ahead of probes. Everything else stays, in
    /// order: the held probes held, and the shelf with every marker,
    /// which acks its window once the kept tuples ahead of it are
    /// processed. A tuple nothing can place (no bucket map under weighted
    /// routing) is surrendered too, and comes back as `Migrated`
    /// re-delivery if it still belongs here.
    pub(crate) fn surrender(
        &mut self,
        bucket_count: Option<u32>,
        outgoing: &[u32],
    ) -> Vec<Vec<Routed>> {
        let mut state: Vec<Routed> = Vec::new();
        let mut probes: Vec<Routed> = Vec::new();
        if let (Some(bc), false) = (bucket_count, outgoing.is_empty()) {
            let b = self.spec.build_source.unwrap_or(0);
            for (stream, tuple) in self.evaluator.extract_state(bc, outgoing) {
                state.push((stream, b, tuple));
            }
        }
        let goes = |stream: StreamTag, tuple: &Tuple| {
            let hash = self.evaluator.key_hash(stream, tuple);
            let bucket = bucket_count.zip(hash).map(|(bc, h)| bucket_for_hash(h, bc));
            bucket.is_none_or(|b| outgoing.contains(&b))
        };
        let mut held = VecDeque::new();
        for (source, tuple) in std::mem::take(&mut self.held_probes) {
            if goes(StreamTag::Probe, &tuple) {
                probes.push((StreamTag::Probe, source, tuple));
            } else {
                held.push_back((source, tuple));
            }
        }
        let mut shelf = VecDeque::new();
        for entry in std::mem::take(&mut self.shelf) {
            let Shelved::Items { source, items } = entry else {
                shelf.push_back(entry);
                continue;
            };
            let mut kept = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Staged::Tuple(stream, tuple) if goes(stream, &tuple) => {
                        let to = if stream == StreamTag::Build {
                            &mut state
                        } else {
                            &mut probes
                        };
                        to.push((stream, source, tuple));
                    }
                    other => kept.push(other),
                }
            }
            if !kept.is_empty() {
                shelf.push_back(Shelved::Items {
                    source,
                    items: kept,
                });
            }
        }
        self.held_probes = held;
        self.shelf = shelf;
        let block_tuples = self.block_tuples();
        let mut entries = state.into_iter().chain(probes).peekable();
        let mut blocks: Vec<Vec<Routed>> = Vec::new();
        while entries.peek().is_some() {
            blocks.push(entries.by_ref().take(block_tuples).collect());
        }
        blocks
    }

    /// A block of tuples re-delivered by the recall protocol (migrated
    /// operator state, recalled held probes, a failover replay). Recorded but always processed: bucket ping-pong
    /// legitimately re-delivers a seq, and the recall barrier already
    /// guarantees exactly-once for this path. The modelled cost falls due
    /// once for the block, like a data block's.
    pub(crate) fn on_migrated<O: ConsumerOut>(&mut self, block: Vec<Routed>, out: &mut O) {
        for (stream, source, tuple) in block {
            if self.spec.resilient {
                self.dedup.note_delivered(source, tuple.seq());
            }
            self.hold_or_process(stream, source, tuple, out);
        }
        self.hand_over(out);
    }
}
