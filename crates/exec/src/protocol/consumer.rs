//! The consumer half of the protocol: two-level dedup, acked-marker
//! shadowing, held probes and deferred probe acks, end-of-build replay,
//! `Migrate` surrender (exactly the buckets `W′` moves), `Migrated`
//! re-delivery, M1 stride batching and per-source end-of-stream
//! accounting. Results leave in batches of at most the exchange's
//! `buffer_tuples`, as soon as one is pending: a consumer never
//! accumulates its whole output. The block is also the unit of what a
//! consumer tells the monitoring side: the M1 samples and the progress
//! count of one block leave as one hand-over, before the block's
//! modelled cost is paid.
//!
//! The driver owns the transport (an inbox over rings and a control
//! channel, or one FIFO link), the crash seam and the idle wait; it feeds
//! the consumer messages and implements [`ConsumerOut`] for what comes
//! back out.

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

/// What a consumer emits. Implemented by the threaded executor (log
/// acknowledged in place, peers a channel send away), the socket worker
/// (everything is a frame to the coordinator) and the protocol tests'
/// recording fake.
pub(crate) trait ConsumerOut {
    /// Spends accrued modelled cost (model milliseconds).
    fn pay(&mut self, model_ms: f64);
    /// Emits a checkpoint acknowledgement. Returns whether the window's
    /// dedup entries may be evicted now: the threaded consumer sees the
    /// log's verdict (accepted or already acked — the window can never
    /// be retransmitted again), the socket worker cannot and evicts
    /// optimistically (if the ack is lost the window retransmits and the
    /// already-acked marker id shadows its tuples; the filter converges
    /// either way).
    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool;
    /// Hands a batch of result tuples downstream: never empty, at most
    /// [`ConsumerSpec::block_tuples`] long.
    fn results(&mut self, batch: Vec<Tuple>);
    /// A fresh tuple from a retransmitted block under hash routing: its
    /// bucket may have moved since the window closed. Returns the tuple
    /// back when this consumer still owns it; `None` once it has been
    /// forwarded toward the current owner (directly, or via the
    /// coordinator when this consumer has no router).
    fn stray(&mut self, stream: StreamTag, source: usize, tuple: Tuple) -> Option<Tuple>;
    /// One hand-over of M1 monitoring samples, in emission order: never
    /// empty, never called with monitoring off. Sampling is per
    /// [`Consumer::m1_stride`] tuples; only the transport is per block.
    fn m1(&mut self, samples: Vec<M1Sample>);
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
    pub(crate) hash_routing: bool,
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
    /// paid once per block (or control message) instead of once per
    /// tuple, which is where batching wins its throughput back from the
    /// sleep granularity floor.
    due: f64,
    eos_seen: usize,
    build_eos_seen: usize,
    /// Probe tuples that arrived before the build phase completed, with
    /// the source that logged them; replayed once every build source is
    /// done (the iterator model consumes the build input first), or
    /// recalled to their new owner by a retrospective redistribution.
    held_probes: Vec<(usize, Tuple)>,
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
            held_probes: Vec::new(),
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
    /// before every pay, so neither ever waits behind a sleep, and when
    /// the consumer ends.
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

    fn pay_due<O: ConsumerOut>(&mut self, out: &mut O) {
        self.hand_over(out);
        if self.due > 0.0 {
            out.pay(self.due);
            self.due = 0.0;
        }
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
            self.held_probes.push((source, tuple));
        } else {
            self.process_one(stream, &tuple, out);
        }
    }

    /// Consumes one tuple block. Resilient-mode dedup runs at two
    /// granularities: a whole-block range hit skips every tuple in one
    /// set probe (markers still apply — acks are idempotent, and the
    /// duplicate may be the only copy whose ack survives the chaos
    /// plan), and the per-tuple `seen` filter catches redelivery that is
    /// not block-identical (a window retransmitted into a
    /// differently-packed block).
    pub(crate) fn on_block<O: ConsumerOut>(&mut self, block: Block, out: &mut O) {
        let source = block.source;
        let resilient = self.spec.resilient;
        let dup = resilient
            && block
                .range_key()
                .is_some_and(|key| self.dedup.block_is_dup(source, key));
        let check_owner = block.retransmit && self.spec.hash_routing;
        let building = self.building();
        // The covering marker for each tuple is the next one at a higher
        // index in the block: retransmissions always repack a window's
        // tuples with its marker, so an already-acked marker id shadows
        // every tuple ahead of it even after their per-tuple keys were
        // evicted.
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
                    let tuple = if check_owner {
                        match out.stray(stream, source, tuple) {
                            Some(t) => t,
                            None => continue,
                        }
                    } else {
                        tuple
                    };
                    self.hold_or_process(stream, source, tuple, out);
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
                    if resilient && building && Some(source) != self.spec.build_source {
                        self.pending_acks.push((source, cp, epoch));
                    } else {
                        self.ack_window(source, cp, epoch, out);
                    }
                }
            }
        }
        // Pay the block's accumulated modelled cost as one sleep instead
        // of one per tuple.
        self.pay_due(out);
    }

    /// One source's stream has ended (the driver has already fed every
    /// block that source shipped). Completing the build phase replays
    /// the held probes and releases their deferred acks. Returns `true`
    /// exactly once, when the last stream ends: the tail M1 and the last
    /// of the progress count are handed over, the results are all
    /// downstream, the debt is paid, and the driver should report
    /// completion.
    pub(crate) fn on_eos<O: ConsumerOut>(&mut self, stream: StreamTag, out: &mut O) -> bool {
        self.eos_seen += 1;
        if stream == StreamTag::Build {
            self.build_eos_seen += 1;
        }
        let build_needed = self.spec.build_eos_needed;
        if build_needed > 0 && self.build_eos_seen == build_needed {
            for (n, (_, tuple)) in std::mem::take(&mut self.held_probes)
                .into_iter()
                .enumerate()
            {
                // Replaying a large backlog takes real time: pay the
                // accrued cost, and hand over its M1 samples, in slices
                // of 16 tuples rather than once at the end.
                if n % 16 == 0 {
                    self.pay_due(out);
                }
                self.process_one(StreamTag::Probe, &tuple, out);
            }
            self.pay_due(out);
            // The held probes are processed: their deferred window acks
            // are now true processing receipts, so release them.
            for (source, cp, epoch) in std::mem::take(&mut self.pending_acks) {
                self.ack_window(source, cp, epoch, out);
            }
        }
        if self.eos_seen != self.spec.eos_needed || self.finished {
            return false;
        }
        self.finished = true;
        // Close the partial tail batch before the monitoring record goes
        // quiet; the last pay hands it over.
        self.emit_m1(true);
        self.flush_results(true, out);
        self.pay_due(out);
        true
    }

    /// Answers a recall's `Migrate`: gives up exactly what `W′` moves —
    /// the operator state of the `outgoing` buckets and the held probes
    /// whose bucket is one of them — in blocks of at most
    /// [`ConsumerSpec::block_tuples`], state ahead of probes. The other
    /// held probes stay held, in order. A probe nothing can place (no
    /// bucket map under weighted routing) is surrendered too, and comes
    /// back as `Migrated` re-delivery if it still belongs here.
    pub(crate) fn surrender(
        &mut self,
        bucket_count: Option<u32>,
        outgoing: &[u32],
    ) -> Vec<Vec<Routed>> {
        let block_tuples = self.block_tuples();
        let mut blocks: Vec<Vec<Routed>> = Vec::new();
        let mut give = |entry: Routed| match blocks.last_mut() {
            Some(block) if block.len() < block_tuples => block.push(entry),
            _ => blocks.push(vec![entry]),
        };
        if let (Some(bc), false) = (bucket_count, outgoing.is_empty()) {
            let b = self.spec.build_source.unwrap_or(0);
            for (stream, tuple) in self.evaluator.extract_state(bc, outgoing) {
                give((stream, b, tuple));
            }
        }
        for (source, tuple) in std::mem::take(&mut self.held_probes) {
            let hash = self.evaluator.key_hash(StreamTag::Probe, &tuple);
            let bucket = bucket_count.zip(hash).map(|(bc, h)| bucket_for_hash(h, bc));
            if bucket.is_some_and(|b| !outgoing.contains(&b)) {
                self.held_probes.push((source, tuple));
            } else {
                give((StreamTag::Probe, source, tuple));
            }
        }
        blocks
    }

    /// A block of tuples re-delivered by the recall protocol (migrated
    /// operator state, recalled held probes, a forwarded stray, a
    /// failover replay). Recorded but always processed: bucket ping-pong
    /// legitimately re-delivers a seq, and the recall barrier already
    /// guarantees exactly-once for this path. The modelled cost is paid
    /// once for the block, like a data block's.
    pub(crate) fn on_migrated<O: ConsumerOut>(&mut self, block: Vec<Routed>, out: &mut O) {
        for (stream, source, tuple) in block {
            if self.spec.resilient {
                self.dedup.note_delivered(source, tuple.seq());
            }
            self.hold_or_process(stream, source, tuple, out);
        }
        self.pay_due(out);
    }
}
