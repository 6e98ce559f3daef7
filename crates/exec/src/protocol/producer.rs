//! The producer half of the protocol: route → stage → log → marker →
//! window/size flush, post-recall restage, end-of-scan forced
//! checkpoints, and the delivery-retry epilogue as a step function.
//!
//! The driver owns the scan loop, the recall gate's `pause_point` and
//! every sleep; it tells the producer what epoch it woke under
//! ([`Producer::observe_epoch`]) and sleeps out what
//! [`Producer::retry_step`] asks for. A block the sink withholds
//! ([`Shipped::Withheld`]: a recall wants this producer parked while the
//! destination's ring is full) goes back to the front of its buffer,
//! where the restage after the recall re-routes it like any unsent
//! tuple.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gridq_common::{NetAction, StallSite, Tuple};
use gridq_engine::evaluator::StreamTag;
use gridq_obs::Counter;
use gridq_recovery::{DeliveryGap, LogMoves, RetryBackoff, RetryPolicy};

use super::{sane_ms, Block, Exchange, Staged};

/// Where a producer's blocks go. Implemented by the run skeleton's
/// `ProducerSink` (one SPSC ring of [`Block`]s per worker endpoint, on
/// both real substrates) and by the protocol tests' recording fake.
pub(crate) trait BlockSink {
    /// Spends accrued modelled cost (model milliseconds).
    fn pay(&mut self, model_ms: f64);
    /// Ships one block to `dest` — twice when `duplicate` (chaos).
    fn ship(&mut self, dest: usize, block: Block, duplicate: bool) -> Shipped;
    /// This source's stream has ended for `dest`; ordered behind every
    /// block shipped to it.
    fn eos(&mut self, dest: usize, stream: StreamTag);
}

/// The static description of one producer.
pub(crate) struct ProducerSpec {
    /// Index into `DistributedPlan::sources`.
    pub(crate) source: usize,
    pub(crate) stream: StreamTag,
    pub(crate) scan_cost_ms: f64,
    pub(crate) buffer_tuples: usize,
    /// Number of destinations (stage partitions).
    pub(crate) dests: usize,
    /// Record a gap for a destination whose ring closed straight away
    /// instead of sleeping out the backoff budget against it. Off when
    /// failover is enabled: there the budget is what keeps the producer
    /// alive until the dead worker's exit notice reaches the coordinator
    /// and it replays the dead partition's log onto the survivors.
    pub(crate) fast_gap: bool,
    pub(crate) retry: RetryPolicy,
}

/// What became of a block handed to [`BlockSink::ship`].
pub(crate) enum Shipped {
    /// Pushed; this many of the pushes failed because the destination is
    /// gone.
    Sent(usize),
    /// Not pushed: the destination's ring was full and a recall asked
    /// this producer to pause. The block comes back whole.
    Withheld(Block),
}

/// What the driver does next in the delivery-retry epilogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RetryStep {
    /// Sleep this many real milliseconds — in short slices with a
    /// `pause_point` in each, so a concurrent recall can still park this
    /// producer — then step again.
    Wait(f64),
    /// Every window is acknowledged or written off as a gap, and the
    /// end-of-stream markers are out.
    Done,
}

pub(crate) struct Producer {
    spec: ProducerSpec,
    x: Exchange,
    /// The threaded executor's `exec.tuples_routed` metric.
    pub(crate) routed_ctr: Option<Arc<Counter>>,
    buffers: Vec<Vec<Staged>>,
    /// Destinations whose ring rejected a block.
    disconnected: Vec<bool>,
    /// Destinations whose buffer holds a withheld retransmission: the
    /// next block to them is flagged `retransmit` too.
    withheld_retransmit: Vec<bool>,
    /// Modelled scan milliseconds owed but not yet spent; paid in one
    /// batch at the next flush.
    due: f64,
    /// The recall epoch the buffers were staged under.
    epoch: u64,
    backoff: RetryBackoff,
    gapped: Vec<bool>,
    attempt: u32,
    /// The driver is sleeping out `attempt`'s backoff.
    waiting: bool,
}

impl Producer {
    pub(crate) fn new(spec: ProducerSpec, exchange: Exchange, epoch: u64) -> Self {
        Producer {
            buffers: (0..spec.dests).map(|_| Vec::new()).collect(),
            disconnected: vec![false; spec.dests],
            withheld_retransmit: vec![false; spec.dests],
            due: 0.0,
            epoch,
            backoff: RetryBackoff::new(&spec.retry, spec.source as u64),
            gapped: vec![false; spec.dests],
            attempt: 0,
            waiting: false,
            routed_ctr: None,
            x: exchange,
            spec,
        }
    }

    /// Tells the producer which recall epoch it is running under (the
    /// gate's answer at a pause point). On a change the unsent staged
    /// tuples are re-routed under the new distribution and the epoch is
    /// stored, so one recall causes exactly one restage. Returns whether
    /// the epoch changed.
    pub(crate) fn observe_epoch(&mut self, now_epoch: u64) -> bool {
        if now_epoch == self.epoch {
            return false;
        }
        self.epoch = now_epoch;
        let moved = self.restage();
        self.x.tallies.restaged.fetch_add(moved, Ordering::Relaxed);
        true
    }

    /// After a recall, unsent staged tuples are re-routed under the new
    /// distribution (their log entries follow); markers stay with their
    /// original destination so the windows they close remain intact.
    fn restage(&mut self) -> u64 {
        let mut moved = 0u64;
        let mut log_moves = LogMoves::default();
        let taken: Vec<Vec<Staged>> = self.buffers.iter_mut().map(std::mem::take).collect();
        for (old_dest, items) in taken.into_iter().enumerate() {
            for item in items {
                match item {
                    Staged::Tuple(tag, tuple) => {
                        let dest = self
                            .x
                            .router
                            .lock()
                            .route(tag, &tuple)
                            .unwrap_or(old_dest as u32) as usize;
                        if dest != old_dest {
                            moved += 1;
                            log_moves.note(self.spec.source, old_dest, Some(dest), tuple.seq());
                        }
                        self.buffers[dest].push(Staged::Tuple(tag, tuple));
                    }
                    marker => self.buffers[old_dest].push(marker),
                }
            }
        }
        self.x.settle(log_moves);
        moved
    }

    /// Routes, stages and logs one scanned row, flushing its
    /// destination's buffer when a window closes (resilient) or the
    /// buffer fills. Returns the run-wide routed-tuple count this row
    /// brought up (each count is returned to exactly one producer).
    pub(crate) fn stage<S: BlockSink>(&mut self, row: &Tuple, sink: &mut S) -> u64 {
        let stall = self
            .x
            .chaos
            .as_ref()
            .map_or(0.0, |c| c.stall_ms(StallSite::Producer, self.spec.source));
        self.due += self.spec.scan_cost_ms + sane_ms(stall);
        let stream = self.spec.stream;
        let dest = self.x.router.lock().route(stream, row).unwrap_or(0) as usize;
        self.buffers[dest].push(Staged::Tuple(stream, row.clone()));
        let mut window_closed = false;
        if let Some(log) = self.x.log(self.spec.source) {
            if let Ok(Some(cp)) = log.record(dest as u32, (stream, row.clone())) {
                self.buffers[dest].push(Staged::Marker(cp, log.epoch()));
                window_closed = true;
            }
        }
        let routed = self.x.tallies.routed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(c) = &self.routed_ctr {
            c.add(1);
        }
        // Resilient runs flush at window boundaries only: the interval
        // is clamped to the buffer size, so a whole window (tuples plus
        // marker) always travels in one block and a chaos drop or
        // duplicate hits it atomically.
        let full = if self.x.resilient {
            window_closed
        } else {
            self.buffers[dest].len() >= self.spec.buffer_tuples
        };
        if full {
            self.flush(dest, false, sink);
        }
        routed
    }

    /// Ships `dest`'s staged block. Pays the modelled scan time
    /// accumulated in `due` first, in a single sleep: batching the
    /// per-row sleeps at block boundaries is what lifts the data plane
    /// above the OS timer granularity. Returns `false` when the sink
    /// withheld the block, which is back in the buffer.
    fn flush<S: BlockSink>(&mut self, dest: usize, retransmit: bool, sink: &mut S) -> bool {
        if self.due > 0.0 {
            sink.pay(self.due);
            self.due = 0.0;
        }
        let items = std::mem::take(&mut self.buffers[dest]);
        if items.is_empty() {
            return true;
        }
        let block = Block {
            source: self.spec.source,
            items,
            retransmit: retransmit || std::mem::take(&mut self.withheld_retransmit[dest]),
        };
        let fate = self
            .x
            .chaos
            .as_ref()
            .map_or(NetAction::Deliver, |c| c.on_data(self.spec.source, dest));
        match fate {
            // The whole block vanishes — tuples and the markers that
            // would acknowledge them, together. In resilient mode the
            // windows' acks never arrive, so the retry epilogue
            // retransmits them from the recovery log.
            NetAction::Drop => return true,
            NetAction::DelayMs(extra) => sink.pay(sane_ms(extra)),
            NetAction::Deliver | NetAction::Duplicate => {}
        }
        let tuples = block.tuples();
        // At-least-once transport: a duplicated block is absorbed by the
        // consumer's block-range dedup.
        let failed = match sink.ship(dest, block, fate == NetAction::Duplicate) {
            Shipped::Sent(failed) => failed,
            Shipped::Withheld(block) => {
                self.withheld_retransmit[dest] |= block.retransmit;
                let staged_since = std::mem::replace(&mut self.buffers[dest], block.items);
                self.buffers[dest].extend(staged_since);
                return false;
            }
        };
        if failed > 0 {
            // The consumer is gone. Count the loss *now*, whether or not
            // a failover follows.
            self.disconnected[dest] = true;
            self.x
                .tallies
                .send_failures
                .fetch_add((failed * tuples) as u64, Ordering::Relaxed);
        }
        true
    }

    /// Flushes every destination (after a restage during the retry
    /// epilogue, when nothing else would push the re-routed tuples out).
    pub(crate) fn flush_all<S: BlockSink>(&mut self, sink: &mut S) {
        for dest in 0..self.spec.dests {
            self.flush(dest, false, sink);
        }
    }

    /// Closes the open window on `dest`, staging its marker. Returns
    /// whether there was one.
    fn force_checkpoint(&mut self, dest: usize) -> bool {
        let Some(log) = self.x.log(self.spec.source) else {
            return false;
        };
        let Ok(Some(cp)) = log.force_checkpoint(dest as u32) else {
            return false;
        };
        self.buffers[dest].push(Staged::Marker(cp, log.epoch()));
        true
    }

    /// The scan is over (and any recall in flight has completed — the
    /// driver passed a pause point and reported the epoch): close the
    /// open windows, flush, and — unless the retry epilogue still has to
    /// run — end the stream. Returns `false`, with no stream ended, when
    /// a block was withheld: the driver parks, reports the epoch and
    /// calls again (a restage may have moved tuples to any destination).
    pub(crate) fn finish_scan<S: BlockSink>(&mut self, sink: &mut S) -> bool {
        let mut shipped = true;
        for dest in 0..self.spec.dests {
            // Resilient runs checkpoint build streams too: the markers
            // are delivery receipts, and retained build logs keep the
            // entries replayable regardless.
            if self.spec.stream != StreamTag::Build || self.x.resilient {
                self.force_checkpoint(dest);
            }
            shipped &= self.flush(dest, false, sink);
        }
        if shipped && !self.x.resilient {
            for dest in 0..self.spec.dests {
                sink.eos(dest, self.spec.stream);
            }
        }
        shipped
    }

    /// Records `dest`'s closed-but-unacknowledged windows as an explicit
    /// delivery gap.
    fn record_gap(&self, dest: usize) {
        let Some(log) = self.x.log(self.spec.source) else {
            return;
        };
        let windows = log.undelivered_windows(dest as u32);
        if windows.is_empty() {
            return;
        }
        self.x.tallies.gaps.lock().push(DeliveryGap {
            source: self.spec.source,
            dest,
            windows: windows.len() as u64,
            tuples: windows.iter().map(|(_, w)| w.len() as u64).sum(),
        });
    }

    /// One step of the delivery-retry epilogue (resilient runs): wait
    /// out a deterministic jittered backoff for in-flight acks,
    /// retransmit any window still unacknowledged, and repeat within the
    /// retry budget. A destination that never acks becomes an explicit
    /// [`DeliveryGap`] — the query completes with a loud record of what
    /// is missing instead of hanging. Only then does end-of-stream go
    /// out, so consumers cannot exit while redelivery is still possible.
    /// Non-resilient runs are `Done` at once. Not to be stepped again
    /// after `Done`.
    pub(crate) fn retry_step<S: BlockSink>(&mut self, sink: &mut S) -> RetryStep {
        let logging = self.x.log(self.spec.source).is_some();
        while self.x.resilient && logging && self.attempt <= self.spec.retry.max_retries {
            if !self.waiting {
                if self.spec.fast_gap && self.write_off_closed_rings() {
                    break;
                }
                self.waiting = true;
                return RetryStep::Wait(self.backoff.delay_ms(self.attempt));
            }
            self.waiting = false;
            if !self.retransmit_unacked(sink) {
                break;
            }
            self.attempt += 1;
        }
        if self.x.resilient {
            for dest in 0..self.spec.dests {
                sink.eos(dest, self.spec.stream);
            }
        }
        RetryStep::Done
    }

    /// A destination whose ring closed can never ack again: record its
    /// gap immediately. Returns whether nothing is pending at any live
    /// destination, i.e. the remaining backoff can be skipped outright.
    fn write_off_closed_rings(&mut self) -> bool {
        for dest in 0..self.spec.dests {
            if !self.disconnected[dest] || self.gapped[dest] {
                continue;
            }
            self.gapped[dest] = true;
            self.buffers[dest].clear();
            if let Some(log) = self.x.log(self.spec.source) {
                let _ = log.force_checkpoint(dest as u32);
            }
            self.record_gap(dest);
        }
        (0..self.spec.dests).all(|d| {
            self.gapped[d]
                || self
                    .x
                    .log(self.spec.source)
                    .is_none_or(|log| !log.has_undelivered(d as u32))
        })
    }

    /// The post-backoff half of an attempt. Closes any window the run
    /// left open since the final scan flush (recalls and failover replay
    /// append to open windows) and pushes its marker out with whatever
    /// the buffer holds — one block, so marker delivery still implies
    /// content delivery — then retransmits every unacknowledged window,
    /// or writes it off once the budget is spent. Returns whether
    /// anything was still undelivered.
    fn retransmit_unacked<S: BlockSink>(&mut self, sink: &mut S) -> bool {
        for dest in 0..self.spec.dests {
            // What a withheld flush left in the buffer goes out here too.
            if !self.gapped[dest] {
                self.force_checkpoint(dest);
                self.flush(dest, false, sink);
            }
        }
        let Some(logs) = self.x.logs.clone() else {
            return false;
        };
        let log = &logs[self.spec.source];
        let mut undelivered_any = false;
        for dest in 0..self.spec.dests {
            if self.gapped[dest] {
                continue;
            }
            let windows = log.undelivered_windows(dest as u32);
            if windows.is_empty() {
                continue;
            }
            undelivered_any = true;
            if self.attempt == self.spec.retry.max_retries {
                self.record_gap(dest);
                continue;
            }
            let epoch_now = log.epoch();
            for (cp, items) in windows {
                self.x
                    .tallies
                    .retransmitted
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                for (tag, t) in items {
                    self.buffers[dest].push(Staged::Tuple(tag, t));
                }
                self.buffers[dest].push(Staged::Marker(cp, epoch_now));
                self.flush(dest, true, sink);
            }
        }
        undelivered_any
    }
}
