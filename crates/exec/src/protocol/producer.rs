//! The producer half of the protocol: route → stage → log → marker →
//! window/size flush, post-recall restage, end-of-scan forced
//! checkpoints, and the end of the stream.
//!
//! The driver owns the scan loop, the recall gate's `pause_point` and
//! every wait; it tells the producer what epoch it woke under
//! ([`Producer::observe_epoch`]) and asks [`Producer::finish`] again until
//! the stream has ended. A block the sink withholds ([`Shipped::Withheld`]:
//! a recall wants this producer parked while the destination's ring is
//! full) goes back to the front of its buffer, where the restage after the
//! recall re-routes it like any unsent tuple.
//!
//! A resilient producer ends its stream on evidence, not on a timer: once
//! every window to each destination is acknowledged, or the destination
//! is dead. Nothing is ever retransmitted — every channel is FIFO until
//! it dies, and a death is reported. End-of-stream therefore trails the
//! receipt of every logged entry, so a late failover replay still lands
//! before its consumer completes.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gridq_common::{NetAction, StallSite, Tuple};
use gridq_engine::evaluator::StreamTag;
use gridq_obs::Counter;
use gridq_recovery::{DeliveryGap, LogMoves};

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
    /// A dead destination's windows are the failover replay's to drain:
    /// the producer waits for it. Without failover a dead destination is
    /// written off as a [`DeliveryGap`] as soon as its death is reported.
    pub(crate) failover: bool,
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

pub(crate) struct Producer {
    spec: ProducerSpec,
    x: Exchange,
    /// The threaded executor's `exec.tuples_routed` metric.
    pub(crate) routed_ctr: Option<Arc<Counter>>,
    buffers: Vec<Vec<Staged>>,
    /// Modelled scan milliseconds owed but not yet spent; paid in one
    /// batch at the next flush.
    due: f64,
    /// The recall epoch the buffers were staged under.
    epoch: u64,
    /// Destinations written off as a [`DeliveryGap`].
    gapped: Vec<bool>,
}

impl Producer {
    pub(crate) fn new(spec: ProducerSpec, exchange: Exchange, epoch: u64) -> Self {
        Producer {
            buffers: (0..spec.dests).map(|_| Vec::new()).collect(),
            due: 0.0,
            epoch,
            gapped: vec![false; spec.dests],
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
        // marker) always travels in one block and a chaos duplicate
        // repeats it atomically.
        let full = if self.x.resilient {
            window_closed
        } else {
            self.buffers[dest].len() >= self.spec.buffer_tuples
        };
        if full {
            self.flush(dest, sink);
        }
        routed
    }

    /// Ships `dest`'s staged block. Pays the modelled scan time
    /// accumulated in `due` first, in a single sleep: batching the
    /// per-row sleeps at block boundaries is what lifts the data plane
    /// above the OS timer granularity. Returns `false` when the sink
    /// withheld the block, which is back in the buffer.
    fn flush<S: BlockSink>(&mut self, dest: usize, sink: &mut S) -> bool {
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
        };
        let fate = self
            .x
            .chaos
            .as_ref()
            .map_or(NetAction::Deliver, |c| c.on_data(self.spec.source, dest));
        if let NetAction::DelayMs(extra) = fate {
            sink.pay(sane_ms(extra));
        }
        let tuples = block.tuples();
        // At-least-once transport: a duplicated block is absorbed by the
        // consumer's block-range dedup.
        let failed = match sink.ship(dest, block, fate == NetAction::Duplicate) {
            Shipped::Sent(failed) => failed,
            Shipped::Withheld(block) => {
                let staged_since = std::mem::replace(&mut self.buffers[dest], block.items);
                self.buffers[dest].extend(staged_since);
                return false;
            }
        };
        if failed > 0 {
            // The consumer is gone. Count the loss *now*, whether or not
            // a failover follows.
            self.x
                .tallies
                .send_failures
                .fetch_add((failed * tuples) as u64, Ordering::Relaxed);
        }
        true
    }

    /// Closes the open window on `dest`, if there is one, staging its
    /// marker.
    fn force_checkpoint(&mut self, dest: usize) {
        let Some(log) = self.x.log(self.spec.source) else {
            return;
        };
        if let Ok(Some(cp)) = log.force_checkpoint(dest as u32) {
            self.buffers[dest].push(Staged::Marker(cp, log.epoch()));
        }
    }

    /// The scan is over (and any recall in flight has completed — the
    /// driver passed a pause point and reported the epoch): closes the
    /// open windows, flushes, and ends the stream once nothing is left to
    /// wait for. Returns `false`, with no stream ended, when the driver
    /// must wait and ask again: a block was withheld (the driver parks,
    /// reports the epoch and calls again — a restage may have moved
    /// tuples to any destination), or, in a resilient run, a live
    /// destination still owes an ack.
    ///
    /// A resilient producer calls this until every destination is
    /// acknowledged or dead, so each call also closes and flushes the
    /// windows a recall or a failover re-recorded into since the last
    /// one. A dead destination is written off as a [`DeliveryGap`] at
    /// once without failover, and with failover once every destination
    /// is dead (nothing is left to replay onto); otherwise the failover
    /// replay drains its windows.
    pub(crate) fn finish<S: BlockSink>(&mut self, sink: &mut S) -> bool {
        let resilient = self.x.resilient;
        let dead: Vec<bool> = (0..self.spec.dests)
            .map(|d| resilient && self.x.tallies.is_dead(d))
            .collect();
        let unreplayed = !self.spec.failover || dead.iter().all(|&d| d);
        let mut waiting = false;
        for (dest, dead) in dead.into_iter().enumerate() {
            if dead && unreplayed && !self.gapped[dest] {
                self.write_off(dest);
            }
            if self.gapped[dest] {
                continue;
            }
            // Resilient runs checkpoint build streams too: the markers
            // are delivery receipts, and retained build logs keep the
            // entries replayable regardless.
            if self.spec.stream != StreamTag::Build || resilient {
                self.force_checkpoint(dest);
            }
            waiting |= !self.flush(dest, sink);
            waiting |= resilient
                && self
                    .x
                    .log(self.spec.source)
                    .is_some_and(|log| log.has_undelivered(dest as u32));
        }
        if waiting {
            return false;
        }
        for dest in 0..self.spec.dests {
            sink.eos(dest, self.spec.stream);
        }
        true
    }

    /// Writes off a dead destination nothing will replay: its staged
    /// items go, its open window closes, and its unacknowledged windows
    /// become an explicit [`DeliveryGap`].
    fn write_off(&mut self, dest: usize) {
        self.gapped[dest] = true;
        self.buffers[dest].clear();
        let Some(log) = self.x.log(self.spec.source) else {
            return;
        };
        let _ = log.force_checkpoint(dest as u32);
        let (windows, tuples) = log.undelivered(dest as u32);
        if windows == 0 {
            return;
        }
        self.x.tallies.gaps.lock().push(DeliveryGap {
            source: self.spec.source,
            dest,
            windows,
            tuples,
        });
    }
}
