//! The event queue driving the simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gridq_adapt::{Accepted, Notice};
use gridq_common::SimTime;

/// A scheduled simulation event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A source is ready to produce its next tuple, or — its scan over —
    /// to look again whether it may end its stream.
    SourceStep {
        /// Source index.
        source: usize,
    },
    /// A buffer of items lands in a consumer's incoming queue. The
    /// payload lives in the simulation's buffer slab so that in-flight
    /// buffers can be rerouted by retrospective adaptations.
    BufferArrive {
        /// Buffer slab id.
        buffer: u64,
    },
    /// A consumer is ready to process the next queued item.
    ConsumerStep {
        /// Partition index in the stage.
        consumer: u32,
    },
    /// An acknowledgement returns to a producer.
    AckArrive {
        /// Source index the ack is addressed to.
        source: usize,
        /// Destination partition whose checkpoint is acknowledged.
        dest: u32,
        /// Checkpoint id.
        cp: u64,
        /// Producer epoch the checkpoint belongs to.
        epoch: u64,
    },
    /// A detector notification reaches the Diagnoser.
    Notice {
        /// The notification in flight.
        notice: Notice,
    },
    /// An accepted adaptation reaches the producers.
    ApplyAdaptation {
        /// The proposal to deploy.
        accepted: Accepted,
    },
    /// A buffer of result tuples reaches the collector.
    CollectArrive {
        /// Result-buffer slab id.
        buffer: u64,
    },
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event (ties
        // broken by insertion order) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5.0), Event::SourceStep { source: 1 });
        q.schedule(SimTime::from_millis(1.0), Event::SourceStep { source: 2 });
        q.schedule(SimTime::from_millis(3.0), Event::SourceStep { source: 3 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::SourceStep { source } => source,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1.0);
        for i in 0..5 {
            q.schedule(t, Event::ConsumerStep { consumer: i });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::ConsumerStep { consumer } => consumer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, Event::SourceStep { source: 0 });
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
    }
}
