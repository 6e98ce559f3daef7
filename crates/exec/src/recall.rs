//! The real-thread half of the recall protocol: the gate producers park
//! behind, and the transport the adaptation thread hands to the protocol
//! core's coordinator (`protocol/coordinator.rs`, which owns the pause →
//! drain → swap → migrate → resume sequence itself).
//!
//! The simulator realises R1 by editing its virtual-time event queue; on
//! real threads the pause is [`RecallGate::begin_pause`] — every
//! producer parks at its next [`RecallGate::pause_point`] (between
//! tuples, just before its final flush, or in each slice of its wait for
//! acknowledgements)
//! — and the resume bumps the gate epoch, which the producers notice and
//! answer by restaging their unsent buffers. A producer waiting on a
//! full ring does not wait the slow consumer out: the pause request
//! unparks it, the push gives way ([`RecallGate::pause_requested`]) and
//! its block goes back to the producer's buffer, to be restaged with the
//! rest.
//!
//! Nothing here reads a clock: every producer parks, gives way, finishes
//! or unwinds through [`ProducerGuard`], and every worker a barrier
//! addresses answers it or dies, its death being its answer. A worker
//! alive but silent forever is outside the fault model (DESIGN §11).
//!
//! The gate uses a plain `std` mutex/condvar pair (not the workspace's
//! poison-recovering wrapper) because the coordinator must keep working
//! even if a producer panics while parked; every acquisition recovers
//! from poisoning explicitly.

use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};

use crate::protocol::coordinator::{MigrateCmd, RecallReply, RecallTransport};
use crate::protocol::Routed;

#[derive(Debug)]
struct GateState {
    /// Coordinator wants producers parked.
    pause_requested: bool,
    /// Bumped once per completed recall; producers restage their unsent
    /// buffers when they wake under a new epoch.
    epoch: u64,
    /// Producers that have not finished their stream (or panicked).
    active: usize,
    /// Producers currently parked at a pause point.
    parked: usize,
    /// Every producer thread that registered ([`ProducerGuard::new`]):
    /// a pause request unparks them, so one waiting on a full ring gives
    /// way at once.
    threads: Vec<Thread>,
}

/// The barrier producers and the recall coordinator synchronise on.
#[derive(Debug)]
pub(crate) struct RecallGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl RecallGate {
    pub(crate) fn new(active_producers: usize) -> Self {
        RecallGate {
            state: Mutex::new(GateState {
                pause_requested: false,
                epoch: 0,
                active: active_producers,
                parked: 0,
                threads: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        // A panicked producer poisons the mutex; the state itself stays
        // consistent (every mutation is a single field write), so recover.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Producer side: parks while a pause is requested, then returns the
    /// current epoch. Called between tuples and immediately before the
    /// final flush, so a producer can neither send nor finish while a
    /// recall is in flight.
    pub(crate) fn pause_point(&self) -> u64 {
        let mut s = self.lock();
        while s.pause_requested {
            s.parked += 1;
            self.cv.notify_all();
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            s.parked -= 1;
        }
        s.epoch
    }

    /// Producer side: whether a pause is requested — the test a push
    /// waiting on a full ring makes before it parks again.
    pub(crate) fn pause_requested(&self) -> bool {
        self.lock().pause_requested
    }

    /// Producer side: the stream is finished (or the thread is
    /// unwinding). Idempotence is the caller's responsibility — use
    /// [`ProducerGuard`] so unwinds are counted too.
    pub(crate) fn producer_done(&self) {
        let mut s = self.lock();
        s.active = s.active.saturating_sub(1);
        self.cv.notify_all();
    }

    /// Coordinator side: requests a pause and waits until every active
    /// producer is parked. Returns the number of parked producers — zero
    /// once every producer has finished.
    pub(crate) fn begin_pause(&self) -> usize {
        let mut s = self.lock();
        s.pause_requested = true;
        self.cv.notify_all();
        for t in &s.threads {
            t.unpark();
        }
        while s.parked < s.active {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.parked
    }

    /// Coordinator side: abandons a pause without changing the epoch.
    pub(crate) fn abort_pause(&self) {
        let mut s = self.lock();
        s.pause_requested = false;
        self.cv.notify_all();
    }

    /// Coordinator side: completes a recall — installs the new epoch and
    /// releases the parked producers.
    pub(crate) fn resume(&self, new_epoch: u64) {
        let mut s = self.lock();
        s.epoch = new_epoch;
        s.pause_requested = false;
        self.cv.notify_all();
    }

    /// The current redistribution epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }
}

/// Registers the calling producer thread with the gate, and decrements
/// the gate's active-producer count when dropped, so a producer that
/// panics mid-stream cannot leave the coordinator waiting on a barrier
/// that can never fill.
pub(crate) struct ProducerGuard {
    gate: Arc<RecallGate>,
}

impl ProducerGuard {
    pub(crate) fn new(gate: Arc<RecallGate>) -> Self {
        gate.lock().threads.push(thread::current());
        ProducerGuard { gate }
    }
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        self.gate.producer_done();
    }
}

/// How the coordinator reaches its workers during a recall: a message on
/// each endpoint's control plane, or a test's recording fake.
pub(crate) trait WorkerCommands {
    /// Sends the drain barrier, ordered behind every block staged for
    /// `worker`.
    fn drain(&mut self, worker: usize, token: u64);
    /// Sends `worker` its `Migrate` command.
    fn migrate(&mut self, worker: usize, cmd: MigrateCmd);
    /// Re-delivers a block of tuples to `dest` outside the data plane.
    fn redeliver(&mut self, dest: usize, block: Vec<Routed>);
}

/// The coordinator's transport on real threads: the gate, the reply
/// channel, and the way of commanding workers.
pub(crate) struct GateTransport<W> {
    pub(crate) gate: Arc<RecallGate>,
    pub(crate) replies: Receiver<RecallReply>,
    pub(crate) workers: W,
}

impl<W: WorkerCommands> RecallTransport for GateTransport<W> {
    fn pause(&mut self) {
        self.gate.begin_pause();
    }

    fn abort_pause(&mut self) {
        self.gate.abort_pause();
    }

    fn epoch(&self) -> u64 {
        self.gate.epoch()
    }

    fn resume(&mut self, epoch: u64) {
        self.gate.resume(epoch);
    }

    fn drain(&mut self, worker: usize, token: u64) {
        self.workers.drain(worker, token);
    }

    fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
        self.workers.migrate(worker, cmd);
    }

    fn redeliver(&mut self, dest: usize, block: Vec<Routed>) {
        self.workers.redeliver(dest, block);
    }

    fn next_reply(&mut self) -> Option<RecallReply> {
        self.replies.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn pause_parks_all_active_producers_and_resume_bumps_epoch() {
        let gate = Arc::new(RecallGate::new(2));
        let mut workers = Vec::new();
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            workers.push(thread::spawn(move || {
                let _guard = ProducerGuard::new(Arc::clone(&gate));
                let mut last_epoch = gate.pause_point();
                // Spin through pause points until the epoch moves.
                let deadline = Instant::now() + Duration::from_secs(10);
                while last_epoch == 0 && Instant::now() < deadline {
                    last_epoch = gate.pause_point();
                }
                last_epoch
            }));
        }
        assert_eq!(gate.begin_pause(), 2, "both producers park");
        gate.resume(1);
        for w in workers {
            assert_eq!(w.join().unwrap(), 1, "producers observe the new epoch");
        }
        assert_eq!(gate.epoch(), 1);
    }

    #[test]
    fn finished_producers_do_not_block_the_barrier() {
        let gate = Arc::new(RecallGate::new(2));
        // One producer finishes immediately.
        gate.producer_done();
        let gate2 = Arc::clone(&gate);
        let worker = thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut epoch = gate2.pause_point();
            while epoch == 0 && Instant::now() < deadline {
                epoch = gate2.pause_point();
            }
            gate2.producer_done();
            epoch
        });
        assert_eq!(gate.begin_pause(), 1, "only the live producer parks");
        gate.resume(7);
        assert_eq!(worker.join().unwrap(), 7);
    }

    #[test]
    fn abort_reopens_the_gate_without_an_epoch_change() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let gate = Arc::new(RecallGate::new(1));
        let released = Arc::new(AtomicBool::new(false));
        let (gate2, released2) = (Arc::clone(&gate), Arc::clone(&released));
        let worker = thread::spawn(move || {
            // Keep hitting pause points until the coordinator is done.
            while !released2.load(Ordering::Acquire) {
                gate2.pause_point();
            }
            gate2.producer_done();
        });
        // Wait for the producer to park, then abort instead of resuming.
        assert_eq!(gate.begin_pause(), 1);
        gate.abort_pause();
        released.store(true, Ordering::Release);
        worker.join().unwrap();
        assert_eq!(gate.epoch(), 0, "epoch unchanged after abort");
    }

    /// Forced spurious wakeups: notifying the condvar without changing
    /// the predicate is, to a waiter, exactly a spurious wakeup. A
    /// parked producer must re-check `pause_requested` and re-park every
    /// time, keeping the externally observable parked count stable (the
    /// decrement/re-increment in `pause_point` happens inside one
    /// critical section).
    #[test]
    fn spurious_wakeups_do_not_release_a_parked_producer() {
        let gate = Arc::new(RecallGate::new(1));
        let gate2 = Arc::clone(&gate);
        let worker = thread::spawn(move || {
            let _guard = ProducerGuard::new(Arc::clone(&gate2));
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut epoch = gate2.pause_point();
            while epoch == 0 && Instant::now() < deadline {
                epoch = gate2.pause_point();
            }
            epoch
        });
        assert_eq!(gate.begin_pause(), 1);
        for _ in 0..1_000 {
            gate.cv.notify_all();
            let s = gate.lock();
            assert!(s.pause_requested, "hammering must not withdraw the pause");
            assert_eq!(s.parked, 1, "a spuriously woken producer re-parks");
        }
        gate.resume(3);
        assert_eq!(worker.join().unwrap(), 3, "the real resume still lands");
    }

    /// The coordinator's barrier wait must also survive spurious
    /// wakeups: a chaos thread hammers the condvar while two producers
    /// park only after a delay, and `begin_pause` must neither return
    /// early nor miscount.
    #[test]
    fn coordinator_barrier_tolerates_spurious_wakeups() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let gate = Arc::new(RecallGate::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let (gate_chaos, stop_chaos) = (Arc::clone(&gate), Arc::clone(&stop));
        let chaos = thread::spawn(move || {
            while !stop_chaos.load(Ordering::Acquire) {
                gate_chaos.cv.notify_all();
                thread::yield_now();
            }
        });
        let mut workers = Vec::new();
        for i in 0..2 {
            let gate = Arc::clone(&gate);
            workers.push(thread::spawn(move || {
                let _guard = ProducerGuard::new(Arc::clone(&gate));
                // Stagger arrivals so the barrier waits through plenty
                // of spurious notifications before it can fill.
                thread::sleep(Duration::from_millis(20 * (i + 1)));
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut epoch = gate.pause_point();
                while epoch == 0 && Instant::now() < deadline {
                    epoch = gate.pause_point();
                }
                epoch
            }));
        }
        let parked = gate.begin_pause();
        assert_eq!(parked, 2, "barrier must fill exactly, never early");
        gate.resume(1);
        stop.store(true, Ordering::Release);
        chaos.join().unwrap();
        for w in workers {
            assert_eq!(w.join().unwrap(), 1);
        }
    }

    #[test]
    fn guard_counts_a_panicking_producer_as_done() {
        let gate = Arc::new(RecallGate::new(1));
        let gate2 = Arc::clone(&gate);
        let worker = thread::spawn(move || {
            let _guard = ProducerGuard::new(gate2);
            panic!("producer crashed");
        });
        assert!(worker.join().is_err());
        // The barrier fills trivially: no active producers remain.
        assert_eq!(gate.begin_pause(), 0);
        gate.abort_pause();
    }
}
