//! A bounded single-producer/single-consumer ring for the hot data
//! plane.
//!
//! `std::sync::mpsc` allocates a node per send and takes an internal
//! lock on both ends; at tuple-block rates that is the dominant cost of
//! the threaded exchange. This ring is the in-tree replacement for the
//! one hot edge shape the executor has — exactly one producer thread
//! pushing to exactly one consumer thread — built only on `std`
//! atomics and `thread::park`:
//!
//! - a fixed slot array with free-running head/tail counters (Lamport
//!   queue), each counter on its own cache line so the producer's
//!   stores never invalidate the consumer's line and vice versa;
//! - acquire/release pairs ordering the data writes: the producer
//!   publishes a slot with a `Release` store of `tail`, the consumer
//!   reads `tail` with `Acquire` before touching the slot (and
//!   symmetrically for `head` when the producer reclaims space);
//! - park/unpark backpressure: a producer that finds the ring full
//!   registers its thread handle and parks; every `pop` wakes it. The
//!   registration slots use the workspace's poison-recovering
//!   [`crate::sync::Mutex`], keeping the `std-sync` lint invariant.
//!
//! Capacity is a hard bound: the ring never allocates after
//! construction, so a slow consumer stalls its producer instead of
//! growing a queue without limit (`push` is the eviction-free
//! counterpart of the `pop` the consumer must keep calling). Dropping
//! the [`RingReceiver`] closes the ring: a parked producer wakes and
//! every later `push` fails fast, returning the rejected value so the
//! caller can account for the loss instead of silently dropping it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::sync::Mutex;

/// Pads a counter to its own cache line so producer and consumer
/// updates do not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Safety-net park slice: the register → re-check → park protocol
/// prevents lost wakeups on its own, so this bound only matters if a
/// counterpart thread dies without running its drop glue.
const PARK_SLICE: Duration = Duration::from_millis(10);

struct Shared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push; written only by the producer.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Producer thread parked on a full ring, woken by `pop`/close.
    producer_parked: Mutex<Option<Thread>>,
    /// Consumer thread parked on an empty ring, woken by `push`/close.
    consumer_parked: Mutex<Option<Thread>>,
}

// The raw slot array is only ever written by the single producer and
// read by the single consumer, with the head/tail acquire/release
// pairs ordering every access; the type erases that protocol, so the
// bounds are asserted here.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drain whatever was pushed but never
        // popped.
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        let cap = self.slots.len();
        let mut i = head;
        while i != tail {
            // Safety: slots in [head, tail) were initialised by `push`
            // and never popped; this is the only remaining reference.
            unsafe { (*self.slots[i % cap].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

fn wake(slot: &Mutex<Option<Thread>>) {
    if let Some(t) = slot.lock().take() {
        t.unpark();
    }
}

/// Creates a bounded SPSC ring with room for `capacity` items.
/// `capacity` is clamped to at least 1.
pub fn ring<T: Send>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let capacity = capacity.max(1);
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        producer_parked: Mutex::new(None),
        consumer_parked: Mutex::new(None),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
        },
        RingReceiver { shared },
    )
}

/// The producing half of a ring; exactly one thread may use it.
pub struct RingSender<T: Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> RingSender<T> {
    /// Pushes `value`, parking while the ring is full. Returns
    /// `Err(value)` once the receiver has been dropped — the value
    /// comes back so the caller can count or log the failed delivery.
    pub fn push(&self, value: T) -> std::result::Result<(), T> {
        let shared = &*self.shared;
        let cap = shared.slots.len();
        let tail = shared.tail.0.load(Ordering::Relaxed);
        loop {
            if shared.consumer_closed.load(Ordering::Acquire) {
                return Err(value);
            }
            let head = shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(head) < cap {
                // Safety: the slot at `tail` is outside [head, tail),
                // so the consumer cannot touch it until the Release
                // store below publishes it.
                unsafe { (*shared.slots[tail % cap].get()).write(value) };
                shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
                wake(&shared.consumer_parked);
                return Ok(());
            }
            // Full: register, re-check (a pop between the loads above
            // and the registration must not be missed), then park.
            *shared.producer_parked.lock() = Some(thread::current());
            let head = shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(head) < cap || shared.consumer_closed.load(Ordering::Acquire) {
                shared.producer_parked.lock().take();
                continue;
            }
            thread::park_timeout(PARK_SLICE);
            shared.producer_parked.lock().take();
        }
    }

    /// Pushes without blocking; `Err(value)` when the ring is full or
    /// the receiver is gone.
    pub fn try_push(&self, value: T) -> std::result::Result<(), T> {
        let shared = &*self.shared;
        let cap = shared.slots.len();
        if shared.consumer_closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= cap {
            return Err(value);
        }
        // Safety: as in `push`, the slot is unpublished until the
        // Release store.
        unsafe { (*shared.slots[tail % cap].get()).write(value) };
        shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        wake(&shared.consumer_parked);
        Ok(())
    }

    /// True once the receiving half has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.consumer_closed.load(Ordering::Acquire)
    }
}

impl<T: Send> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.producer_closed.store(true, Ordering::Release);
        wake(&self.shared.consumer_parked);
    }
}

/// The consuming half of a ring; exactly one thread may use it.
pub struct RingReceiver<T: Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> RingReceiver<T> {
    /// Pops the oldest item without blocking.
    pub fn pop(&self) -> Option<T> {
        let shared = &*self.shared;
        let cap = shared.slots.len();
        let head = shared.head.0.load(Ordering::Relaxed);
        let tail = shared.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // Safety: the Acquire load of `tail` ordered this slot's write
        // before the read, and the producer will not reuse it until the
        // Release store of `head` below.
        let value = unsafe { (*shared.slots[head % cap].get()).assume_init_read() };
        shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        wake(&shared.producer_parked);
        Some(value)
    }

    /// Pops, parking up to `timeout` while the ring is empty. Returns
    /// `None` on timeout or when the ring is closed and drained.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            if self.shared.producer_closed.load(Ordering::Acquire) {
                // Closed, but a final push may have raced the flag:
                // one more pop settles it.
                return self.pop();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            *self.shared.consumer_parked.lock() = Some(thread::current());
            if !self.is_empty() || self.shared.producer_closed.load(Ordering::Acquire) {
                self.shared.consumer_parked.lock().take();
                continue;
            }
            thread::park_timeout((deadline - now).min(PARK_SLICE));
            self.shared.consumer_parked.lock().take();
        }
    }

    /// True when no item is currently queued.
    pub fn is_empty(&self) -> bool {
        let shared = &*self.shared;
        shared.head.0.load(Ordering::Relaxed) == shared.tail.0.load(Ordering::Acquire)
    }

    /// True once the sending half has been dropped (items may still be
    /// queued; drain with [`RingReceiver::pop`]).
    pub fn is_closed(&self) -> bool {
        self.shared.producer_closed.load(Ordering::Acquire)
    }
}

impl<T: Send> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.consumer_closed.store(true, Ordering::Release);
        wake(&self.shared.producer_parked);
    }
}

/// The wakeup slot of an [`Inbox`]'s control plane: the inbox thread
/// registers itself before parking, every [`InboxSender::send`] calls
/// [`Waker::wake`] after publishing. (The data plane needs no slot of
/// its own — [`RingSender::push`] already unparks whoever is registered
/// on its ring.) `unpark`'s saved token covers the window between
/// registration and the park itself.
#[derive(Default)]
struct Waker {
    slot: Mutex<Option<Thread>>,
}

impl Waker {
    /// Registers the calling thread as the one to wake.
    fn register(&self) {
        *self.slot.lock() = Some(thread::current());
    }

    /// Clears the registration (call after waking from the park).
    fn clear(&self) {
        self.slot.lock().take();
    }

    /// Unparks the registered thread, if any.
    fn wake(&self) {
        wake(&self.slot);
    }
}

/// What [`Inbox::next`] found.
#[derive(Debug, PartialEq)]
pub enum Wake<C, D> {
    /// The oldest pending control message.
    Control(C),
    /// The oldest item of one of the rings.
    Data(D),
    /// Nothing arrived; the thread was parked this long.
    Idle(Duration),
    /// Every control sender and every ring sender is gone and
    /// everything they sent has been delivered. Terminal: every later
    /// call returns it again.
    Closed,
}

/// The sending half of an [`Inbox`]'s control plane. Cloneable; every
/// send wakes the inbox thread out of its idle park, and so does every
/// drop (the last one closes the plane, which a parked inbox must see).
pub struct InboxSender<C> {
    // Declared, hence dropped, before `waker`: the wake must follow the
    // disconnect it announces.
    tx: Sender<C>,
    waker: WakeOnDrop,
}

struct WakeOnDrop(Arc<Waker>);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl<C> Clone for InboxSender<C> {
    fn clone(&self) -> Self {
        InboxSender {
            tx: self.tx.clone(),
            waker: WakeOnDrop(Arc::clone(&self.waker.0)),
        }
    }
}

impl<C> InboxSender<C> {
    /// Sends a control message and wakes the inbox thread. Returns
    /// whether the inbox still exists.
    pub fn send(&self, msg: C) -> bool {
        let ok = self.tx.send(msg).is_ok();
        self.waker.0.wake();
        ok
    }
}

/// One thread's multiplexed input: `S` SPSC data rings and one mpsc
/// control channel, which carry no ordering between them. The inbox
/// re-establishes the single-FIFO guarantees its users need:
///
/// - **Control first, and before every data item.** [`Inbox::next`]
///   returns data only when no control message is pending, and it looks
///   at the rings *before* it polls the control channel — so a control
///   message sent before an item was pushed is always delivered before
///   that item (a recall's `Migrated` re-delivery precedes the blocks
///   the resumed producers push after it).
/// - **Barriers drain.** The inverse direction — an item pushed before a
///   control message was sent — is the receiver's to order: on a barrier
///   message it calls [`Inbox::pop_data`] until the rings are dry, then
///   acts.
/// - **No lost wakeup.** Going idle is register → re-poll both planes →
///   park: a push or send that lands after the re-poll finds the
///   registration and unparks; one that landed before it is seen by it.
pub struct Inbox<C, D: Send> {
    ctrl: Receiver<C>,
    rings: Vec<RingReceiver<D>>,
    waker: Arc<Waker>,
    /// The ring being served. The inbox stays on a ring until it is dry
    /// and only then moves on, so streams are consumed in source order
    /// as far as the producers allow — a join's build input ahead of the
    /// probes that could only be held until it ends.
    cursor: usize,
    ctrl_gone: bool,
    /// Runs between the idle re-poll and the park.
    #[cfg(test)]
    before_park: Option<Box<dyn FnMut()>>,
}

/// Creates an inbox over `rings` and the sender of its control plane.
pub fn inbox<C, D: Send>(rings: Vec<RingReceiver<D>>) -> (InboxSender<C>, Inbox<C, D>) {
    let (tx, ctrl) = channel();
    let waker = Arc::new(Waker::default());
    let sender = InboxSender {
        tx,
        waker: WakeOnDrop(Arc::clone(&waker)),
    };
    let inbox = Inbox {
        ctrl,
        rings,
        waker,
        cursor: 0,
        ctrl_gone: false,
        #[cfg(test)]
        before_park: None,
    };
    (sender, inbox)
}

impl<C, D: Send> Inbox<C, D> {
    /// The next control message or data item, parking up to `park` when
    /// neither plane has anything.
    pub fn next(&mut self, park: Duration) -> Wake<C, D> {
        if let Some(found) = self.poll() {
            return found;
        }
        self.waker.register();
        for ring in &self.rings {
            *ring.shared.consumer_parked.lock() = Some(thread::current());
        }
        let found = self.poll();
        let parked = Instant::now();
        if found.is_none() {
            #[cfg(test)]
            if let Some(hook) = &mut self.before_park {
                hook();
            }
            thread::park_timeout(park);
        }
        self.waker.clear();
        for ring in &self.rings {
            ring.shared.consumer_parked.lock().take();
        }
        found.unwrap_or_else(|| Wake::Idle(parked.elapsed()))
    }

    /// Pops one queued data item without consulting the control plane:
    /// the drain a barrier message performs before acting.
    pub fn pop_data(&mut self) -> Option<D> {
        let ring = self.first_ready()?;
        self.pop_ring(ring)
    }

    /// The first non-empty ring at or after the cursor.
    fn first_ready(&self) -> Option<usize> {
        let n = self.rings.len();
        (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&i| !self.rings[i].is_empty())
    }

    fn pop_ring(&mut self, ring: usize) -> Option<D> {
        let item = self.rings[ring].pop()?;
        self.cursor = ring;
        Some(item)
    }

    fn poll(&mut self) -> Option<Wake<C, D>> {
        // Ring before control: the item seen at the front of `ready` now
        // was pushed before any control message this poll does not see,
        // and only that ring is popped afterwards.
        let ready = self.first_ready();
        if !self.ctrl_gone {
            match self.ctrl.try_recv() {
                Ok(msg) => return Some(Wake::Control(msg)),
                Err(TryRecvError::Disconnected) => self.ctrl_gone = true,
                Err(TryRecvError::Empty) => {}
            }
        }
        if let Some(ring) = ready {
            return self.pop_ring(ring).map(Wake::Data);
        }
        // `is_closed` before `is_empty`: a sender's last push precedes
        // its drop.
        let closed = self.ctrl_gone && self.rings.iter().all(|r| r.is_closed() && r.is_empty());
        closed.then_some(Wake::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{shrink_vec, Check, Gen};
    use crate::DetRng;

    #[test]
    fn fifo_round_trip() {
        let (tx, rx) = ring::<u32>(4);
        assert!(rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn try_push_reports_full() {
        let (tx, rx) = ring::<u32>(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(3));
        assert_eq!(rx.pop(), Some(1));
        tx.try_push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn sender_drop_closes_after_drain() {
        let (tx, rx) = ring::<u32>(4);
        tx.push(7).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.pop_wait(Duration::from_millis(5)), None);
    }

    #[test]
    fn receiver_drop_fails_push_fast() {
        let (tx, rx) = ring::<u32>(2);
        drop(rx);
        assert!(tx.is_closed());
        let started = Instant::now();
        assert_eq!(tx.push(9), Err(9));
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "push to a closed ring must not park"
        );
    }

    #[test]
    fn receiver_drop_unparks_a_full_producer() {
        let (tx, rx) = ring::<u32>(1);
        tx.push(0).unwrap();
        let h = thread::spawn(move || tx.push(1));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(h.join().unwrap(), Err(1));
    }

    #[test]
    fn pop_wait_blocks_until_push() {
        let (tx, rx) = ring::<u32>(2);
        let h = thread::spawn(move || rx.pop_wait(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(15));
        tx.push(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn unpopped_items_are_dropped_with_the_ring() {
        // Miri-style leak check by proxy: a Drop-counting payload.
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = ring::<Counted>(8);
        for _ in 0..5 {
            tx.push(Counted(Arc::clone(&drops))).unwrap();
        }
        drop(rx.pop());
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    /// One randomized schedule: a producer pushing `items` with random
    /// jitter and a consumer popping with a random mix of `pop` and
    /// `pop_wait`. The multiset (here: exact sequence — SPSC is FIFO)
    /// must survive, whatever the interleaving and however often the
    /// ring wraps.
    fn run_schedule(capacity: usize, items: Vec<u64>, seed: u64) -> Vec<u64> {
        let (tx, rx) = ring::<u64>(capacity);
        let n = items.len();
        let producer = thread::spawn(move || {
            let mut rng = DetRng::seeded(seed ^ 0x9e37);
            for v in items {
                if rng.uniform() < 0.2 {
                    thread::yield_now();
                }
                if rng.uniform() < 0.05 {
                    thread::sleep(Duration::from_micros(rng.below(50)));
                }
                tx.push(v).expect("receiver alive");
            }
        });
        let mut rng = DetRng::seeded(seed ^ 0x51ce);
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            if rng.uniform() < 0.3 {
                if let Some(v) = rx.pop() {
                    got.push(v);
                }
            } else if let Some(v) = rx.pop_wait(Duration::from_millis(200)) {
                got.push(v);
            }
            if rng.uniform() < 0.05 {
                thread::sleep(Duration::from_micros(rng.below(50)));
            }
        }
        producer.join().expect("producer must not panic");
        assert_eq!(rx.pop(), None, "nothing left after all items popped");
        got
    }

    #[test]
    fn property_random_schedules_preserve_the_sequence() {
        Check::new("ring_random_schedules").cases(24).run_shrink(
            |g: &mut DetRng| {
                let cap = g.usize_in(1, 9);
                let items: Vec<u64> = g.vec_of(0, 120, |g| g.i64_in(0, 1_000_000) as u64);
                let seed = g.next_u64();
                (cap, items, seed)
            },
            |(cap, items, seed)| {
                let mut shrunk: Vec<(usize, Vec<u64>, u64)> = Vec::new();
                for smaller in shrink_vec(items) {
                    shrunk.push((*cap, smaller, *seed));
                }
                if *cap > 1 {
                    shrunk.push((1, items.clone(), *seed));
                }
                shrunk
            },
            |(cap, items, seed)| {
                let got = run_schedule(*cap, items.clone(), *seed);
                if &got == items {
                    Ok(())
                } else {
                    Err(format!("FIFO order broken: sent {items:?}, got {got:?}"))
                }
            },
        );
    }

    #[test]
    fn property_capacity_one_wraps_correctly() {
        // The tightest ring is all wraparound: every push lands in the
        // same slot, so any ordering bug corrupts data immediately.
        Check::new("ring_capacity_one").cases(16).run(
            |g: &mut DetRng| g.vec_of(1, 200, |g| g.i64_in(i64::MIN / 2, i64::MAX / 2)),
            |items: &Vec<i64>| {
                let (tx, rx) = ring::<i64>(1);
                let send = items.clone();
                let producer = thread::spawn(move || {
                    for v in send {
                        tx.push(v).expect("receiver alive");
                    }
                });
                let mut got = Vec::with_capacity(items.len());
                while got.len() < items.len() {
                    if let Some(v) = rx.pop_wait(Duration::from_millis(200)) {
                        got.push(v);
                    }
                }
                producer.join().expect("producer ok");
                if &got == items {
                    Ok(())
                } else {
                    Err(format!("wraparound corrupted data: {got:?}"))
                }
            },
        );
    }

    #[test]
    fn property_parked_producer_survives_random_drain_schedules() {
        // Force the full/park path: capacity far below the item count,
        // consumer draining in random bursts with random pauses.
        Check::new("ring_park_schedules").cases(12).run(
            |g: &mut DetRng| {
                let cap = g.usize_in(1, 3);
                let n = g.usize_in(20, 80);
                let seed = g.next_u64();
                (cap, n, seed)
            },
            |&(cap, n, seed)| {
                let (tx, rx) = ring::<usize>(cap);
                let producer = thread::spawn(move || {
                    for v in 0..n {
                        tx.push(v).expect("receiver alive");
                    }
                });
                let mut rng = DetRng::seeded(seed);
                let mut got = Vec::with_capacity(n);
                while got.len() < n {
                    let burst = rng.usize_in(1, 5);
                    for _ in 0..burst {
                        if let Some(v) = rx.pop_wait(Duration::from_millis(200)) {
                            got.push(v);
                        }
                    }
                    if rng.uniform() < 0.4 {
                        thread::sleep(Duration::from_micros(rng.below(200)));
                    }
                }
                producer.join().expect("producer ok");
                let want: Vec<usize> = (0..n).collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("park schedule lost or reordered items: {got:?}"))
                }
            },
        );
    }

    /// Socket-sized payloads: each slot carries a whole tuple block, so
    /// a block whose `items.len()` exceeds the ring capacity (or the
    /// remaining free slots) must backpressure the producer as a unit —
    /// never split across slots, never merged with a neighbour. The
    /// tightest rings (capacity 1 and 2) force every oversized block
    /// through the park/wrap path.
    #[test]
    fn property_oversized_blocks_backpressure_without_splitting() {
        Check::new("ring_oversized_blocks").cases(12).run(
            |g: &mut DetRng| {
                let cap = g.usize_in(1, 3); // capacity-1 and capacity-2 rings
                let blocks: Vec<Vec<u64>> = g.vec_of(1, 30, |g| {
                    // Block payloads deliberately larger than the ring:
                    // up to 8x the capacity, plus occasional empties.
                    let len = if g.flip() {
                        g.usize_in(cap + 1, cap * 8 + 2)
                    } else {
                        g.usize_in(0, 2)
                    };
                    (0..len).map(|_| g.next_u64()).collect()
                });
                let seed = g.next_u64();
                (cap, blocks, seed)
            },
            |(cap, blocks, seed)| {
                let (tx, rx) = ring::<Vec<u64>>(*cap);
                let send = blocks.clone();
                let producer = thread::spawn(move || {
                    for b in send {
                        tx.push(b).expect("receiver alive");
                    }
                });
                // Slow consumer: drain with pauses so the producer hits
                // the full ring and parks mid-schedule.
                let mut rng = DetRng::seeded(*seed);
                let mut got: Vec<Vec<u64>> = Vec::with_capacity(blocks.len());
                while got.len() < blocks.len() {
                    if rng.uniform() < 0.3 {
                        thread::sleep(Duration::from_micros(rng.below(200)));
                    }
                    if let Some(b) = rx.pop_wait(Duration::from_millis(200)) {
                        got.push(b);
                    }
                }
                producer.join().expect("producer ok");
                if rx.pop().is_some() {
                    return Err("items left after all blocks arrived".into());
                }
                if &got == blocks {
                    Ok(())
                } else {
                    Err(format!(
                        "blocks split or reordered: sent lens {:?}, got lens {:?}",
                        blocks.iter().map(Vec::len).collect::<Vec<_>>(),
                        got.iter().map(Vec::len).collect::<Vec<_>>()
                    ))
                }
            },
        );
    }

    /// A full ring refuses an oversized block atomically: `try_push`
    /// hands the whole payload back untouched, and the later blocking
    /// `push` delivers that same payload intact once a slot frees.
    #[test]
    fn oversized_block_refusal_is_atomic() {
        for cap in [1usize, 2] {
            let (tx, rx) = ring::<Vec<u64>>(cap);
            for i in 0..cap {
                tx.try_push(vec![i as u64]).unwrap();
            }
            let big: Vec<u64> = (0..64).collect();
            let refused = tx.try_push(big.clone()).expect_err("ring is full");
            assert_eq!(refused, big, "refused block must come back intact");
            let h = thread::spawn(move || tx.push(refused).expect("receiver alive"));
            thread::sleep(Duration::from_millis(10));
            for i in 0..cap {
                assert_eq!(
                    rx.pop_wait(Duration::from_millis(200)),
                    Some(vec![i as u64])
                );
            }
            h.join().unwrap();
            assert_eq!(rx.pop_wait(Duration::from_millis(200)), Some(big));
            assert_eq!(rx.pop(), None);
        }
    }

    /// One step of a single-threaded inbox schedule: the test thread
    /// plays every sender and the inbox's own thread, so the
    /// interleaving is exact and nothing sleeps (an idle `next` parks
    /// for zero time).
    #[derive(Clone, Debug)]
    enum Op {
        Send,
        Push(usize),
        Next,
        Drain,
    }

    /// Runs `ops` over `rings` rings of capacity `cap` against a queue
    /// model. Every send and push carries the next value of one global
    /// stamp, so FIFO order and cross-plane order are both visible.
    fn run_inbox_schedule(rings: usize, cap: usize, ops: &[Op]) -> Result<(), String> {
        use std::collections::VecDeque;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..rings).map(|_| ring::<(usize, u64)>(cap)).unzip();
        let (ctl, mut inbox) = inbox::<u64, (usize, u64)>(rxs);
        let mut ctrl_q: VecDeque<u64> = VecDeque::new();
        let mut ring_q: Vec<VecDeque<u64>> = vec![VecDeque::new(); rings];
        let mut stamp = 0u64;
        let deliver = |found: Wake<u64, (usize, u64)>,
                       ctrl_q: &mut VecDeque<u64>,
                       ring_q: &mut Vec<VecDeque<u64>>|
         -> Result<bool, String> {
            match found {
                Wake::Control(c) if ctrl_q.pop_front() == Some(c) => Ok(false),
                Wake::Control(c) => Err(format!("control {c} lost, duplicated or reordered")),
                Wake::Data((_, v)) if !ctrl_q.is_empty() => {
                    Err(format!("data {v} overtook control {:?}", ctrl_q.front()))
                }
                Wake::Data((i, v)) if ring_q[i].pop_front() == Some(v) => Ok(false),
                Wake::Data((i, v)) => Err(format!("ring {i}: {v} lost, duplicated or reordered")),
                Wake::Idle(_) if ctrl_q.is_empty() && ring_q.iter().all(VecDeque::is_empty) => {
                    Ok(false)
                }
                Wake::Idle(_) => Err("idle with input queued".into()),
                Wake::Closed => Ok(true),
            }
        };
        for op in ops {
            match op {
                Op::Send => {
                    stamp += 1;
                    ctl.send(stamp);
                    ctrl_q.push_back(stamp);
                }
                Op::Push(i) => {
                    stamp += 1;
                    if txs[*i].try_push((*i, stamp)).is_ok() {
                        ring_q[*i].push_back(stamp);
                    }
                }
                Op::Next => {
                    if deliver(inbox.next(Duration::ZERO), &mut ctrl_q, &mut ring_q)? {
                        return Err("closed with every sender alive".into());
                    }
                }
                Op::Drain => {
                    while let Some((i, v)) = inbox.pop_data() {
                        if ring_q[i].pop_front() != Some(v) {
                            return Err(format!("drain: ring {i} gave {v} out of order"));
                        }
                    }
                    if !ring_q.iter().all(VecDeque::is_empty) {
                        return Err("drain left data behind".into());
                    }
                }
            }
        }
        drop(ctl);
        drop(txs);
        let queued = ctrl_q.len() + ring_q.iter().map(VecDeque::len).sum::<usize>();
        for _ in 0..queued {
            if deliver(inbox.next(Duration::ZERO), &mut ctrl_q, &mut ring_q)? {
                return Err("closed before everything queued was delivered".into());
            }
        }
        for _ in 0..2 {
            match inbox.next(Duration::ZERO) {
                Wake::Closed => {}
                other => return Err(format!("expected Closed (terminal), got {other:?}")),
            }
        }
        Ok(())
    }

    /// The inbox's contract, thread-free: control is delivered before
    /// any data while it is pending (so a control message sent before a
    /// push always precedes it), each plane is FIFO with nothing lost or
    /// duplicated however often the rings wrap, a barrier drain empties
    /// the rings, and `Closed` comes exactly when every sender is gone
    /// and everything sent has been delivered.
    #[test]
    fn property_inbox_schedules_keep_order_and_lose_nothing() {
        Check::new("inbox_schedules").cases(96).run_shrink(
            |g: &mut DetRng| {
                let rings = g.usize_in(1, 4);
                let cap = g.usize_in(1, 4);
                let ops = g.vec_of(0, 160, |g| match g.u32_in(0, 10) {
                    0 | 1 => Op::Send,
                    2..=5 => Op::Push(g.usize_in(0, rings)),
                    6..=8 => Op::Next,
                    _ => Op::Drain,
                });
                (rings, cap, ops)
            },
            |(rings, cap, ops)| {
                shrink_vec(ops)
                    .into_iter()
                    .map(|smaller| (*rings, *cap, smaller))
                    .collect()
            },
            |(rings, cap, ops)| run_inbox_schedule(*rings, *cap, ops),
        );
    }

    /// The lost-wakeup window, hit exactly: a push, a control send or
    /// the last senders' drop lands after the idle re-poll and before
    /// the park. It finds the registration, so the park returns at once
    /// instead of sleeping out its slice against input already waiting.
    #[test]
    fn what_lands_between_the_repoll_and_the_park_wakes_the_inbox() {
        let cases: [(&str, Wake<u32, u32>); 3] = [
            ("push", Wake::Data(7)),
            ("send", Wake::Control(7)),
            ("close", Wake::Closed),
        ];
        for (case, want) in cases {
            let (tx, rx) = ring::<u32>(2);
            let (ctl, mut inbox) = inbox::<u32, u32>(vec![rx]);
            let mut senders = Some((tx, ctl));
            inbox.before_park = Some(Box::new(move || match (case, &senders) {
                ("push", Some((tx, _))) => tx.push(7).expect("receiver alive"),
                ("send", Some((_, ctl))) => assert!(ctl.send(7)),
                _ => senders = None,
            }));
            let started = Instant::now();
            let first = inbox.next(Duration::from_secs(60));
            assert!(matches!(first, Wake::Idle(_)), "{case}: got {first:?}");
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{case}: the park slept through a wakeup: {:?}",
                started.elapsed()
            );
            assert_eq!(inbox.next(Duration::ZERO), want, "{case}");
        }
    }

    #[test]
    fn inbox_closes_only_when_both_planes_are_closed_and_dry() {
        let (tx, rx) = ring::<u32>(2);
        let (ctl, mut inbox) = inbox::<u32, u32>(vec![rx]);
        tx.push(1).unwrap();
        drop(tx);
        assert_eq!(inbox.next(Duration::ZERO), Wake::Data(1));
        // The ring is closed and dry, but a control sender lives on.
        assert!(matches!(inbox.next(Duration::ZERO), Wake::Idle(_)));
        assert!(ctl.send(2));
        drop(ctl);
        assert_eq!(inbox.next(Duration::ZERO), Wake::Control(2));
        assert_eq!(inbox.next(Duration::ZERO), Wake::Closed);
        assert_eq!(inbox.next(Duration::ZERO), Wake::Closed);
    }

    /// Real threads, real parks: two producers and a control sender
    /// against an inbox that parks for a minute when idle. Per-plane
    /// FIFO must hold, and a lost wakeup would cost a whole minute.
    #[test]
    fn inbox_multiplexes_concurrent_senders() {
        const N: u64 = 300;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| ring::<(usize, u64)>(2)).unzip();
        let (ctl, mut inbox) = inbox::<u64, (usize, u64)>(rxs);
        let mut senders = Vec::new();
        for (i, tx) in txs.into_iter().enumerate() {
            senders.push(thread::spawn(move || {
                for v in 0..N {
                    tx.push((i, v)).expect("receiver alive");
                }
            }));
        }
        senders.push(thread::spawn(move || {
            for v in 0..N {
                ctl.send(v);
                thread::yield_now();
            }
        }));
        let started = Instant::now();
        let mut next = [0u64; 3];
        loop {
            let (plane, v) = match inbox.next(Duration::from_secs(60)) {
                Wake::Control(v) => (2, v),
                Wake::Data((i, v)) => (i, v),
                Wake::Idle(_) => continue,
                Wake::Closed => break,
            };
            assert_eq!(v, next[plane], "plane {plane} out of order");
            next[plane] += 1;
        }
        assert_eq!(next, [N; 3], "every item delivered exactly once");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "a wakeup was lost"
        );
        for s in senders {
            s.join().unwrap();
        }
    }
}
