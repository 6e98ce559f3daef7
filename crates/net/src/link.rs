//! Link-level reliability: sequencing, outbox retransmission, receiver
//! dedup, and cumulative acknowledgements over one logical connection.
//!
//! The underlying socket is FIFO-or-dead: bytes arrive in order until
//! the connection drops, then an unknown suffix of what was written is
//! simply gone. [`LinkState`] recovers exactly that suffix. Every
//! application frame gets the next sequence number and a copy in the
//! outbox; every received frame's cumulative ack prunes the outbox; on
//! reconnect the peers exchange `Hello`/`HelloAck` frames carrying their
//! `last_received` counters and each side retransmits the outbox suffix
//! the other has not seen. The receiver drops sequence numbers at or
//! below its counter, so the overlap a conservative retransmission
//! creates is absorbed here, not in the application.
//!
//! The outbox is bounded by the ack cadence: a receiver owes a pure-ack
//! frame after [`ACK_EVERY`] data frames if it has nothing of its own to
//! say ([`LinkState::owes_ack`]), which keeps the unacked suffix — and
//! therefore reconnect-retransmission cost — small on one-way links.

use std::collections::VecDeque;

use crate::frame::{kind, Frame};

/// After this many received application frames without sending anything,
/// the receiver owes the peer a pure-ack frame.
pub const ACK_EVERY: u64 = 16;

/// What [`LinkState::on_receive`] decided about an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receive {
    /// A sequenced frame not seen before: deliver to the application.
    Fresh,
    /// A sequenced frame already delivered (retransmission overlap):
    /// drop silently.
    Duplicate,
    /// An unsequenced control frame (ack-only, hello): its ack has been
    /// applied, the caller handles any handshake semantics.
    Control,
}

/// One direction pair of a logical connection: the sequencing state that
/// survives the socket being replaced under it.
#[derive(Debug, Default)]
pub struct LinkState {
    next_seq: u64,
    last_received: u64,
    outbox: VecDeque<Frame>,
    received_since_ack: u64,
    peak_outbox: usize,
    peak_payload: usize,
}

impl LinkState {
    /// A fresh link: nothing sent, nothing received.
    pub fn new() -> Self {
        LinkState::default()
    }

    /// Stamps an application payload with the next sequence number and
    /// the current cumulative ack, and retains a copy in the outbox
    /// until the peer acknowledges it. Sending counts as acking.
    pub fn stamp(&mut self, kind: u8, payload: Vec<u8>) -> Frame {
        debug_assert!(
            kind >= crate::frame::kind::MSG,
            "control frames are not sequenced"
        );
        self.next_seq += 1;
        self.received_since_ack = 0;
        self.peak_payload = self.peak_payload.max(payload.len());
        let frame = Frame {
            kind,
            seq: self.next_seq,
            ack: self.last_received,
            payload,
        };
        self.outbox.push_back(frame.clone());
        self.peak_outbox = self.peak_outbox.max(self.outbox.len());
        frame
    }

    /// A pure acknowledgement frame (unsequenced, empty payload).
    pub fn ack_frame(&mut self) -> Frame {
        self.received_since_ack = 0;
        Frame {
            kind: kind::ACK_ONLY,
            seq: 0,
            ack: self.last_received,
            payload: Vec::new(),
        }
    }

    /// True when enough application frames have arrived without any
    /// outgoing traffic that the peer's outbox needs relief.
    pub fn owes_ack(&self) -> bool {
        self.received_since_ack >= ACK_EVERY
    }

    /// Applies one received frame: prunes the outbox through its
    /// cumulative ack, then classifies it (fresh / duplicate / control).
    pub fn on_receive(&mut self, frame: &Frame) -> Receive {
        while self.outbox.front().is_some_and(|f| f.seq <= frame.ack) {
            self.outbox.pop_front();
        }
        if frame.seq == 0 {
            return Receive::Control;
        }
        if frame.seq <= self.last_received {
            return Receive::Duplicate;
        }
        self.last_received = frame.seq;
        self.received_since_ack += 1;
        self.peak_payload = self.peak_payload.max(frame.payload.len());
        Receive::Fresh
    }

    /// The cumulative ack to advertise in handshakes.
    pub fn last_received(&self) -> u64 {
        self.last_received
    }

    /// The outbox suffix the peer has not confirmed, given the
    /// `last_received` it reported in its hello: everything that must be
    /// retransmitted after a reconnect. Frames the peer did confirm are
    /// pruned as a side effect.
    pub fn retransmit_after(&mut self, peer_last_received: u64) -> Vec<Frame> {
        while self
            .outbox
            .front()
            .is_some_and(|f| f.seq <= peer_last_received)
        {
            self.outbox.pop_front();
        }
        self.outbox.iter().cloned().collect()
    }

    /// Frames currently awaiting acknowledgement.
    pub fn unacked(&self) -> usize {
        self.outbox.len()
    }

    /// High-water mark of the outbox, for transport telemetry.
    pub fn peak_outbox(&self) -> usize {
        self.peak_outbox
    }

    /// The largest sequenced payload this side stamped or freshly
    /// received, in bytes: what a test holds against the application's
    /// own frame bound, far below [`crate::frame::MAX_PAYLOAD`].
    pub fn peak_payload(&self) -> usize {
        self.peak_payload
    }
}

/// Builds a `Hello` frame: the connector announces who it is and the
/// highest sequence number it received before the connection dropped.
pub fn hello(node_index: u64, last_received: u64) -> Frame {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&node_index.to_le_bytes());
    payload.extend_from_slice(&last_received.to_le_bytes());
    Frame {
        kind: kind::HELLO,
        seq: 0,
        ack: last_received,
        payload,
    }
}

/// Parses a `Hello` payload into `(node_index, last_received)`.
pub fn parse_hello(frame: &Frame) -> Option<(u64, u64)> {
    if frame.kind != kind::HELLO || frame.payload.len() != 16 {
        return None;
    }
    let index = u64::from_le_bytes(frame.payload[0..8].try_into().ok()?);
    let last = u64::from_le_bytes(frame.payload[8..16].try_into().ok()?);
    Some((index, last))
}

/// Builds the accepting side's `HelloAck`, reporting its own
/// `last_received` so the connector knows what to retransmit.
pub fn hello_ack(last_received: u64) -> Frame {
    Frame {
        kind: kind::HELLO_ACK,
        seq: 0,
        ack: last_received,
        payload: last_received.to_le_bytes().to_vec(),
    }
}

/// Parses a `HelloAck` payload into the acceptor's `last_received`.
pub fn parse_hello_ack(frame: &Frame) -> Option<u64> {
    if frame.kind != kind::HELLO_ACK || frame.payload.len() != 8 {
        return None;
    }
    Some(u64::from_le_bytes(frame.payload[0..8].try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::kind::MSG;

    #[test]
    fn sequencing_and_dedup_absorb_retransmission_overlap() {
        let mut sender = LinkState::new();
        let mut receiver = LinkState::new();
        let a = sender.stamp(MSG, vec![1]);
        let b = sender.stamp(MSG, vec![2]);
        assert_eq!(receiver.on_receive(&a), Receive::Fresh);
        // The connection drops; the sender retransmits everything the
        // receiver's hello did not confirm.
        let again = sender.retransmit_after(receiver.last_received());
        assert_eq!(again, vec![b.clone()], "acked prefix is not resent");
        assert_eq!(receiver.on_receive(&b), Receive::Fresh);
        assert_eq!(receiver.on_receive(&b), Receive::Duplicate);
    }

    #[test]
    fn cumulative_acks_prune_the_outbox() {
        let mut sender = LinkState::new();
        let mut receiver = LinkState::new();
        for i in 0..5u8 {
            let f = sender.stamp(MSG, vec![i]);
            assert_eq!(receiver.on_receive(&f), Receive::Fresh);
        }
        assert_eq!(sender.unacked(), 5);
        let ack = receiver.ack_frame();
        assert_eq!(sender.on_receive(&ack), Receive::Control);
        assert_eq!(sender.unacked(), 0);
        assert_eq!(sender.peak_outbox(), 5);
    }

    #[test]
    fn one_way_links_owe_periodic_acks() {
        let mut sender = LinkState::new();
        let mut receiver = LinkState::new();
        for i in 0..ACK_EVERY {
            assert!(!receiver.owes_ack(), "not yet at frame {i}");
            let f = sender.stamp(MSG, vec![]);
            receiver.on_receive(&f);
        }
        assert!(receiver.owes_ack());
        let _ = receiver.ack_frame();
        assert!(!receiver.owes_ack(), "sending the ack resets the debt");
    }

    #[test]
    fn hello_frames_round_trip() {
        let h = hello(3, 41);
        assert_eq!(parse_hello(&h), Some((3, 41)));
        assert_eq!(parse_hello(&hello_ack(9)), None);
        let ha = hello_ack(9);
        assert_eq!(parse_hello_ack(&ha), Some(9));
        assert_eq!(parse_hello_ack(&h), None);
    }

    #[test]
    fn piggybacked_acks_prune_without_explicit_ack_frames() {
        let mut left = LinkState::new();
        let mut right = LinkState::new();
        let req = left.stamp(MSG, vec![1]);
        right.on_receive(&req);
        let reply = right.stamp(MSG, vec![2]);
        assert_eq!(left.on_receive(&reply), Receive::Fresh);
        assert_eq!(left.unacked(), 0, "the reply's ack covered the request");
        assert_eq!(right.unacked(), 1);
    }
}
