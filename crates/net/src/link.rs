//! The connection handshake, and a link-level sequencing layer that no
//! product code uses.
//!
//! [`hello`] opens every worker connection: the connector announces its
//! node index. The socket executor needs nothing else from this module.
//! A connection is FIFO until it ends, and its end is the worker's death,
//! which the executor fails over from its recovery logs: reliability
//! lives end to end, in the logs, not in the link.
//!
//! [`LinkState`] and [`Receive`] have no product caller. They are kept
//! only because the `benchmark/` workspace (and `tests/benchmark_surface.rs`,
//! which pins what it names) measures a link cycle with them: every
//! application frame is stamped with the next sequence number and kept
//! in an outbox until the peer's cumulative ack covers it, and the
//! receiver drops sequence numbers it has already seen.

use std::collections::VecDeque;

use crate::frame::{kind, Frame};

/// What [`LinkState::on_receive`] decided about an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receive {
    /// A sequenced frame not seen before: deliver to the application.
    Fresh,
    /// A sequenced frame already delivered: drop silently.
    Duplicate,
    /// An unsequenced control frame (ack-only, hello): its ack has been
    /// applied.
    Control,
}

/// One direction pair of a sequenced connection. Kept only for the
/// benchmark's link-cycle measurement (see the module docs).
#[derive(Debug, Default)]
pub struct LinkState {
    next_seq: u64,
    last_received: u64,
    outbox: VecDeque<Frame>,
}

impl LinkState {
    /// A fresh link: nothing sent, nothing received.
    pub fn new() -> Self {
        LinkState::default()
    }

    /// Stamps an application payload with the next sequence number and
    /// the current cumulative ack, and retains a copy in the outbox
    /// until the peer acknowledges it.
    pub fn stamp(&mut self, kind: u8, payload: Vec<u8>) -> Frame {
        debug_assert!(
            kind >= crate::frame::kind::MSG,
            "control frames are not sequenced"
        );
        self.next_seq += 1;
        let frame = Frame {
            kind,
            seq: self.next_seq,
            ack: self.last_received,
            payload,
        };
        self.outbox.push_back(frame.clone());
        frame
    }

    /// A pure acknowledgement frame (unsequenced, empty payload).
    pub fn ack_frame(&mut self) -> Frame {
        Frame {
            kind: kind::ACK_ONLY,
            seq: 0,
            ack: self.last_received,
            payload: Vec::new(),
        }
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
        Receive::Fresh
    }
}

/// Builds a `HELLO` frame: the connector announces its node index.
pub fn hello(node_index: u64) -> Frame {
    Frame {
        kind: kind::HELLO,
        seq: 0,
        ack: 0,
        payload: node_index.to_le_bytes().to_vec(),
    }
}

/// Parses a `HELLO` frame into the connector's node index.
pub fn parse_hello(frame: &Frame) -> Option<u64> {
    if frame.kind != kind::HELLO {
        return None;
    }
    Some(u64::from_le_bytes(
        frame.payload.as_slice().try_into().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::kind::MSG;

    #[test]
    fn sequencing_drops_what_was_already_delivered() {
        let mut sender = LinkState::new();
        let mut receiver = LinkState::new();
        let a = sender.stamp(MSG, vec![1]);
        let b = sender.stamp(MSG, vec![2]);
        assert_eq!(receiver.on_receive(&a), Receive::Fresh);
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
        assert_eq!(sender.outbox.len(), 5);
        let ack = receiver.ack_frame();
        assert_eq!(sender.on_receive(&ack), Receive::Control);
        assert!(sender.outbox.is_empty());
    }

    #[test]
    fn piggybacked_acks_prune_without_explicit_ack_frames() {
        let mut left = LinkState::new();
        let mut right = LinkState::new();
        let req = left.stamp(MSG, vec![1]);
        right.on_receive(&req);
        let reply = right.stamp(MSG, vec![2]);
        assert_eq!(left.on_receive(&reply), Receive::Fresh);
        assert!(
            left.outbox.is_empty(),
            "the reply's ack covered the request"
        );
        assert_eq!(right.outbox.len(), 1);
    }

    #[test]
    fn hello_frames_round_trip() {
        let h = hello(3);
        assert_eq!(parse_hello(&h), Some(3));
        assert_eq!(parse_hello(&LinkState::new().ack_frame()), None);
        let short = Frame {
            payload: vec![3],
            ..hello(3)
        };
        assert_eq!(parse_hello(&short), None);
    }
}
