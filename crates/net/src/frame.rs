//! The wire frame: a fixed-size header plus a length-prefixed payload.
//!
//! Header layout (23 bytes, all integers little-endian):
//!
//! | offset | size | field                                    |
//! |--------|------|------------------------------------------|
//! | 0      | 2    | magic `b"GQ"`                            |
//! | 2      | 1    | kind                                     |
//! | 3      | 8    | link sequence number (`0` = unsequenced) |
//! | 11     | 8    | cumulative ack (highest seq received)    |
//! | 19     | 4    | payload length                           |
//! | 23     | n    | payload                                  |
//!
//! The socket executor sends every frame unsequenced, with sequence
//! number and ack both `0`: a connection is FIFO until it ends, and its
//! end is a worker's death, failed over from the recovery logs. The two
//! fields stay in the header only because the `benchmark/` workspace
//! measures a sequenced link cycle ([`crate::link::LinkState`]).
//!
//! A fixed header keeps the incremental decoder trivial: buffer until 23
//! bytes, read the length, buffer until the payload is complete. The
//! decoder never assumes a read boundary coincides with a frame boundary
//! — that is precisely what the `partial_write` chaos family violates.

use gridq_common::{GridError, Result};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"GQ";

/// Header size in bytes.
pub const HEADER_LEN: usize = 23;

/// Upper bound on a single frame's payload; a length field beyond it is
/// treated as stream corruption rather than an allocation request.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Frame kinds. Kinds at or above [`kind::MSG`] are application traffic;
/// the rest are link control.
pub mod kind {
    /// Pure acknowledgement: no payload. No product code sends one; kept
    /// only because the `benchmark/` workspace names it.
    pub const ACK_ONLY: u8 = 0;
    /// Connection establishment from the connecting side. Payload: the
    /// connector's node index, as a little-endian `u64`.
    pub const HELLO: u8 = 1;
    // 2 was the retired reconnect reply and must not be reused.
    /// Application payload.
    pub const MSG: u8 = 3;
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (see [`kind`]).
    pub kind: u8,
    /// Link sequence number; `0` for unsequenced frames, which is every
    /// frame the socket executor sends (kept for the benchmark).
    pub seq: u64,
    /// Cumulative acknowledgement: the highest sequence number the
    /// sender had received on this connection when the frame was built;
    /// `0` on every frame the socket executor sends (kept for the
    /// benchmark).
    pub ack: u64,
    /// Application bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encodes the frame into its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.kind);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ack.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Incremental frame decoder: feed it whatever the socket returned,
/// collect whole frames. Bytes split across reads are buffered until
/// their frame completes.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Why framing was lost, once a malformed header has been met.
    lost: Option<String>,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends `bytes` and returns every frame completed by them, in
    /// order. A malformed header (bad magic, absurd length) loses framing
    /// for good, and its error is reported as `std::io::Read` reports an
    /// error met after some bytes: the call that meets it returns the
    /// whole frames ahead of it (the error itself when there are none),
    /// and every later call returns the error. An empty `bytes` asks
    /// without feeding, so a reader can learn of a held error before it
    /// blocks in a read.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Frame>> {
        if let Some(why) = &self.lost {
            return Err(GridError::Execution(why.clone()));
        }
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        let mut start = 0usize;
        loop {
            let rest = &self.buf[start..];
            if rest.len() < HEADER_LEN {
                break;
            }
            if rest[0..2] != MAGIC {
                self.lost = Some(format!(
                    "frame: bad magic {:02x}{:02x}, framing lost",
                    rest[0], rest[1]
                ));
                break;
            }
            let kind = rest[2];
            let seq = u64::from_le_bytes(rest[3..11].try_into().map_err(err_slice)?);
            let ack = u64::from_le_bytes(rest[11..19].try_into().map_err(err_slice)?);
            let len = u32::from_le_bytes(rest[19..23].try_into().map_err(err_slice)?);
            if len > MAX_PAYLOAD {
                self.lost = Some(format!("frame: payload length {len} exceeds {MAX_PAYLOAD}"));
                break;
            }
            let total = HEADER_LEN + len as usize;
            if rest.len() < total {
                break;
            }
            frames.push(Frame {
                kind,
                seq,
                ack,
                payload: rest[HEADER_LEN..total].to_vec(),
            });
            start += total;
        }
        if start > 0 {
            self.buf.drain(..start);
        }
        match &self.lost {
            Some(why) if frames.is_empty() => Err(GridError::Execution(why.clone())),
            _ => Ok(frames),
        }
    }
}

fn err_slice(_: std::array::TryFromSliceError) -> GridError {
    GridError::Execution("frame: header slice arithmetic broken".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::check::{Check, Gen};
    use gridq_common::DetRng;

    fn sample(n: u8) -> Frame {
        Frame {
            kind: kind::MSG,
            seq: u64::from(n) + 1,
            ack: u64::from(n),
            payload: (0..n).collect(),
        }
    }

    #[test]
    fn whole_frames_round_trip() {
        let mut d = Decoder::new();
        let frames = vec![sample(0), sample(7), sample(200)];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        assert_eq!(d.feed(&bytes).unwrap(), frames);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles_frames() {
        let frames = vec![sample(3), sample(0), sample(41)];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for b in bytes {
            got.extend(d.feed(&[b]).unwrap());
        }
        assert_eq!(got, frames);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn property_random_split_points_never_corrupt() {
        Check::new("frame_splits").cases(64).run(
            |g: &mut DetRng| {
                let frames: Vec<Frame> = g.vec_of(1, 6, |g| Frame {
                    kind: kind::MSG + g.usize_in(0, 4) as u8,
                    seq: g.next_u64() | 1,
                    ack: g.next_u64(),
                    payload: g.vec_of(0, 40, |g| g.next_u64() as u8),
                });
                let cuts = g.vec_of(0, 8, |g| g.usize_in(0, 2048));
                (frames, cuts)
            },
            |(frames, cuts): &(Vec<Frame>, Vec<usize>)| {
                let mut bytes = Vec::new();
                for f in frames {
                    bytes.extend_from_slice(&f.encode());
                }
                let mut splits: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
                splits.sort_unstable();
                splits.dedup();
                let mut d = Decoder::new();
                let mut got = Vec::new();
                let mut prev = 0usize;
                for s in splits.into_iter().chain(std::iter::once(bytes.len())) {
                    got.extend(
                        d.feed(&bytes[prev..s])
                            .map_err(|e| format!("decode failed: {e}"))?,
                    );
                    prev = s;
                }
                if &got != frames {
                    return Err("frames changed across split feeding".into());
                }
                if d.pending() != 0 {
                    return Err(format!("{} bytes stranded in the decoder", d.pending()));
                }
                Ok(())
            },
        );
    }

    /// Feeds `bytes` in the pieces `splits` cuts them into, stopping at
    /// the first `Err`. An `Ok` must account for every byte: the frames'
    /// encoded lengths plus what the decoder still holds.
    fn feed_split(
        bytes: &[u8],
        splits: &[usize],
    ) -> std::result::Result<Result<Vec<Frame>>, String> {
        let mut d = Decoder::new();
        let mut got = Vec::new();
        let mut prev = 0;
        for s in splits
            .iter()
            .map(|&s| s.min(bytes.len()))
            .chain([bytes.len()])
        {
            let s = s.max(prev);
            match d.feed(&bytes[prev..s]) {
                Ok(frames) => got.extend(frames),
                Err(e) => return Ok(Err(e)),
            }
            prev = s;
        }
        if let Err(e) = d.feed(&[]) {
            return Ok(Err(e));
        }
        let framed: usize = got.iter().map(|f| HEADER_LEN + f.payload.len()).sum();
        if framed + d.pending() != bytes.len() {
            return Err(format!(
                "{framed} framed + {} pending != {} fed",
                d.pending(),
                bytes.len()
            ));
        }
        if got.iter().any(|f| f.payload.len() > MAX_PAYLOAD as usize) {
            return Err("a frame outgrew MAX_PAYLOAD".into());
        }
        Ok(Ok(got))
    }

    /// Framing loss kills a socket worker, so the decoder is held to what
    /// a hostile stream can do. A valid multi-frame stream fed at random
    /// split points decodes to its frames; every truncation of it decodes
    /// to a prefix of them; every single-byte mutation decodes to `Err`
    /// or to well-formed frames. Never a panic, which `Check` reports as
    /// a failure.
    #[test]
    fn property_truncations_and_mutations_never_panic() {
        Check::new("frame_mutations").cases(24).run(
            |g: &mut DetRng| {
                let frames: Vec<Frame> = g.vec_of(1, 4, |g| Frame {
                    kind: kind::MSG + g.usize_in(0, 3) as u8,
                    seq: g.next_u64() >> g.u32_in(0, 64),
                    ack: g.next_u64() >> g.u32_in(0, 64),
                    payload: g.vec_of(0, 24, |g| g.next_u64() as u8),
                });
                let cuts = g.vec_of(0, 5, |g| g.usize_in(0, 256));
                (frames, cuts)
            },
            |(frames, cuts): &(Vec<Frame>, Vec<usize>)| {
                let bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
                let mut splits = cuts.clone();
                splits.sort_unstable();
                if feed_split(&bytes, &splits)?.ok().as_ref() != Some(frames) {
                    return Err("the valid stream did not decode to its frames".into());
                }
                for cut in 0..bytes.len() {
                    let got = feed_split(&bytes[..cut], &splits)?
                        .map_err(|e| format!("truncation at {cut}: {e}"))?;
                    if !frames.starts_with(&got) {
                        return Err(format!("truncation at {cut} decoded foreign frames"));
                    }
                }
                let mut mutated = bytes.clone();
                for i in 0..bytes.len() {
                    for flip in [0x01, 0x80, 0xff] {
                        mutated[i] = bytes[i] ^ flip;
                        // `Err`, or frames that account for every byte.
                        let _ = feed_split(&mutated, &splits)?;
                    }
                    mutated[i] = bytes[i];
                }
                Ok(())
            },
        );
    }

    /// A length beyond `MAX_PAYLOAD` is an `Err` as soon as its header is
    /// in, before a byte of its payload is buffered.
    #[test]
    fn an_oversized_length_fails_on_its_header_alone() {
        for len in [MAX_PAYLOAD + 1, u32::MAX] {
            let mut header = sample(0).encode();
            header[19..23].copy_from_slice(&len.to_le_bytes());
            let mut d = Decoder::new();
            assert!(d.feed(&header[..HEADER_LEN - 1]).unwrap().is_empty());
            assert!(d.feed(&header[HEADER_LEN - 1..]).is_err(), "length {len}");
        }
    }

    /// Whole frames ahead of a bad header are returned, and the error
    /// is held for every later call, an empty one included.
    #[test]
    fn frames_ahead_of_a_bad_header_survive_it() {
        let frames = vec![sample(5), sample(0)];
        let mut bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        bytes.extend_from_slice(&[b'X'; HEADER_LEN]);
        let mut d = Decoder::new();
        assert_eq!(d.feed(&bytes).unwrap(), frames);
        assert!(d.feed(&[]).is_err());
        assert!(d.feed(&sample(1).encode()).is_err(), "framing stays lost");
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let mut d = Decoder::new();
        assert!(d.feed(b"XXlolno-this-is-not-a-frame-head").is_err());
        let mut d = Decoder::new();
        let mut bytes = sample(4).encode();
        bytes[20] = 0xff; // inflate the length field past MAX_PAYLOAD
        bytes[21] = 0xff;
        bytes[22] = 0xff;
        assert!(d.feed(&bytes).is_err());
    }
}
