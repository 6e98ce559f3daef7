#![warn(missing_docs)]

//! The socket transport under the process-per-node execution substrate.
//!
//! Three layers, each testable without the one above it:
//!
//! - [`frame`] — a length-prefixed binary frame: fixed 23-byte header
//!   (magic, kind, link sequence number, cumulative acknowledgement,
//!   payload length) followed by the payload. The incremental
//!   [`frame::Decoder`] accepts bytes at arbitrary split points, so short
//!   writes and coalesced reads — the normal behaviour of a real socket,
//!   and the `partial_write` chaos family's weapon — cannot corrupt the
//!   stream.
//! - [`link`] — the `HELLO` that opens a worker connection. A
//!   connection is FIFO until it ends, and its end is a worker's death
//!   (the `crash_worker` chaos seam cuts one on purpose), which the
//!   executor fails over from its recovery logs: there is no link-level
//!   retransmission.
//!   The module's sequencing layer ([`LinkState`]) has no product caller
//!   and is kept only for the `benchmark/` workspace's link measurement.
//! - [`endpoint`] — the actual sockets: one enum over `TcpStream` and
//!   `UnixStream` so the substrate runs identically over loopback TCP
//!   and Unix domain sockets (CI uses the latter; no ports, no firewall).
//!
//! The crate deliberately contains no threads and no clocks: all timing
//! policy (handshake time-outs, read throttling) lives in the executor
//! that drives it, keeping this layer deterministic and unit-testable.

pub mod endpoint;
pub mod frame;
pub mod link;

pub use endpoint::{Addr, Listener, Stream};
pub use frame::{Decoder, Frame};
pub use link::{LinkState, Receive};
