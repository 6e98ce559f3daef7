//! The actual sockets: one address/listener/stream family over loopback
//! TCP and Unix domain sockets.
//!
//! The substrate treats the two identically — both are FIFO byte
//! streams with the same failure mode (the connection dies, a suffix of
//! written bytes vanishes) — so everything above this module is written
//! against [`Stream`] and never names a concrete socket type. CI runs
//! the Unix flavour (no ports, no firewall rules); the TCP flavour is
//! what a real multi-host deployment would use.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gridq_common::{GridError, Result};

/// A transport address: a TCP host:port or a Unix socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// Loopback/LAN TCP, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// A fresh, collision-free Unix socket address under the system
    /// temporary directory, namespaced by process id and a counter.
    pub fn scratch_unix() -> Addr {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Addr::Unix(std::env::temp_dir().join(format!("gridq-{}-{n}.sock", std::process::id())))
    }

    /// An ephemeral loopback TCP address.
    pub fn loopback_tcp() -> Addr {
        Addr::Tcp("127.0.0.1:0".into())
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bound listener. The Unix flavour unlinks its socket file on drop.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path to unlink on drop.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds to `addr`. For TCP port 0 the kernel picks the port; use
    /// [`Listener::local_addr`] to learn it.
    pub fn bind(addr: &Addr) -> Result<Listener> {
        match addr {
            Addr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a).map_err(err_io)?)),
            #[cfg(unix)]
            Addr::Unix(p) => {
                // A stale file from a crashed predecessor blocks bind.
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(
                    UnixListener::bind(p).map_err(err_io)?,
                    p.clone(),
                ))
            }
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(GridError::Config(
                "unix sockets are not available on this platform".into(),
            )),
        }
    }

    /// The address actually bound (resolves an ephemeral TCP port).
    pub fn local_addr(&self) -> Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr().map_err(err_io)?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, p) => Ok(Addr::Unix(p.clone())),
        }
    }

    /// Blocks until a peer connects.
    pub fn accept(&self) -> Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept().map_err(err_io)?;
                s.set_nodelay(true).map_err(err_io)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept().map_err(err_io)?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr`.
    pub fn connect(addr: &Addr) -> Result<Stream> {
        match addr {
            Addr::Tcp(a) => {
                let s = TcpStream::connect(a).map_err(err_io)?;
                s.set_nodelay(true).map_err(err_io)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Addr::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p).map_err(err_io)?)),
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(GridError::Config(
                "unix sockets are not available on this platform".into(),
            )),
        }
    }

    /// A second handle to the same connection (reader/writer split).
    pub fn try_clone(&self) -> Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone().map_err(err_io)?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone().map_err(err_io)?)),
        }
    }

    /// Tears the connection down in both directions; blocked reads on
    /// other clones return EOF. A socket worker's death: the link thread
    /// ends a connection this way when the crash seam fires.
    pub fn shutdown_both(&self) -> Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both).map_err(err_io),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(Shutdown::Both).map_err(err_io),
        }
    }

    /// Bounds each blocking read so reader threads can notice shutdown
    /// flags; `None` restores fully blocking reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout).map_err(err_io),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout).map_err(err_io),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn err_io(e: io::Error) -> GridError {
    GridError::Execution(format!("socket: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{kind, Decoder, Frame};
    use std::thread;

    fn msg(payload: Vec<u8>) -> Frame {
        Frame {
            kind: kind::MSG,
            seq: 0,
            ack: 0,
            payload,
        }
    }

    fn frame_echo_over(addr: Addr) {
        let listener = Listener::bind(&addr).unwrap();
        let bound = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut dec = Decoder::new();
            let mut buf = [0u8; 7]; // deliberately tiny reads
            let mut got = Vec::new();
            while got.len() < 3 {
                let n = conn.read(&mut buf).unwrap();
                assert!(n > 0, "peer hung up early");
                got.extend(dec.feed(&buf[..n]).unwrap().into_iter().map(|f| f.payload));
            }
            conn.write_all(&msg(vec![42]).encode()).unwrap();
            got
        });
        let mut conn = Stream::connect(&bound).unwrap();
        for payload in [vec![1u8], vec![], vec![9, 9, 9]] {
            let bytes = msg(payload).encode();
            // Short writes on purpose: framing must not care.
            for chunk in bytes.chunks(3) {
                conn.write_all(chunk).unwrap();
                conn.flush().unwrap();
            }
        }
        let mut dec = Decoder::new();
        let mut buf = [0u8; 64];
        let reply = loop {
            let n = conn.read(&mut buf).unwrap();
            assert!(n > 0, "server hung up before replying");
            if let Some(f) = dec.feed(&buf[..n]).unwrap().pop() {
                break f;
            }
        };
        assert_eq!(reply.payload, vec![42]);
        let got = server.join().unwrap();
        assert_eq!(got, vec![vec![1u8], vec![], vec![9, 9, 9]]);
        // The server's end of the connection reads as end of file here.
        assert_eq!(conn.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn frames_survive_short_writes_over_tcp() {
        frame_echo_over(Addr::loopback_tcp());
    }

    #[cfg(unix)]
    #[test]
    fn frames_survive_short_writes_over_unix_sockets() {
        frame_echo_over(Addr::scratch_unix());
    }
}
