//! Socket setup and the line writer shared by every connect, accept and
//! send site.
//!
//! The protocol is newline-delimited request/response lines of a few hundred
//! bytes, flushed eagerly.  With Nagle's algorithm enabled, each such write
//! can sit in the kernel until the peer's delayed ACK arrives — a ~40 ms
//! stall per round trip that dwarfs the allocator itself.  Every socket the
//! crate touches therefore goes through [`connect`] or [`accepted`], which
//! set `TCP_NODELAY` in exactly one place; the server's accept loop, the
//! client's connect path and both binaries use them.  With Nagle off, every
//! `write` is its own segment, so [`write_line`] hands the kernel a line and
//! its newline in one call.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// Connects to `addr` and disables Nagle's algorithm on the new stream.
///
/// A failure to set the option is ignored: the connection still works, just
/// possibly with delayed-ACK latency, which is never worth refusing a
/// connection over.
///
/// # Errors
///
/// Propagates the connection failure.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// Prepares a freshly accepted stream: disables Nagle's algorithm and hands
/// the stream back.
///
/// Like [`connect`], a failure to set the option is deliberately ignored.
#[must_use]
pub fn accepted(stream: TcpStream) -> TcpStream {
    stream.set_nodelay(true).ok();
    stream
}

/// Writes `line` and its terminating newline in a single `write_all`, then
/// flushes: one segment per line on a `TCP_NODELAY` socket, not two.
///
/// # Errors
///
/// Propagates write and flush failures.
pub fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer.write_all(framed.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Records every `write` call, to show a line goes out in one.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_is_one_write() {
        let mut out = Writes::default();
        write_line(&mut out, r#"{"type":"stats"}"#).unwrap();
        assert_eq!(out.0, vec![b"{\"type\":\"stats\"}\n".to_vec()]);
    }

    #[test]
    fn both_ends_get_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let server = accepted(server);
        assert!(client.nodelay().unwrap());
        assert!(server.nodelay().unwrap());
    }
}
