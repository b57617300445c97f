//! A minimal blocking client for the frame protocol.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::exec::Reply;
use crate::frame::{decode_reply, poll_readable, read_frame, write_frame, MAX_FRAME};

/// How long a client polls for its reply before it blocks: longer than
/// the server takes over a read of a few thousand rows or an in-memory
/// commit, so the usual reply is picked up without a wake-up.
const REPLY_POLL: Duration = Duration::from_micros(200);

/// One connection to a [`crate::server::SqlServer`]. Requests are
/// strictly request/reply in order; a client is one session (clone the
/// connection count, not the client, for concurrency).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a serving address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one statement line, block for its reply.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        write_frame(&mut self.stream, line.as_bytes())?;
        poll_readable(&self.stream, REPLY_POLL)?;
        let payload = read_frame(&mut self.stream, MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )
        })?;
        decode_reply(&payload)
    }
}
