//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! A frame is a big-endian `u32` payload length followed by the payload.
//! Requests carry one UTF-8 statement line. Replies carry one tag byte
//! (`0` ok, `1` error) followed by the UTF-8 reply text. Frames larger
//! than the configured maximum are a protocol violation — the connection
//! is not recoverable past one, so reads fail rather than resynchronize.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::exec::Reply;

/// Default maximum frame payload (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

/// Initial payload-buffer capacity: allocation beyond this tracks bytes
/// actually received, never the peer's claimed length alone.
const INITIAL_PAYLOAD_CHUNK: u32 = 8 * 1024;

/// Poll `stream` without blocking until it has something to read — bytes,
/// an end-of-stream or an error — or `window` has passed, and leave it in
/// blocking mode: the caller's next `read` returns at once, or blocks as
/// it always did.
///
/// Both ends of a connection call this before they block on a frame. A
/// thread that blocks has to be woken by its peer, and what that costs is
/// decided by where the kernel put the two: a few microseconds on one
/// core, some 20 µs on a small VM when the sleeper's core has halted.
/// A request/reply loop pays two wake-ups per statement, so blocking at
/// once it ran at 26 k or 10 k statements a second depending on where its
/// threads had landed, and moved from one to the other within a run.
/// Polled, a frame that arrives within `window` costs no wake-up, neither
/// core halts while a request is in flight, and the rate is about 22 k
/// wherever the threads are. The price is up to `window` of CPU per call,
/// and a peer that shares the poller's core waits that long for it.
pub fn poll_readable(stream: &TcpStream, window: Duration) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let start = Instant::now();
    while matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
        && start.elapsed() < window
    {
        std::hint::spin_loop();
    }
    stream.set_nonblocking(false)
}

/// Write one frame — header and payload in a single `write`, so an
/// unbuffered `TCP_NODELAY` socket sends one segment and the peer wakes
/// once: written apart they are two syscalls and two segments, which is
/// half of a `:seq` round trip over loopback.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF inside a frame is an error.
pub fn read_frame(reader: &mut impl Read, max: u32) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max} byte limit"),
        ));
    }
    // Grow the buffer as bytes arrive instead of pre-allocating the full
    // claimed length: a peer that sends a maximum-sized header and then
    // stalls or disconnects pins only the memory for what it actually
    // delivered — with a permissive `max` the old `vec![0; len]` was a
    // 4-byte-costs-4-GiB amplification.
    let mut payload = Vec::with_capacity(len.min(INITIAL_PAYLOAD_CHUNK) as usize);
    let received = reader.take(u64::from(len)).read_to_end(&mut payload)?;
    if received < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed inside a frame payload",
        ));
    }
    Ok(Some(payload))
}

/// Encode a reply payload: tag byte then text.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + reply.text.len());
    payload.push(u8::from(!reply.ok));
    payload.extend_from_slice(reply.text.as_bytes());
    payload
}

/// Decode a reply payload.
pub fn decode_reply(payload: &[u8]) -> io::Result<Reply> {
    let (&tag, text) = payload
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty reply frame"))?;
    let text = std::str::from_utf8(text)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply text is not UTF-8"))?;
    match tag {
        0 => Ok(Reply::ok(text)),
        1 => Ok(Reply::err(text)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown reply tag {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"SELECT 1").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap().as_deref(),
            Some(&b"SELECT 1"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert_eq!(read_frame(&mut cursor, MAX_FRAME).unwrap(), None);
    }

    /// A frame reaches the transport in one `write` call: on a socket
    /// that is one segment and one wake-up of the peer.
    #[test]
    fn a_frame_is_one_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut writer, b":seq").unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, b"\0\0\0\x04:seq");
    }

    /// Polling returns as soon as a frame (or the peer's close) is there,
    /// gives up after its window when nothing is, and either way hands
    /// back a blocking socket.
    #[test]
    fn polling_sees_a_frame_or_a_close_and_leaves_the_socket_blocking() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();

        let window = Duration::from_millis(5);
        let start = Instant::now();
        poll_readable(&stream, window).unwrap();
        assert!(start.elapsed() >= window);
        // Blocking again: a read with nothing to read waits out its
        // timeout instead of failing at once.
        let timeout = Duration::from_millis(30);
        stream.set_read_timeout(Some(timeout)).unwrap();
        let start = Instant::now();
        assert!(stream.read(&mut [0u8; 1]).is_err());
        assert!(start.elapsed() >= timeout);

        let start = Instant::now();
        write_frame(&mut peer, b":seq").unwrap();
        poll_readable(&stream, Duration::from_secs(5)).unwrap();
        assert_eq!(
            read_frame(&mut stream, MAX_FRAME).unwrap().as_deref(),
            Some(&b":seq"[..])
        );
        drop(peer);
        poll_readable(&stream, Duration::from_secs(5)).unwrap();
        assert_eq!(read_frame(&mut stream, MAX_FRAME).unwrap(), None);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &[7u8; 64]).unwrap();
        let mut cursor = io::Cursor::new(buffer.clone());
        assert_eq!(
            read_frame(&mut cursor, 16).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        buffer.truncate(10); // header + partial payload
        let mut cursor = io::Cursor::new(buffer);
        assert!(read_frame(&mut cursor, MAX_FRAME).is_err());
        let mut cursor = io::Cursor::new(vec![0u8, 0]); // partial header
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Adversarial header: a peer claims the largest possible payload a
    /// permissive limit admits and sends nothing. The reader must fail
    /// with a clean EOF error after allocating proportionally to the
    /// zero bytes received — the eager `vec![0; len]` this replaces
    /// would have committed 4 GiB before reading the first body byte.
    #[test]
    fn claimed_max_header_with_no_body_fails_without_preallocation() {
        let mut frame = u32::MAX.to_be_bytes().to_vec();
        let mut cursor = io::Cursor::new(frame.clone());
        assert_eq!(
            read_frame(&mut cursor, u32::MAX).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Same with a token body: still EOF, not a hang or huge alloc.
        frame.extend_from_slice(b"tiny");
        let mut cursor = io::Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cursor, u32::MAX).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// A frame that claims exactly the limit but truncates mid-body is an
    /// EOF error, and a full-length one at the limit still round-trips.
    #[test]
    fn at_limit_frames_truncated_and_complete() {
        let max = 64u32;
        let mut frame = max.to_be_bytes().to_vec();
        frame.extend_from_slice(&[7u8; 5]);
        let mut cursor = io::Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cursor, max).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &[9u8; 64]).unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(
            read_frame(&mut cursor, max).unwrap().as_deref(),
            Some(&[9u8; 64][..])
        );
    }

    #[test]
    fn replies_roundtrip() {
        for reply in [Reply::ok("3 rows"), Reply::err("unknown view v")] {
            assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
        }
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[9, b'x']).is_err());
    }
}
