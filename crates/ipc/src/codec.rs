//! Newline-delimited JSON framing.
//!
//! One serialized [`crate::message::Envelope`] per `\n`-terminated line.
//! JSON never contains a raw newline (the [`crate::json`] writer escapes
//! them), so line framing is unambiguous. A line-length cap protects the
//! scheduler from a misbehaving container writing garbage into the shared
//! socket. A line is written straight into its frame buffer and decoded
//! by pulling fields off it ([`crate::json`]), with no value tree between.

use crate::json::{self, FromJson, ToJson};
use std::io::{self, BufRead, Write};

/// Maximum accepted line length. Real messages are < 200 bytes; 64 KiB
/// leaves generous headroom while bounding a hostile writer.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Room a line buffer starts with. Every hot-path message fits (an
/// `alloc_done` with all its numbers at `u64::MAX` is about 170 bytes), so
/// its buffer is allocated once.
const LINE_CAPACITY: usize = 256;

/// `value` as one JSON line: its encoding and the `\n`, in one buffer.
pub(crate) fn encode_line<T: ToJson>(value: &T) -> Vec<u8> {
    let mut line = Vec::with_capacity(LINE_CAPACITY);
    value.write_json(&mut line);
    line.push(b'\n');
    line
}

/// Serialize `value` as one JSON line and flush it.
pub fn write_json<T: ToJson, W: Write>(w: &mut W, value: &T) -> io::Result<()> {
    w.write_all(&encode_line(value))?;
    w.flush()
}

/// Read one JSON line. Returns `Ok(None)` on clean EOF, an
/// `InvalidData` error for malformed JSON or an over-long line.
pub fn read_json<T: FromJson, R: BufRead>(r: &mut R) -> io::Result<Option<T>> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            // EOF: clean if nothing was read, mid-message otherwise.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-message",
            ));
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            break;
        }
        line.extend_from_slice(buf);
        let consumed = buf.len();
        r.consume(consumed);
        if line.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "protocol line exceeds MAX_LINE_BYTES",
            ));
        }
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "protocol line exceeds MAX_LINE_BYTES",
        ));
    }
    decode_line(&line).map(Some)
}

/// Decode one complete JSON line (its `\n` already stripped).
pub(crate) fn decode_line<T: FromJson>(line: &[u8]) -> io::Result<T> {
    let text =
        std::str::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    json::decode(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Envelope, Request};
    use std::io::BufReader;

    #[test]
    fn round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        let env = Envelope {
            id: 9,
            body: Request::Ping,
        };
        write_json(&mut buf, &env).unwrap();
        write_json(&mut buf, &env).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        let a: Envelope<Request> = read_json(&mut r).unwrap().unwrap();
        let b: Envelope<Request> = read_json(&mut r).unwrap().unwrap();
        assert_eq!(a, env);
        assert_eq!(b, env);
        let eof: Option<Envelope<Request>> = read_json(&mut r).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn malformed_json_is_invalid_data() {
        let mut r = BufReader::new(&b"{nonsense\n"[..]);
        let err = read_json::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_message_is_unexpected_eof() {
        let mut r = BufReader::new(&br#"{"id":1,"body":{"type":"ping""#[..]);
        let err = read_json::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_line_is_rejected() {
        let mut big = vec![b'x'; MAX_LINE_BYTES + 10];
        big.push(b'\n');
        let mut r = BufReader::new(big.as_slice());
        let err = read_json::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn interleaved_reads_resume_at_line_boundaries() {
        let mut buf = Vec::new();
        for id in 0..10u64 {
            write_json(
                &mut buf,
                &Envelope {
                    id,
                    body: Request::Ping,
                },
            )
            .unwrap();
        }
        let mut r = BufReader::new(buf.as_slice());
        for id in 0..10u64 {
            let env: Envelope<Request> = read_json(&mut r).unwrap().unwrap();
            assert_eq!(env.id, id);
        }
    }
}
