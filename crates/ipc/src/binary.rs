//! Length-prefixed compact binary framing — the hot-path alternative to
//! newline-delimited JSON.
//!
//! A frame is `[MAGIC][u32 LE payload length][payload]`. JSON frames
//! always begin with `{` (0x7B) and the magic byte is nothing a JSON line
//! can start with, so a reader can tell the two codecs apart from the
//! first byte of every frame: see [`read_auto`]. That makes negotiation
//! implicit and per-connection — a client simply starts speaking binary
//! and the server answers each request in the codec it arrived in. JSON
//! stays the default (and the CLI's debugging-friendly format).
//!
//! The payload encoding is deliberately minimal: LEB128 varints for all
//! integers (ids, pids, addresses and byte counts are small most of the
//! time), one tag byte per enum variant, varint-length-prefixed UTF-8 for
//! strings and a varint count before a list. No self-description. This
//! module holds the framing and those primitives; which tag and which
//! fields make up each message is the table in [`crate::message`], whose
//! macro generates every message's [`ToBinary`] / [`FromBinary`].

use crate::codec::MAX_LINE_BYTES;
use crate::json::{FromJson, ToJson};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;
use std::io::{self, BufRead, Read, Write};

/// First byte of every binary frame. JSON lines start with `{` (0x7B), so
/// the two codecs are distinguishable from one byte.
pub const MAGIC: u8 = 0xC5;

/// Maximum accepted payload length — same bound as the JSON line cap, for
/// the same reason (a misbehaving writer must not balloon the scheduler).
pub const MAX_FRAME_BYTES: usize = MAX_LINE_BYTES;

/// Which wire codec a peer is speaking. Detected per frame on the read
/// side; replies are written in the codec their request arrived in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireCodec {
    /// Newline-delimited JSON (the default; human-readable).
    Json,
    /// Length-prefixed compact binary (the hot-path option).
    Binary,
}

impl WireCodec {
    /// Label for logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }
}

/// Decode failure inside a well-framed payload.
#[derive(Debug)]
pub struct BinError(String);

impl BinError {
    pub(crate) fn msg(m: impl Into<String>) -> Self {
        BinError(m.into())
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary decode: {}", self.0)
    }
}

impl std::error::Error for BinError {}

/// Types that serialize onto the compact binary wire.
pub trait ToBinary {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Types that deserialize from the compact binary wire.
pub trait FromBinary: Sized {
    /// Decode one value, advancing the reader.
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError>;
}

/// Cursor over one frame's payload.
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Wrap a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub(crate) fn byte(&mut self) -> Result<u8, BinError> {
        let b = self
            .buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| BinError::msg("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| BinError::msg("length prefix exceeds payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_u64(r: &mut BinReader<'_>) -> Result<u64, BinError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.byte()?;
        if shift == 63 && (b & 0x7e) != 0 {
            return Err(BinError::msg("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(BinError::msg("varint too long"));
        }
    }
}

impl ToBinary for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
}

impl FromBinary for u64 {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        get_u64(r)
    }
}

impl ToBinary for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.as_u64());
    }
}

impl FromBinary for Bytes {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(Bytes::new(get_u64(r)?))
    }
}

impl ToBinary for ContainerId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.as_u64());
    }
}

impl FromBinary for ContainerId {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(ContainerId(get_u64(r)?))
    }
}

impl ToBinary for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl FromBinary for String {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        let len = get_u64(r)?;
        let len = usize::try_from(len).map_err(|_| BinError::msg("string length overflow"))?;
        let raw = r.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| BinError::msg(e.to_string()))
    }
}

impl<T: ToBinary> ToBinary for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: FromBinary> FromBinary for Vec<T> {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        // Every element encodes to at least one byte, so a count above the
        // bytes left cannot be honest: refuse it before reserving for it.
        let n = usize::try_from(get_u64(r)?)
            .ok()
            .filter(|&n| n <= r.buf.len() - r.pos)
            .ok_or_else(|| BinError::msg("element count exceeds payload"))?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// Serialize `value` into one complete frame (`MAGIC` + length + payload).
/// Frames are self-delimiting byte strings, so a batch of them can be
/// concatenated and written with a single syscall — the server's reply
/// coalescing path does exactly that.
pub fn encode_frame<T: ToBinary>(value: &T) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    value.encode(&mut payload);
    let mut frame = Vec::with_capacity(payload.len() + 5);
    frame.push(MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Write one frame and flush it.
pub fn write_binary<T: ToBinary, W: Write>(w: &mut W, value: &T) -> io::Result<()> {
    w.write_all(&encode_frame(value))?;
    w.flush()
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Read one binary frame whose `MAGIC` byte has already been consumed.
fn read_frame_body<T: FromBinary, R: Read>(r: &mut R) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(invalid("frame exceeds MAX_FRAME_BYTES"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload)
}

/// Decode one complete frame payload (`MAGIC` and length already stripped).
fn decode_payload<T: FromBinary>(payload: &[u8]) -> io::Result<T> {
    let mut reader = BinReader::new(payload);
    let value = T::decode(&mut reader).map_err(invalid)?;
    if !reader.is_empty() {
        return Err(invalid("trailing bytes after payload"));
    }
    Ok(value)
}

/// Read one binary frame. `Ok(None)` on clean EOF; `InvalidData` for a
/// wrong magic byte, over-long frame, or undecodable payload.
pub fn read_binary<T: FromBinary, R: BufRead>(r: &mut R) -> io::Result<Option<T>> {
    let first = {
        let buf = r.fill_buf()?;
        match buf.first() {
            None => return Ok(None),
            Some(&b) => b,
        }
    };
    if first != MAGIC {
        return Err(invalid(format!("bad frame magic 0x{first:02x}")));
    }
    r.consume(1);
    read_frame_body(r).map(Some)
}

/// Read one message in whichever codec the peer used for this frame,
/// detected from its first byte: `{` means a JSON line, [`MAGIC`] means a
/// binary frame, anything else is `InvalidData`. Returns the decoded
/// message and the codec it arrived in, so the reply can be written the
/// same way.
pub fn read_auto<T, R>(r: &mut R) -> io::Result<Option<(T, WireCodec)>>
where
    T: FromJson + FromBinary,
    R: BufRead,
{
    let first = {
        let buf = r.fill_buf()?;
        match buf.first() {
            None => return Ok(None),
            Some(&b) => b,
        }
    };
    match first {
        b'{' => Ok(crate::codec::read_json(r)?.map(|v| (v, WireCodec::Json))),
        MAGIC => {
            r.consume(1);
            read_frame_body(r).map(|v| Some((v, WireCodec::Binary)))
        }
        other => Err(invalid(format!("unrecognized frame start 0x{other:02x}"))),
    }
}

/// [`read_auto`] for a reader that accumulates bytes itself (one whose
/// timed reads may expire mid-frame): decode the frame at the head of
/// `buf` if all of it has arrived, and say how many bytes it took.
/// `Ok(None)` means "not complete yet"; the size limits and `InvalidData`
/// cases are those of [`read_auto`], raised as soon as the bytes at hand
/// show them.
pub(crate) fn take_auto<T>(buf: &[u8]) -> io::Result<Option<(T, usize)>>
where
    T: FromJson + FromBinary,
{
    match buf.first() {
        None => Ok(None),
        Some(b'{') => {
            let newline = buf.iter().position(|&b| b == b'\n');
            if newline.unwrap_or(buf.len()) > MAX_LINE_BYTES {
                return Err(invalid("protocol line exceeds MAX_LINE_BYTES"));
            }
            newline
                .map(|pos| Ok((crate::codec::decode_line(&buf[..pos])?, pos + 1)))
                .transpose()
        }
        Some(&MAGIC) => {
            let Some(len_bytes) = buf.get(1..5) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes(len_bytes.try_into().expect("slice of four")) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(invalid("frame exceeds MAX_FRAME_BYTES"));
            }
            buf.get(5..5 + len)
                .map(|payload| Ok((decode_payload(payload)?, 5 + len)))
                .transpose()
        }
        Some(other) => Err(invalid(format!("unrecognized frame start 0x{other:02x}"))),
    }
}

/// Serialize `value` in the given codec as one self-delimiting byte
/// string, suitable for concatenation into a batched write.
pub fn encode_with<T: ToBinary + ToJson>(value: &T, codec: WireCodec) -> Vec<u8> {
    match codec {
        WireCodec::Json => crate::codec::encode_line(value),
        WireCodec::Binary => encode_frame(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_json;
    use crate::message::{ApiKind, Envelope, Request, Response};
    use std::io::BufReader;

    #[test]
    fn binary_frames_are_smaller_than_json_lines() {
        // The point of the codec: the hot-path message must shrink.
        let env = Envelope {
            id: 12,
            body: Request::AllocRequest {
                container: ContainerId(3),
                pid: 4242,
                size: Bytes::mib(128),
                api: ApiKind::Malloc,
            },
        };
        let bin = encode_frame(&env);
        let mut json = Vec::new();
        write_json(&mut json, &env).unwrap();
        assert!(
            bin.len() * 2 < json.len(),
            "binary {} vs json {} bytes",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn auto_detect_reads_mixed_codecs_on_one_stream() {
        let a = Envelope {
            id: 1,
            body: Request::Ping,
        };
        let b = Envelope {
            id: 2,
            body: Request::QueryMetrics,
        };
        let mut buf = Vec::new();
        write_json(&mut buf, &a).unwrap();
        write_binary(&mut buf, &b).unwrap();
        write_json(&mut buf, &b).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        let (x, cx): (Envelope<Request>, _) = read_auto(&mut r).unwrap().unwrap();
        let (y, cy): (Envelope<Request>, _) = read_auto(&mut r).unwrap().unwrap();
        let (z, cz): (Envelope<Request>, _) = read_auto(&mut r).unwrap().unwrap();
        assert_eq!((x, cx), (a, WireCodec::Json));
        assert_eq!((y.clone(), cy), (b.clone(), WireCodec::Binary));
        assert_eq!((z, cz), (b, WireCodec::Json));
        let eof: Option<(Envelope<Request>, _)> = read_auto(&mut r).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn take_auto_waits_for_whole_frames_and_reports_their_length() {
        let a = Envelope {
            id: 1,
            body: Request::Ping,
        };
        let b = Envelope {
            id: 2,
            body: Request::QueryHome {
                container: ContainerId(7),
            },
        };
        let first = encode_with(&a, WireCodec::Json);
        let second = encode_with(&b, WireCodec::Binary);
        let stream = [first.clone(), second.clone(), first.clone()].concat();
        // Every proper prefix of a frame is "not yet", never an error.
        for cut in 0..first.len() {
            assert!(take_auto::<Envelope<Request>>(&stream[..cut])
                .unwrap()
                .is_none());
        }
        for cut in 0..second.len() {
            assert!(take_auto::<Envelope<Request>>(&second[..cut])
                .unwrap()
                .is_none());
        }
        // Whole frames come off the head one at a time, whatever follows.
        let (x, used) = take_auto::<Envelope<Request>>(&stream).unwrap().unwrap();
        assert_eq!((x, used), (a.clone(), first.len()));
        let rest = &stream[used..];
        let (y, used) = take_auto::<Envelope<Request>>(rest).unwrap().unwrap();
        assert_eq!((y, used), (b, second.len()));
        let (z, used) = take_auto::<Envelope<Request>>(&rest[used..])
            .unwrap()
            .unwrap();
        assert_eq!((z, used), (a, first.len()));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let env = Envelope {
            id: 7,
            body: Request::Register {
                container: ContainerId(1),
                limit: Bytes::mib(100),
            },
        };
        let full = encode_frame(&env);
        // Every proper prefix must fail cleanly, never panic or hang.
        for cut in 1..full.len() {
            let mut r = BufReader::new(&full[..cut]);
            let err = read_binary::<Envelope<Request>, _>(&mut r).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "prefix of {cut} bytes"
            );
        }
    }

    /// Iterations for the decoder fuzzers: a PR-sized 2000 unless the
    /// nightly deep tier raises it via `CONVGPU_FUZZ_ITERS` (the seeds stay
    /// fixed; more iterations walk further down the same streams).
    fn fuzz_iters() -> u64 {
        std::env::var("CONVGPU_FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2000)
    }

    /// xorshift* — deterministic, no external RNG dependency.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// Malformed-frame property test: drive the decoder with a
    /// deterministic pseudo-random byte fuzzer. It must reject garbage
    /// with an error (or happen to parse a valid frame) — never panic,
    /// never read past the frame.
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..fuzz_iters() {
            let len = (next() % 64) as usize;
            let mut payload = Vec::with_capacity(len);
            for _ in 0..len {
                payload.push(next() as u8);
            }
            let mut frame = vec![MAGIC];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let mut r = BufReader::new(frame.as_slice());
            // Must terminate with Ok or Err — the assertion is no panic.
            let _ = read_binary::<Envelope<Request>, _>(&mut r);
            let mut r = BufReader::new(frame.as_slice());
            let _ = read_binary::<Envelope<Response>, _>(&mut r);
        }
    }

    /// The seeds of the JSON-line fuzzer: the JSON line of every message
    /// in `wire_messages.golden` and every hand-written line of
    /// `json_decode.golden` (shown there with other bytes as `\xNN`).
    fn golden_json_lines() -> Vec<Vec<u8>> {
        let golden = |name: &str| {
            let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let mut lines: Vec<Vec<u8>> = golden("wire_messages.golden")
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| l.as_bytes().to_vec())
            .collect();
        for shown in golden("json_decode.golden").lines() {
            let Some(shown) = shown
                .strip_prefix("request ")
                .or_else(|| shown.strip_prefix("response "))
            else {
                continue;
            };
            let hex = |d: u8| char::from(d).to_digit(16);
            let mut line = Vec::new();
            let mut rest = shown.as_bytes();
            while let [b, tail @ ..] = rest {
                let escaped = match rest {
                    [b'\\', b'x', hi, lo, after @ ..] => hex(*hi)
                        .zip(hex(*lo))
                        .map(|(hi, lo)| ((hi * 16 + lo) as u8, after)),
                    _ => None,
                };
                let (byte, after) = escaped.unwrap_or((*b, tail));
                line.push(byte);
                rest = after;
            }
            lines.push(line);
        }
        lines
    }

    /// What the JSON-line fuzzer asserts of one line read as a `T`: if the
    /// decoder accepts it, `json::parse` does too, and the decoded value
    /// comes back unchanged from its own encoding. Says whether it was
    /// accepted.
    fn check_json_line<T>(line: &[u8]) -> bool
    where
        T: FromJson + ToJson + PartialEq + std::fmt::Debug,
    {
        let Ok(value) = crate::codec::decode_line::<T>(line) else {
            return false;
        };
        let text = String::from_utf8_lossy(line);
        assert!(
            crate::json::parse(&text).is_ok(),
            "decoded a line json::parse refuses: {text}"
        );
        let again = crate::codec::encode_line(&value);
        let back = crate::codec::decode_line::<T>(&again[..again.len() - 1])
            .unwrap_or_else(|e| panic!("{value:?} re-encoded does not decode: {e}"));
        assert_eq!(back, value, "re-encoding changed the value of {text}");
        true
    }

    /// Hostile-line property test for the JSON decoder: golden lines with
    /// bytes flipped, overwritten, inserted and deleted (often JSON's own
    /// punctuation), each read as a request and as a response. It must
    /// never panic, and [`check_json_line`] must hold for every line it
    /// accepts. Same budget as the byte fuzzer above.
    #[test]
    fn random_bytes_never_panic_the_decoder_in_json_lines() {
        const PUNCTUATION: &[u8] = b"{}[]\":,\\u0189eE+-. \t\rtfnx";
        let seeds = golden_json_lines();
        let mut next = xorshift(0x6a09_e667_f3bc_c908);
        let iters = fuzz_iters();
        let mut accepted = 0;
        for _ in 0..iters {
            let mut line = seeds[next() as usize % seeds.len()].clone();
            // One edit most of the time, up to three.
            let edits = if next().is_multiple_of(4) {
                1 + next() % 3
            } else {
                1
            };
            for _ in 0..edits {
                let at = next() as usize % (line.len() + 1);
                let byte = match next() % 2 {
                    0 => PUNCTUATION[next() as usize % PUNCTUATION.len()],
                    _ => next() as u8,
                };
                match (next() % 4, at < line.len()) {
                    (0, true) => line[at] ^= 1 << (next() % 8),
                    (1, true) => line[at] = byte,
                    (2, true) => {
                        line.remove(at);
                    }
                    _ => line.insert(at, byte),
                }
            }
            accepted += usize::from(check_json_line::<Envelope<Request>>(&line));
            accepted += usize::from(check_json_line::<Envelope<Response>>(&line));
        }
        // About one line in forty decodes: the accept path is exercised.
        assert!(
            accepted as u64 >= iters / 100,
            "{accepted} of {iters} lines decoded"
        );
    }

    #[test]
    fn corrupted_tag_and_trailing_bytes_are_invalid_data() {
        let env = Envelope {
            id: 1,
            body: Request::Ping,
        };
        let mut frame = encode_frame(&env);
        // Corrupt the body tag (last payload byte for Ping).
        let last = frame.len() - 1;
        frame[last] = 0xEE;
        let mut r = BufReader::new(frame.as_slice());
        let err = read_binary::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A frame whose payload has trailing bytes is rejected too.
        let mut payload = Vec::new();
        env.encode(&mut payload);
        payload.push(0x00);
        let mut frame = vec![MAGIC];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut r = BufReader::new(frame.as_slice());
        let err = read_binary::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut frame = vec![MAGIC];
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        let mut r = BufReader::new(frame.as_slice());
        let err = read_binary::<Envelope<Request>, _>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A list count is checked against the bytes that are there before
    /// anything is reserved for it: three bytes claiming 8192 devices are
    /// `InvalidData`, as is a count just one above what the payload holds.
    #[test]
    fn list_count_beyond_the_payload_is_rejected_before_reserving() {
        for payload in [
            // id 1, tag 8 (topology), kind "", 8192 devices, nothing more.
            &[1u8, 8, 0, 0x80, 0x40][..],
            // id 1, tag 10 (cluster), strategy "", 3 nodes in 2 bytes.
            &[1, 10, 0, 3, 0, 0][..],
        ] {
            let mut frame = vec![MAGIC];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(payload);
            let mut r = BufReader::new(frame.as_slice());
            let err = read_binary::<Envelope<Response>, _>(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("element count"), "{err}");
        }
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            let mut r = BinReader::new(&out);
            assert_eq!(get_u64(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
        // An overlong / overflowing varint is rejected.
        let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut r = BinReader::new(&overlong);
        assert!(get_u64(&mut r).is_err());
    }
}
