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
//! time), one tag byte per enum variant, and varint-length-prefixed UTF-8
//! for strings. No self-description — the schema is pinned by the
//! exhaustive roundtrip tests against the JSON codec.

use crate::codec::MAX_LINE_BYTES;
use crate::json::{FromJson, ToJson};
use crate::message::{
    AllocDecision, ApiKind, ClusterNodeStatus, Envelope, MigrationRecord, Request, Response,
    TopologyDevice,
};
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
    fn msg(m: impl Into<String>) -> Self {
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

    fn byte(&mut self) -> Result<u8, BinError> {
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

impl ToBinary for ApiKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ApiKind::Malloc => 0,
            ApiKind::MallocManaged => 1,
            ApiKind::MallocPitch => 2,
            ApiKind::Malloc3D => 3,
        });
    }
}

impl FromBinary for ApiKind {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        match r.byte()? {
            0 => Ok(ApiKind::Malloc),
            1 => Ok(ApiKind::MallocManaged),
            2 => Ok(ApiKind::MallocPitch),
            3 => Ok(ApiKind::Malloc3D),
            t => Err(BinError::msg(format!("unknown api kind tag {t}"))),
        }
    }
}

impl ToBinary for AllocDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AllocDecision::Granted => 0,
            AllocDecision::Rejected => 1,
        });
    }
}

impl FromBinary for AllocDecision {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        match r.byte()? {
            0 => Ok(AllocDecision::Granted),
            1 => Ok(AllocDecision::Rejected),
            t => Err(BinError::msg(format!("unknown decision tag {t}"))),
        }
    }
}

impl ToBinary for TopologyDevice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.device.encode(out);
        self.capacity.encode(out);
        self.unassigned.encode(out);
        self.containers.encode(out);
        self.policy.encode(out);
    }
}

impl FromBinary for TopologyDevice {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(TopologyDevice {
            node: FromBinary::decode(r)?,
            device: FromBinary::decode(r)?,
            capacity: FromBinary::decode(r)?,
            unassigned: FromBinary::decode(r)?,
            containers: FromBinary::decode(r)?,
            policy: FromBinary::decode(r)?,
        })
    }
}

impl ToBinary for ClusterNodeStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.health.encode(out);
        self.containers.encode(out);
        self.retries.encode(out);
        self.timeouts.encode(out);
        self.failovers.encode(out);
    }
}

impl FromBinary for ClusterNodeStatus {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(ClusterNodeStatus {
            node: FromBinary::decode(r)?,
            health: FromBinary::decode(r)?,
            containers: FromBinary::decode(r)?,
            retries: FromBinary::decode(r)?,
            timeouts: FromBinary::decode(r)?,
            failovers: FromBinary::decode(r)?,
        })
    }
}

impl ToBinary for MigrationRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.container.encode(out);
        self.from.encode(out);
        self.to.encode(out);
        self.limit.encode(out);
        self.used.encode(out);
        self.status.encode(out);
    }
}

impl FromBinary for MigrationRecord {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(MigrationRecord {
            container: FromBinary::decode(r)?,
            from: FromBinary::decode(r)?,
            to: FromBinary::decode(r)?,
            limit: FromBinary::decode(r)?,
            used: FromBinary::decode(r)?,
            status: FromBinary::decode(r)?,
        })
    }
}

impl ToBinary for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Register { container, limit } => {
                out.push(0);
                container.encode(out);
                limit.encode(out);
            }
            Request::RequestDir { container } => {
                out.push(1);
                container.encode(out);
            }
            Request::AllocRequest {
                container,
                pid,
                size,
                api,
            } => {
                out.push(2);
                container.encode(out);
                pid.encode(out);
                size.encode(out);
                api.encode(out);
            }
            Request::AllocDone {
                container,
                pid,
                addr,
                size,
            } => {
                out.push(3);
                container.encode(out);
                pid.encode(out);
                addr.encode(out);
                size.encode(out);
            }
            Request::AllocFailed {
                container,
                pid,
                size,
            } => {
                out.push(4);
                container.encode(out);
                pid.encode(out);
                size.encode(out);
            }
            Request::Free {
                container,
                pid,
                addr,
            } => {
                out.push(5);
                container.encode(out);
                pid.encode(out);
                addr.encode(out);
            }
            Request::MemInfo { container, pid } => {
                out.push(6);
                container.encode(out);
                pid.encode(out);
            }
            Request::ProcessExit { container, pid } => {
                out.push(7);
                container.encode(out);
                pid.encode(out);
            }
            Request::ContainerClose { container } => {
                out.push(8);
                container.encode(out);
            }
            Request::Ping => out.push(9),
            Request::QueryMetrics => out.push(10),
            Request::QueryTopology => out.push(11),
            Request::QueryHome { container } => {
                out.push(12);
                container.encode(out);
            }
            Request::QueryCluster => out.push(13),
            Request::Migrate {
                container,
                node,
                limit,
                used,
            } => {
                out.push(14);
                container.encode(out);
                node.encode(out);
                limit.encode(out);
                used.encode(out);
            }
            Request::QueryMigrations => out.push(15),
        }
    }
}

impl FromBinary for Request {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        match r.byte()? {
            0 => Ok(Request::Register {
                container: FromBinary::decode(r)?,
                limit: FromBinary::decode(r)?,
            }),
            1 => Ok(Request::RequestDir {
                container: FromBinary::decode(r)?,
            }),
            2 => Ok(Request::AllocRequest {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
                size: FromBinary::decode(r)?,
                api: FromBinary::decode(r)?,
            }),
            3 => Ok(Request::AllocDone {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
                addr: FromBinary::decode(r)?,
                size: FromBinary::decode(r)?,
            }),
            4 => Ok(Request::AllocFailed {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
                size: FromBinary::decode(r)?,
            }),
            5 => Ok(Request::Free {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
                addr: FromBinary::decode(r)?,
            }),
            6 => Ok(Request::MemInfo {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
            }),
            7 => Ok(Request::ProcessExit {
                container: FromBinary::decode(r)?,
                pid: FromBinary::decode(r)?,
            }),
            8 => Ok(Request::ContainerClose {
                container: FromBinary::decode(r)?,
            }),
            9 => Ok(Request::Ping),
            10 => Ok(Request::QueryMetrics),
            11 => Ok(Request::QueryTopology),
            12 => Ok(Request::QueryHome {
                container: FromBinary::decode(r)?,
            }),
            13 => Ok(Request::QueryCluster),
            14 => Ok(Request::Migrate {
                container: FromBinary::decode(r)?,
                node: FromBinary::decode(r)?,
                limit: FromBinary::decode(r)?,
                used: FromBinary::decode(r)?,
            }),
            15 => Ok(Request::QueryMigrations),
            t => Err(BinError::msg(format!("unknown request tag {t}"))),
        }
    }
}

impl ToBinary for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(0),
            Response::Dir { path } => {
                out.push(1);
                path.encode(out);
            }
            Response::Alloc { decision } => {
                out.push(2);
                decision.encode(out);
            }
            Response::Freed { size } => {
                out.push(3);
                size.encode(out);
            }
            Response::MemInfo { free, total } => {
                out.push(4);
                free.encode(out);
                total.encode(out);
            }
            Response::Error { message } => {
                out.push(5);
                message.encode(out);
            }
            Response::Pong => out.push(6),
            Response::Metrics { text } => {
                out.push(7);
                text.encode(out);
            }
            Response::Topology { kind, devices } => {
                out.push(8);
                kind.encode(out);
                put_u64(out, devices.len() as u64);
                for d in devices {
                    d.encode(out);
                }
            }
            Response::Home { node, device } => {
                out.push(9);
                node.encode(out);
                device.encode(out);
            }
            Response::Cluster { strategy, nodes } => {
                out.push(10);
                strategy.encode(out);
                put_u64(out, nodes.len() as u64);
                for n in nodes {
                    n.encode(out);
                }
            }
            Response::Migrations { records } => {
                out.push(11);
                put_u64(out, records.len() as u64);
                for rec in records {
                    rec.encode(out);
                }
            }
        }
    }
}

impl FromBinary for Response {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        match r.byte()? {
            0 => Ok(Response::Ok),
            1 => Ok(Response::Dir {
                path: FromBinary::decode(r)?,
            }),
            2 => Ok(Response::Alloc {
                decision: FromBinary::decode(r)?,
            }),
            3 => Ok(Response::Freed {
                size: FromBinary::decode(r)?,
            }),
            4 => Ok(Response::MemInfo {
                free: FromBinary::decode(r)?,
                total: FromBinary::decode(r)?,
            }),
            5 => Ok(Response::Error {
                message: FromBinary::decode(r)?,
            }),
            6 => Ok(Response::Pong),
            7 => Ok(Response::Metrics {
                text: FromBinary::decode(r)?,
            }),
            8 => {
                let kind = String::decode(r)?;
                let n = get_u64(r)?;
                let n = usize::try_from(n).map_err(|_| BinError::msg("device count overflow"))?;
                if n > MAX_FRAME_BYTES / 8 {
                    return Err(BinError::msg("device count exceeds frame bound"));
                }
                let mut devices = Vec::with_capacity(n);
                for _ in 0..n {
                    devices.push(TopologyDevice::decode(r)?);
                }
                Ok(Response::Topology { kind, devices })
            }
            9 => Ok(Response::Home {
                node: FromBinary::decode(r)?,
                device: FromBinary::decode(r)?,
            }),
            10 => {
                let strategy = String::decode(r)?;
                let n = get_u64(r)?;
                let n = usize::try_from(n).map_err(|_| BinError::msg("node count overflow"))?;
                if n > MAX_FRAME_BYTES / 8 {
                    return Err(BinError::msg("node count exceeds frame bound"));
                }
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(ClusterNodeStatus::decode(r)?);
                }
                Ok(Response::Cluster { strategy, nodes })
            }
            11 => {
                let n = get_u64(r)?;
                let n = usize::try_from(n).map_err(|_| BinError::msg("record count overflow"))?;
                if n > MAX_FRAME_BYTES / 8 {
                    return Err(BinError::msg("record count exceeds frame bound"));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(MigrationRecord::decode(r)?);
                }
                Ok(Response::Migrations { records })
            }
            t => Err(BinError::msg(format!("unknown response tag {t}"))),
        }
    }
}

impl<T: ToBinary> ToBinary for Envelope<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        self.body.encode(out);
    }
}

impl<T: FromBinary> FromBinary for Envelope<T> {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(Envelope {
            id: get_u64(r)?,
            body: T::decode(r)?,
        })
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
        WireCodec::Json => {
            let mut line = value.to_json_string().into_bytes();
            line.push(b'\n');
            line
        }
        WireCodec::Binary => encode_frame(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_json;
    use std::io::BufReader;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Register {
                container: ContainerId(3),
                limit: Bytes::mib(512),
            },
            Request::RequestDir {
                container: ContainerId(3),
            },
            Request::AllocRequest {
                container: ContainerId(3),
                pid: 42,
                size: Bytes::mib(128),
                api: ApiKind::Malloc,
            },
            Request::AllocRequest {
                container: ContainerId(3),
                pid: 42,
                size: Bytes::mib(128),
                api: ApiKind::MallocManaged,
            },
            Request::AllocRequest {
                container: ContainerId(3),
                pid: 42,
                size: Bytes::mib(128),
                api: ApiKind::MallocPitch,
            },
            Request::AllocRequest {
                container: ContainerId(3),
                pid: 42,
                size: Bytes::mib(128),
                api: ApiKind::Malloc3D,
            },
            Request::AllocDone {
                container: ContainerId(3),
                pid: 42,
                addr: 0x7000_0000,
                size: Bytes::mib(128),
            },
            Request::AllocFailed {
                container: ContainerId(3),
                pid: 42,
                size: Bytes::mib(128),
            },
            Request::Free {
                container: ContainerId(3),
                pid: 42,
                addr: u64::MAX,
            },
            Request::MemInfo {
                container: ContainerId(3),
                pid: 42,
            },
            Request::ProcessExit {
                container: ContainerId(3),
                pid: 42,
            },
            Request::ContainerClose {
                container: ContainerId(3),
            },
            Request::Ping,
            Request::QueryMetrics,
            Request::QueryTopology,
            Request::QueryHome {
                container: ContainerId(3),
            },
            Request::QueryCluster,
            Request::Migrate {
                container: ContainerId(3),
                node: String::new(),
                limit: Bytes::mib(512),
                used: Bytes::mib(128),
            },
            Request::Migrate {
                container: ContainerId(0),
                node: "node-1".into(),
                limit: Bytes::new(0),
                used: Bytes::new(0),
            },
            Request::QueryMigrations,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Dir {
                path: "/var/lib/convgpu/cnt-0003".into(),
            },
            Response::Alloc {
                decision: AllocDecision::Granted,
            },
            Response::Alloc {
                decision: AllocDecision::Rejected,
            },
            Response::Freed {
                size: Bytes::mib(64),
            },
            Response::MemInfo {
                free: Bytes::mib(100),
                total: Bytes::mib(512),
            },
            Response::Error {
                message: "unregistered container — π≈3.14".into(),
            },
            Response::Pong,
            Response::Metrics {
                text: "# TYPE convgpu_x counter\nconvgpu_x{type=\"ping\"} 3\n".into(),
            },
            Response::Topology {
                kind: "cluster".into(),
                devices: vec![
                    TopologyDevice {
                        node: "node-0".into(),
                        device: 0,
                        capacity: Bytes::gib(5),
                        unassigned: Bytes::mib(1234),
                        containers: 2,
                        policy: "fifo".into(),
                    },
                    TopologyDevice {
                        node: "node-1".into(),
                        device: 1,
                        capacity: Bytes::gib(16),
                        unassigned: Bytes::gib(16),
                        containers: 0,
                        policy: "random".into(),
                    },
                ],
            },
            Response::Topology {
                kind: "single".into(),
                devices: vec![],
            },
            Response::Home {
                node: String::new(),
                device: 1,
            },
            Response::Cluster {
                strategy: "spread".into(),
                nodes: vec![
                    ClusterNodeStatus {
                        node: "node-0".into(),
                        health: "up".into(),
                        containers: 3,
                        retries: 0,
                        timeouts: 0,
                        failovers: 0,
                    },
                    ClusterNodeStatus {
                        node: "node-1".into(),
                        health: "down".into(),
                        containers: 0,
                        retries: 5,
                        timeouts: 2,
                        failovers: 3,
                    },
                ],
            },
            Response::Cluster {
                strategy: "random".into(),
                nodes: vec![],
            },
            Response::Migrations {
                records: vec![
                    MigrationRecord {
                        container: ContainerId(3),
                        from: "node-0".into(),
                        to: "node-1".into(),
                        limit: Bytes::mib(512),
                        used: Bytes::mib(128),
                        status: "completed".into(),
                    },
                    MigrationRecord {
                        container: ContainerId(4),
                        from: "node-0".into(),
                        to: String::new(),
                        limit: Bytes::mib(256),
                        used: Bytes::new(0),
                        status: "rejected".into(),
                    },
                ],
            },
            Response::Migrations { records: vec![] },
        ]
    }

    /// Exhaustive roundtrip against the JSON codec: every `message.rs`
    /// variant must decode from its own binary frame to the identical
    /// value the JSON wire yields — the two codecs are interchangeable.
    #[test]
    fn binary_matches_json_for_every_request_variant() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let env = Envelope {
                id: i as u64 * 7 + u64::MAX / 2,
                body: req,
            };
            let mut json_buf = Vec::new();
            write_json(&mut json_buf, &env).unwrap();
            let mut jr = BufReader::new(json_buf.as_slice());
            let via_json: Envelope<Request> = crate::codec::read_json(&mut jr).unwrap().unwrap();

            let mut bin_buf = Vec::new();
            write_binary(&mut bin_buf, &env).unwrap();
            let mut br = BufReader::new(bin_buf.as_slice());
            let via_bin: Envelope<Request> = read_binary(&mut br).unwrap().unwrap();

            assert_eq!(via_json, env);
            assert_eq!(via_bin, env);
            assert_eq!(via_bin, via_json);
        }
    }

    #[test]
    fn binary_matches_json_for_every_response_variant() {
        for (i, resp) in all_responses().into_iter().enumerate() {
            let env = Envelope {
                id: i as u64,
                body: resp,
            };
            let mut json_buf = Vec::new();
            write_json(&mut json_buf, &env).unwrap();
            let mut jr = BufReader::new(json_buf.as_slice());
            let via_json: Envelope<Response> = crate::codec::read_json(&mut jr).unwrap().unwrap();

            let mut bin_buf = Vec::new();
            write_binary(&mut bin_buf, &env).unwrap();
            let mut br = BufReader::new(bin_buf.as_slice());
            let via_bin: Envelope<Response> = read_binary(&mut br).unwrap().unwrap();

            assert_eq!(via_json, env);
            assert_eq!(via_bin, env);
            assert_eq!(via_bin, via_json);
        }
    }

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

    /// Malformed-frame property test: drive the decoder with a
    /// deterministic pseudo-random byte fuzzer. It must reject garbage
    /// with an error (or happen to parse a valid frame) — never panic,
    /// never read past the frame. The iteration budget defaults to a
    /// PR-sized 2000 and is raised by the nightly deep tier via
    /// `CONVGPU_FUZZ_ITERS` (the seed stays fixed; more iterations walk
    /// further down the same deterministic stream).
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        let iters: u64 = std::env::var("CONVGPU_FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2000);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift* — deterministic, no external RNG dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..iters {
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
