//! Durable router state: the write-ahead home-map journal.
//!
//! The [`crate::router::ClusterRouter`]'s home map — which node owns
//! each container, the limit it registered with, the placement hint the
//! router committed, and the wire-observed per-pid `used` ledger — is
//! the checkpoint a migration replays onto an adopting node. Before
//! this module that map lived only in memory: a restarted router
//! re-learned homes lazily with **zero** checkpoints, so a post-restart
//! migration off a dead node replayed `limit = 0`, `used = 0` onto the
//! adopter and committed-memory placement ran blind.
//!
//! The journal fixes that with the classic WAL shape. What a record
//! *means* is [`apply`], the one home-map transition: the live router
//! changes its map by applying a [`JournalOp`] with it, and replay
//! rebuilds the map by applying each record with it, so the two agree by
//! construction. The machinery around it is split into two halves so the
//! atomicity boundary is explicit:
//!
//! * **[`WalBuffer`] — the memory half.** The sequencer plus the
//!   append buffer, owned by the router *inside the same mutex as the
//!   home map itself*. A mutation and its journal record are therefore
//!   one critical section: the record's sequence number is assigned at
//!   the instant the map changes, so journal order always equals apply
//!   order, and a compaction can never stamp a `covered` sequence that
//!   includes a mutation its map capture missed. Appends are pure
//!   memory — no syscall ever happens under the home-map lock.
//! * **[`Journal`] — the file half.** Owns `wal.log` and
//!   `snapshot.v1`; every method does file I/O and is guarded by its
//!   own mutex in the router, taken *before* (never while holding) the
//!   home-map lock on the drain/compaction paths. Batches are drained
//!   from the buffer and written under one journal-lock critical
//!   section, so the file's record order is the buffer's append order.
//!
//! On-disk shapes:
//!
//! * **Append-only log** (`wal.log`) — every home-map mutation is one
//!   line: `place`, `recover`, `close`, `migrate` (commit of a
//!   hand-off), and the ledger deltas `done` / `free` / `exit`. Each
//!   record carries a monotonic sequence number and an FNV-1a checksum,
//!   so replay can tell a torn tail from a valid record.
//! * **Compacted snapshots** (`snapshot.v1`) — the whole map, written
//!   to a temp file, fsynced, and atomically renamed. The snapshot
//!   records the last sequence number it covers; journal records at or
//!   below it are skipped on replay, which makes the
//!   snapshot-then-truncate crash window harmless.
//! * **Torn-tail tolerance** — replay stops at the first record that
//!   fails to parse or checksum (a crash mid-append tears at most the
//!   final record) and reports it; it never panics on hostile bytes.
//!
//! Durability contract: a record *drained* to the log file survives a
//! router crash (`kill -9`); records still in the [`WalBuffer`] are
//! lost, which recovery reads as "that tail of operations never
//! happened" — exactly the state an observer of the drained prefix
//! would reconstruct. Drains happen on the sim-clock flush cadence as
//! requests arrive, and a background wall-clock ticker in the router
//! drains a quiescent buffer too, so a record's exposure is bounded by
//! roughly one tick even when traffic stops. The replay-equivalence
//! property (`tests/journal_recovery.rs`) pins the prefix semantics: a
//! journal truncated at *any* byte replays to the home map the live
//! router held after some prefix of its operations.

use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// File name of the append-only log inside the journal directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the compacted snapshot inside the journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot.v1";

/// Journal knobs. Flush/compaction pacing is sim time, so a
/// virtual-clock test drives the schedule deterministically; the idle
/// ticker is wall time because its whole job is to put a real-time
/// bound on buffered records when no request (and hence no sim-clock
/// observation) arrives.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding `wal.log` and `snapshot.v1` (created if
    /// missing).
    pub dir: PathBuf,
    /// Drain the append buffer to the OS when this much sim time has
    /// passed since the last drain. `ZERO` drains on every append
    /// (maximum durability, one `write(2)` per mutation).
    pub flush_interval: SimDuration,
    /// Compact (snapshot + truncate the log) after this many appended
    /// records. `0` never compacts on count (only at open).
    pub snapshot_every: u64,
    /// Wall-clock cadence of the router's background safety-net
    /// flusher: a quiescent router drains its buffered records at
    /// least this often, so `kill -9` during an idle period loses at
    /// most about one tick of records.
    pub idle_flush: std::time::Duration,
}

impl JournalConfig {
    /// Defaults tuned for the request hot path: 25 ms flush cadence,
    /// compaction every 4096 records, 100 ms idle safety-net tick.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            flush_interval: SimDuration::from_millis(25),
            snapshot_every: 4096,
            idle_flush: std::time::Duration::from_millis(100),
        }
    }
}

/// One home-map mutation, as recorded in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// A fresh placement: `register` committed on `node`.
    Place {
        container: ContainerId,
        node: String,
        limit: Bytes,
        hint: Bytes,
    },
    /// A home re-learned from a live node after a restart (zero
    /// checkpoint — the limit is node-side state the router never saw).
    Recover {
        container: ContainerId,
        node: String,
    },
    /// The home entry was dropped (container closed, or checkpointed
    /// out at the start of a migration).
    Close { container: ContainerId },
    /// A migration hand-off committed onto `node`, carrying the
    /// checkpointed budget. The carried `used` is re-seeded under the
    /// synthetic pid 0 (see [`apply`]).
    Migrate {
        container: ContainerId,
        node: String,
        limit: Bytes,
        hint: Bytes,
        used: Bytes,
    },
    /// Wire-observed `alloc_done`: `size` confirmed live for `pid`.
    AllocDone {
        container: ContainerId,
        pid: u64,
        size: Bytes,
    },
    /// Wire-observed `free`: the node reported `size` freed for `pid`.
    Free {
        container: ContainerId,
        pid: u64,
        size: Bytes,
    },
    /// Wire-observed `process_exit`: `pid`'s ledger entry is dropped.
    ProcessExit { container: ContainerId, pid: u64 },
}

/// A recovered (or snapshotted) home entry, node identified by *name*
/// so recovery survives a reordered `--node` list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveredHome {
    /// Name of the node the container was homed on.
    pub node: String,
    /// The limit the container registered with.
    pub limit: Bytes,
    /// Memory the router committed against the node at placement.
    pub hint: Bytes,
    /// The wire-observed live-bytes ledger, per pid.
    pub used_by_pid: BTreeMap<u64, Bytes>,
}

impl RecoveredHome {
    /// Total wire-observed live bytes across the container's pids — the
    /// `used` checkpoint a migration off a dead node carries.
    pub fn used(&self) -> Bytes {
        self.used_by_pid
            .values()
            .fold(Bytes::ZERO, |acc, &b| acc + b)
    }
}

/// What `Journal::open` reconstructed, plus how it got there.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The recovered home map.
    pub homes: BTreeMap<ContainerId, RecoveredHome>,
    /// Homes loaded from the snapshot (before journal replay).
    pub snapshot_homes: u64,
    /// Journal records applied on top of the snapshot.
    pub replayed: u64,
    /// Journal records skipped because the snapshot already covered
    /// their sequence number.
    pub skipped: u64,
    /// Replay stopped early at a torn or corrupt record.
    pub torn_tail: bool,
    /// The snapshot itself failed validation and was discarded.
    pub corrupt_snapshot: bool,
}

/// FNV-1a 64-bit over `bytes` — std-only, stable, good enough to tell
/// a torn record from a valid one (this is corruption *detection* for
/// crash recovery, not an integrity MAC).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Escape a node name for the space-separated record grammar: bytes
/// outside visible ASCII, spaces, and `%` itself become `%XX`.
fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b.is_ascii_graphic() && b != b'%' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on malformed escapes.
fn unescape(field: &str) -> Option<String> {
    let bytes = field.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

impl JournalOp {
    /// The container the op concerns. The router uses this to evict a
    /// preserved orphan checkpoint when its container id is reused by
    /// the live cluster.
    pub fn container(&self) -> ContainerId {
        match self {
            JournalOp::Place { container, .. }
            | JournalOp::Recover { container, .. }
            | JournalOp::Close { container }
            | JournalOp::Migrate { container, .. }
            | JournalOp::AllocDone { container, .. }
            | JournalOp::Free { container, .. }
            | JournalOp::ProcessExit { container, .. } => *container,
        }
    }

    /// The record payload (everything after the seq + checksum header).
    fn payload(&self) -> String {
        match self {
            JournalOp::Place {
                container,
                node,
                limit,
                hint,
            } => format!(
                "place {} {} {} {}",
                container.as_u64(),
                escape(node),
                limit.as_u64(),
                hint.as_u64()
            ),
            JournalOp::Recover { container, node } => {
                format!("recover {} {}", container.as_u64(), escape(node))
            }
            JournalOp::Close { container } => format!("close {}", container.as_u64()),
            JournalOp::Migrate {
                container,
                node,
                limit,
                hint,
                used,
            } => format!(
                "migrate {} {} {} {} {}",
                container.as_u64(),
                escape(node),
                limit.as_u64(),
                hint.as_u64(),
                used.as_u64()
            ),
            JournalOp::AllocDone {
                container,
                pid,
                size,
            } => format!("done {} {pid} {}", container.as_u64(), size.as_u64()),
            JournalOp::Free {
                container,
                pid,
                size,
            } => format!("free {} {pid} {}", container.as_u64(), size.as_u64()),
            JournalOp::ProcessExit { container, pid } => {
                format!("exit {} {pid}", container.as_u64())
            }
        }
    }

    /// Parse a payload produced by [`JournalOp::payload`].
    fn parse(payload: &str) -> Option<JournalOp> {
        let mut parts = payload.split(' ');
        let kind = parts.next()?;
        let num =
            |parts: &mut std::str::Split<'_, char>| -> Option<u64> { parts.next()?.parse().ok() };
        let op = match kind {
            "place" => JournalOp::Place {
                container: ContainerId(num(&mut parts)?),
                node: unescape(parts.next()?)?,
                limit: Bytes::new(num(&mut parts)?),
                hint: Bytes::new(num(&mut parts)?),
            },
            "recover" => JournalOp::Recover {
                container: ContainerId(num(&mut parts)?),
                node: unescape(parts.next()?)?,
            },
            "close" => JournalOp::Close {
                container: ContainerId(num(&mut parts)?),
            },
            "migrate" => JournalOp::Migrate {
                container: ContainerId(num(&mut parts)?),
                node: unescape(parts.next()?)?,
                limit: Bytes::new(num(&mut parts)?),
                hint: Bytes::new(num(&mut parts)?),
                used: Bytes::new(num(&mut parts)?),
            },
            "done" => JournalOp::AllocDone {
                container: ContainerId(num(&mut parts)?),
                pid: num(&mut parts)?,
                size: Bytes::new(num(&mut parts)?),
            },
            "free" => JournalOp::Free {
                container: ContainerId(num(&mut parts)?),
                pid: num(&mut parts)?,
                size: Bytes::new(num(&mut parts)?),
            },
            "exit" => JournalOp::ProcessExit {
                container: ContainerId(num(&mut parts)?),
                pid: num(&mut parts)?,
            },
            _ => return None,
        };
        if parts.next().is_some() {
            return None; // trailing garbage is not a valid record
        }
        Some(op)
    }
}

/// Apply one op to a home map. This is *the* home-map transition: the
/// live router changes its map through it (`ClusterRouter::mutate`) and
/// replay rebuilds the map through it, so the two cannot disagree about
/// what an op does. Returns whether the op applied — its container had
/// a home, or got one; an op that did not apply left the map untouched
/// and is not journaled. Ledger arithmetic is hostile-input safe:
/// additions saturate and subtractions clamp at zero, so an adversarial
/// journal (or a node confirming absurd totals) can skew the books but
/// never wrap or panic them.
pub fn apply(homes: &mut BTreeMap<ContainerId, RecoveredHome>, op: &JournalOp) -> bool {
    match op {
        JournalOp::Place {
            container,
            node,
            limit,
            hint,
        } => {
            homes.insert(
                *container,
                RecoveredHome {
                    node: node.clone(),
                    limit: *limit,
                    hint: *hint,
                    used_by_pid: BTreeMap::new(),
                },
            );
            true
        }
        JournalOp::Recover { container, node } => {
            homes.insert(
                *container,
                RecoveredHome {
                    node: node.clone(),
                    ..RecoveredHome::default()
                },
            );
            true
        }
        JournalOp::Close { container } => homes.remove(container).is_some(),
        JournalOp::Migrate {
            container,
            node,
            limit,
            hint,
            used,
        } => {
            // Per-pid attribution does not survive the wire (the adopter
            // pre-commits one total), so the carried budget is re-seeded
            // under the synthetic pid 0 — matching the node's books,
            // where the adopted bytes have no addresses and no real pid
            // can free them.
            let mut used_by_pid = BTreeMap::new();
            if *used > Bytes::ZERO {
                used_by_pid.insert(0, *used);
            }
            homes.insert(
                *container,
                RecoveredHome {
                    node: node.clone(),
                    limit: *limit,
                    hint: *hint,
                    used_by_pid,
                },
            );
            true
        }
        JournalOp::AllocDone {
            container,
            pid,
            size,
        } => homes.get_mut(container).is_some_and(|home| {
            let used = home.used_by_pid.entry(*pid).or_insert(Bytes::ZERO);
            *used = Bytes::new(used.as_u64().saturating_add(size.as_u64()));
            true
        }),
        // A `free` reporting more than the pid's recorded balance
        // (out-of-order delivery, node restart) zeroes the entry.
        JournalOp::Free {
            container,
            pid,
            size,
        } => homes.get_mut(container).is_some_and(|home| {
            if let Some(used) = home.used_by_pid.get_mut(pid) {
                *used = used.saturating_sub(*size);
            }
            true
        }),
        JournalOp::ProcessExit { container, pid } => homes.get_mut(container).is_some_and(|home| {
            home.used_by_pid.remove(pid);
            true
        }),
    }
}

/// Format one log line: `SEQ CRC PAYLOAD\n`, CRC over `SEQ PAYLOAD`.
fn encode_line(seq: u64, payload: &str) -> String {
    let body = format!("{seq:016x} {payload}");
    let crc = fnv1a64(body.as_bytes());
    format!("{seq:016x} {crc:016x} {payload}\n")
}

/// Decode one log line; `None` when torn/corrupt.
fn decode_line(line: &str) -> Option<(u64, &str)> {
    let (seq_hex, rest) = line.split_once(' ')?;
    let (crc_hex, payload) = rest.split_once(' ')?;
    let seq = u64::from_str_radix(seq_hex, 16).ok()?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    let body = format!("{seq:016x} {payload}");
    if fnv1a64(body.as_bytes()) != crc {
        return None;
    }
    Some((seq, payload))
}

/// The memory half of the journal: the sequence counter plus the
/// not-yet-drained record buffer. The router owns this **inside the
/// same mutex as the home map**, which is the whole point — a map
/// mutation and its record are sequenced in one critical section, so
/// no interleaving can journal mutations in an order the live map
/// never went through, and no compaction can cover a sequence number
/// whose mutation it did not capture. Every method is pure memory.
pub struct WalBuffer {
    /// Sequence number of the next record to append.
    next_seq: u64,
    /// Encoded records (newline-terminated lines) awaiting a drain.
    buf: String,
    /// Records currently in `buf`.
    buffered: u64,
    /// Records appended since the last snapshot (compaction trigger).
    appended_since_snapshot: u64,
    /// Sim-clock instant of the last drain (or snapshot).
    last_flush: SimTime,
    /// Copied from [`JournalConfig::flush_interval`].
    flush_interval: SimDuration,
    /// Copied from [`JournalConfig::snapshot_every`].
    snapshot_every: u64,
}

impl WalBuffer {
    /// Append one record — assigns the next sequence number. Pure
    /// memory; call while holding the lock that guards the map the op
    /// was just applied to.
    pub fn append(&mut self, op: &JournalOp) {
        self.buf
            .push_str(&encode_line(self.next_seq, &op.payload()));
        self.next_seq = self.next_seq.saturating_add(1);
        self.buffered += 1;
        self.appended_since_snapshot += 1;
    }

    /// Whether buffered records are due for a drain at sim time `now`
    /// (a zero interval drains on every append).
    pub fn flush_due(&self, now: SimTime) -> bool {
        self.buffered > 0
            && (self.flush_interval.is_zero()
                || now.saturating_since(self.last_flush) >= self.flush_interval)
    }

    /// Whether any records are buffered at all (the idle ticker's
    /// cheaper question — it drains regardless of the sim cadence).
    pub fn has_buffered(&self) -> bool {
        self.buffered > 0
    }

    /// Whether enough records accumulated since the last snapshot that
    /// the owner should compact.
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.appended_since_snapshot >= self.snapshot_every
    }

    /// Take the buffered records for writing and stamp the drain time.
    /// The caller must hold the journal (file) lock across both this
    /// call and the write, so batches land in the file in extraction —
    /// i.e. sequence — order.
    pub fn take_batch(&mut self, now: SimTime) -> String {
        self.buffered = 0;
        self.last_flush = now;
        std::mem::take(&mut self.buf)
    }

    /// Start a compaction: returns the sequence number the snapshot
    /// covers and discards the buffer — every buffered record's
    /// sequence is `<= covered`, and its effect is in the map state
    /// captured in this same critical section, so the records need
    /// never reach the file. Resets the compaction trigger.
    pub fn begin_snapshot(&mut self, now: SimTime) -> u64 {
        let covered = self.next_seq.saturating_sub(1);
        self.buf.clear();
        self.buffered = 0;
        self.appended_since_snapshot = 0;
        self.last_flush = now;
        covered
    }
}

/// The file half of the journal: owns `wal.log` and `snapshot.v1`.
/// Every method performs file I/O; the router guards the instance with
/// its own mutex and never holds the home-map lock while calling in
/// (it extracts batches from the [`WalBuffer`] under the map lock,
/// releases it, and writes under the journal lock alone).
pub struct Journal {
    cfg: JournalConfig,
    wal: File,
}

impl Journal {
    /// Open (or create) the journal under `cfg.dir` and replay the
    /// snapshot plus log into a [`Recovery`]; the returned
    /// [`WalBuffer`] continues the recovered sequence. Never panics on
    /// a torn or corrupt tail — replay stops at the first bad record
    /// and says so.
    pub fn open(cfg: JournalConfig) -> std::io::Result<(Journal, WalBuffer, Recovery)> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut recovery = Recovery::default();
        let snapshot_seq = load_snapshot(&cfg.dir.join(SNAPSHOT_FILE), &mut recovery);
        let wal_path = cfg.dir.join(WAL_FILE);
        let mut max_seq = snapshot_seq;
        if wal_path.exists() {
            let data = std::fs::read(&wal_path)?;
            let mut pos = 0usize;
            while pos < data.len() {
                // A record is only trusted complete with its trailing
                // newline: a final line the crash cut short — even one
                // that happens to parse — is part of the torn tail.
                let parsed = data[pos..].iter().position(|&b| b == b'\n').and_then(|nl| {
                    let raw = std::str::from_utf8(&data[pos..pos + nl]).ok()?;
                    let (seq, payload) = decode_line(raw)?;
                    Some((nl, seq, JournalOp::parse(payload)?))
                });
                let Some((nl, seq, op)) = parsed else {
                    recovery.torn_tail = true;
                    break;
                };
                pos += nl + 1;
                if seq <= snapshot_seq {
                    // Covered by the snapshot (the compaction crash
                    // window leaves such records behind harmlessly).
                    recovery.skipped += 1;
                    continue;
                }
                apply(&mut recovery.homes, &op);
                recovery.replayed += 1;
                max_seq = max_seq.max(seq);
            }
            if pos != data.len() {
                // Drop the torn bytes so the next append starts a clean
                // record instead of concatenating onto half a line.
                OpenOptions::new()
                    .write(true)
                    .open(&wal_path)?
                    .set_len(pos as u64)?;
            }
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        let buffer = WalBuffer {
            next_seq: max_seq.saturating_add(1),
            buf: String::new(),
            buffered: 0,
            appended_since_snapshot: 0,
            last_flush: SimTime::ZERO,
            flush_interval: cfg.flush_interval,
            snapshot_every: cfg.snapshot_every,
        };
        Ok((Journal { cfg, wal }, buffer, recovery))
    }

    /// The config this journal was opened with (the router reads the
    /// idle-flush cadence back out of it).
    pub fn config(&self) -> &JournalConfig {
        &self.cfg
    }

    /// Write one drained batch to the log. One `write(2)` per batch;
    /// a written batch survives a router crash (`kill -9`). Host-crash
    /// durability (`fsync`) happens only at snapshot time — see
    /// docs/CLUSTER.md "Durability & restart".
    pub fn write_batch(&mut self, batch: &str) -> std::io::Result<()> {
        self.wal.write_all(batch.as_bytes())
    }

    /// Compact: write the full map to `snapshot.v1` (temp file, fsync,
    /// atomic rename) and truncate the log. `covered` must be the
    /// sequence stamp captured by [`WalBuffer::begin_snapshot`] in the
    /// same critical section that cloned `homes`. A crash between
    /// rename and truncate is safe — the snapshot's sequence number
    /// makes the leftover log records no-ops on replay.
    pub fn snapshot(
        &mut self,
        covered: u64,
        homes: &BTreeMap<ContainerId, RecoveredHome>,
    ) -> std::io::Result<()> {
        let tmp = self.cfg.dir.join("snapshot.tmp");
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let header = format!("snapshot-v1 {}", homes.len());
            out.write_all(encode_line(covered, &header).as_bytes())?;
            for (container, home) in homes {
                let ledger = if home.used_by_pid.is_empty() {
                    "-".to_string()
                } else {
                    home.used_by_pid
                        .iter()
                        .map(|(pid, b)| format!("{pid}:{}", b.as_u64()))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let payload = format!(
                    "home {} {} {} {} {ledger}",
                    container.as_u64(),
                    escape(&home.node),
                    home.limit.as_u64(),
                    home.hint.as_u64()
                );
                out.write_all(encode_line(covered, &payload).as_bytes())?;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, self.cfg.dir.join(SNAPSHOT_FILE))?;
        // Truncate the log: future batches start a fresh file. Records
        // with sequence > covered cannot be lost here — they are still
        // in the buffer, and their drain is blocked on the journal
        // lock the caller holds across this whole compaction.
        let wal_path = self.cfg.dir.join(WAL_FILE);
        self.wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_path)?;
        Ok(())
    }
}

/// Load `snapshot.v1` into `recovery.homes`; returns the sequence
/// number it covers (0 when absent or discarded). Any malformed line
/// discards the whole snapshot — half a map would replay to a state
/// the live router never held.
fn load_snapshot(path: &Path, recovery: &mut Recovery) -> u64 {
    let Ok(file) = File::open(path) else {
        return 0;
    };
    let reader = BufReader::new(file);
    let mut lines = reader.split(b'\n');
    let parse_snapshot = |lines: &mut dyn Iterator<Item = std::io::Result<Vec<u8>>>| {
        let header = lines.next()?.ok()?;
        let header = String::from_utf8(header).ok()?;
        let (seq, payload) = decode_line(&header)?;
        let mut parts = payload.split(' ');
        if parts.next()? != "snapshot-v1" {
            return None;
        }
        let count: u64 = parts.next()?.parse().ok()?;
        let mut homes = BTreeMap::new();
        for _ in 0..count {
            let line = String::from_utf8(lines.next()?.ok()?).ok()?;
            let (line_seq, payload) = decode_line(&line)?;
            if line_seq != seq {
                return None;
            }
            let mut parts = payload.split(' ');
            if parts.next()? != "home" {
                return None;
            }
            let container = ContainerId(parts.next()?.parse().ok()?);
            let node = unescape(parts.next()?)?;
            let limit = Bytes::new(parts.next()?.parse().ok()?);
            let hint = Bytes::new(parts.next()?.parse().ok()?);
            let ledger = parts.next()?;
            let mut used_by_pid = BTreeMap::new();
            if ledger != "-" {
                for entry in ledger.split(',') {
                    let (pid, bytes) = entry.split_once(':')?;
                    used_by_pid.insert(pid.parse().ok()?, Bytes::new(bytes.parse().ok()?));
                }
            }
            homes.insert(
                container,
                RecoveredHome {
                    node,
                    limit,
                    hint,
                    used_by_pid,
                },
            );
        }
        Some((seq, homes))
    };
    match parse_snapshot(&mut lines) {
        Some((seq, homes)) => {
            recovery.snapshot_homes = homes.len() as u64;
            recovery.homes = homes;
            seq
        }
        None => {
            recovery.corrupt_snapshot = true;
            recovery.homes.clear();
            recovery.snapshot_homes = 0;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("convgpu-journal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Append `op` and drain it straight to the file — the unit tests'
    /// stand-in for the router's append-then-drain flow.
    fn append_now(j: &mut Journal, w: &mut WalBuffer, op: &JournalOp) {
        w.append(op);
        j.write_batch(&w.take_batch(SimTime::ZERO)).unwrap();
    }

    fn ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Place {
                container: ContainerId(1),
                node: "n0".into(),
                limit: Bytes::mib(400),
                hint: Bytes::mib(466),
            },
            JournalOp::AllocDone {
                container: ContainerId(1),
                pid: 7,
                size: Bytes::mib(300),
            },
            JournalOp::Free {
                container: ContainerId(1),
                pid: 7,
                size: Bytes::mib(200),
            },
            JournalOp::Place {
                container: ContainerId(2),
                node: "n1".into(),
                limit: Bytes::mib(100),
                hint: Bytes::mib(166),
            },
            JournalOp::ProcessExit {
                container: ContainerId(2),
                pid: 9,
            },
            JournalOp::Migrate {
                container: ContainerId(2),
                node: "n0".into(),
                limit: Bytes::mib(100),
                hint: Bytes::mib(166),
                used: Bytes::mib(40),
            },
            JournalOp::Close {
                container: ContainerId(1),
            },
            JournalOp::Recover {
                container: ContainerId(3),
                node: "n1".into(),
            },
        ]
    }

    #[test]
    fn every_op_roundtrips_through_the_line_format() {
        for op in ops() {
            let line = encode_line(42, &op.payload());
            let (seq, payload) = decode_line(line.trim_end()).expect("decodes");
            assert_eq!(seq, 42);
            assert_eq!(JournalOp::parse(payload), Some(op));
        }
    }

    #[test]
    fn node_names_with_spaces_and_percents_roundtrip() {
        let op = JournalOp::Place {
            container: ContainerId(5),
            node: "rack 1/node%2 ü".into(),
            limit: Bytes::mib(1),
            hint: Bytes::mib(2),
        };
        let payload = op.payload();
        assert_eq!(JournalOp::parse(&payload), Some(op));
    }

    #[test]
    fn append_drain_reopen_recovers_the_map() {
        let dir = temp_dir("reopen");
        let mut expected = BTreeMap::new();
        {
            let (mut j, mut w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
            assert!(rec.homes.is_empty());
            for op in ops() {
                append_now(&mut j, &mut w, &op);
                apply(&mut expected, &op);
            }
        }
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.homes, expected);
        assert_eq!(rec.replayed, ops().len() as u64);
        assert!(!rec.torn_tail);
        assert!(!rec.corrupt_snapshot);
    }

    #[test]
    fn buffered_records_drain_in_append_order_across_batches() {
        let dir = temp_dir("batches");
        let mut expected = BTreeMap::new();
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            let all = ops();
            // Two batches drained separately: file order must be the
            // append order, with contiguous sequence numbers.
            for op in &all[..3] {
                w.append(op);
                apply(&mut expected, op);
            }
            j.write_batch(&w.take_batch(SimTime::ZERO)).unwrap();
            for op in &all[3..] {
                w.append(op);
                apply(&mut expected, op);
            }
            j.write_batch(&w.take_batch(SimTime::ZERO)).unwrap();
        }
        let data = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        let seqs: Vec<u64> = data
            .lines()
            .map(|l| decode_line(l).expect("valid record").0)
            .collect();
        assert_eq!(seqs, (1..=ops().len() as u64).collect::<Vec<_>>());
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.homes, expected);
    }

    #[test]
    fn flush_due_follows_the_sim_cadence() {
        let dir = temp_dir("cadence");
        let cfg = JournalConfig {
            flush_interval: SimDuration::from_millis(25),
            ..JournalConfig::new(&dir)
        };
        let (_j, mut w, _) = Journal::open(cfg).unwrap();
        assert!(!w.flush_due(SimTime::ZERO), "empty buffer is never due");
        w.append(&ops()[0]);
        assert!(!w.flush_due(SimTime::ZERO + SimDuration::from_millis(10)));
        assert!(w.flush_due(SimTime::ZERO + SimDuration::from_millis(25)));
        assert!(w.has_buffered());
        let batch = w.take_batch(SimTime::ZERO + SimDuration::from_millis(25));
        assert!(!batch.is_empty());
        assert!(!w.has_buffered());
    }

    #[test]
    fn snapshot_compacts_and_reopen_skips_covered_records() {
        let dir = temp_dir("snapshot");
        let mut expected = BTreeMap::new();
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            for op in ops() {
                append_now(&mut j, &mut w, &op);
                apply(&mut expected, &op);
            }
            let covered = w.begin_snapshot(SimTime::ZERO);
            j.snapshot(covered, &expected).unwrap();
            // Post-snapshot tail.
            let tail = JournalOp::AllocDone {
                container: ContainerId(2),
                pid: 3,
                size: Bytes::mib(5),
            };
            append_now(&mut j, &mut w, &tail);
            apply(&mut expected, &tail);
        }
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.homes, expected);
        assert_eq!(rec.snapshot_homes, 2);
        assert_eq!(rec.replayed, 1, "only the post-snapshot tail replays");
    }

    #[test]
    fn begin_snapshot_discards_buffered_records_it_covers() {
        // Buffered (never-drained) records at snapshot time are part of
        // the captured map and must not reach the fresh WAL — replay
        // applying them on top of the snapshot would double-apply.
        let dir = temp_dir("discard");
        let mut state = BTreeMap::new();
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            for op in ops() {
                w.append(&op); // buffered only — never drained
                apply(&mut state, &op);
            }
            let covered = w.begin_snapshot(SimTime::ZERO);
            assert_eq!(covered, ops().len() as u64);
            assert!(!w.has_buffered(), "the covered tail is discarded");
            j.snapshot(covered, &state).unwrap();
            // The next record continues the sequence past `covered`.
            let tail = JournalOp::Close {
                container: ContainerId(2),
            };
            append_now(&mut j, &mut w, &tail);
            apply(&mut state, &tail);
        }
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.homes, state);
        assert_eq!(rec.skipped, 0, "nothing covered ever reached the WAL");
        assert_eq!(rec.replayed, 1);
    }

    #[test]
    fn compaction_crash_window_leftover_records_are_skipped() {
        // Simulate a crash between snapshot rename and log truncation:
        // write the log, snapshot, then put the pre-snapshot log back.
        let dir = temp_dir("crashwindow");
        let mut state = BTreeMap::new();
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            for op in ops() {
                append_now(&mut j, &mut w, &op);
                apply(&mut state, &op);
            }
            let stale_log = std::fs::read(dir.join(WAL_FILE)).unwrap();
            let covered = w.begin_snapshot(SimTime::ZERO);
            j.snapshot(covered, &state).unwrap();
            drop(j);
            std::fs::write(dir.join(WAL_FILE), stale_log).unwrap();
        }
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.homes, state, "double-apply would skew the ledger");
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.skipped, ops().len() as u64);
    }

    #[test]
    fn torn_tail_stops_replay_without_panicking() {
        let dir = temp_dir("torn");
        let mut states = vec![BTreeMap::new()];
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            for op in ops() {
                append_now(&mut j, &mut w, &op);
                let mut next = states.last().unwrap().clone();
                apply(&mut next, &op);
                states.push(next);
            }
        }
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        // Truncate at every byte: recovery must always be a prefix
        // state and must flag the torn tail when a record is cut.
        for cut in 0..=full.len() {
            std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
            let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
            assert!(
                states.contains(&rec.homes),
                "cut at byte {cut} recovered a state the live map never held"
            );
        }
    }

    #[test]
    fn corrupt_snapshot_is_discarded_not_panicked() {
        let dir = temp_dir("badsnap");
        let mut state = BTreeMap::new();
        {
            let (mut j, mut w, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            for op in ops() {
                append_now(&mut j, &mut w, &op);
                apply(&mut state, &op);
            }
            let covered = w.begin_snapshot(SimTime::ZERO);
            j.snapshot(covered, &state).unwrap();
        }
        // Flip one byte in the middle of the snapshot.
        let mut snap = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let mid = snap.len() / 2;
        snap[mid] ^= 0x40;
        std::fs::write(dir.join(SNAPSHOT_FILE), snap).unwrap();
        let (_j, _w, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(rec.corrupt_snapshot);
        // The log was truncated by the snapshot, so nothing replays:
        // recovery is empty rather than wrong.
        assert!(rec.homes.is_empty());
    }

    #[test]
    fn hostile_ledger_deltas_clamp_instead_of_wrapping() {
        let mut homes = BTreeMap::new();
        apply(
            &mut homes,
            &JournalOp::Place {
                container: ContainerId(1),
                node: "n0".into(),
                limit: Bytes::mib(10),
                hint: Bytes::mib(76),
            },
        );
        // Free more than was ever confirmed: clamps to zero.
        apply(
            &mut homes,
            &JournalOp::AllocDone {
                container: ContainerId(1),
                pid: 1,
                size: Bytes::mib(5),
            },
        );
        apply(
            &mut homes,
            &JournalOp::Free {
                container: ContainerId(1),
                pid: 1,
                size: Bytes::mib(500),
            },
        );
        assert_eq!(homes[&ContainerId(1)].used_by_pid[&1], Bytes::ZERO);
        // Saturating addition near u64::MAX: no wrap, no panic.
        apply(
            &mut homes,
            &JournalOp::AllocDone {
                container: ContainerId(1),
                pid: 2,
                size: Bytes::new(u64::MAX - 1),
            },
        );
        apply(
            &mut homes,
            &JournalOp::AllocDone {
                container: ContainerId(1),
                pid: 2,
                size: Bytes::new(u64::MAX - 1),
            },
        );
        assert_eq!(homes[&ContainerId(1)].used_by_pid[&2], Bytes::new(u64::MAX));
    }
}
