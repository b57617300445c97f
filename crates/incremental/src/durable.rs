//! The stateful runtime and its optional commit log: write-ahead log,
//! snapshots, recovery.
//!
//! [`Runtime`] is the one type every surface holds: a [`ViewRuntime`]
//! plus, when it was opened over a data directory, a commit log. Each
//! mutation crosses one seam — validate, write ahead, commit in memory —
//! and the write-ahead step is the only thing the log adds, so an
//! in-memory runtime ([`Runtime::memory`]) and a durable one
//! ([`Runtime::open`]) maintain their views through the same code. A
//! durable runtime persists every committed mutation, so a process crash
//! (or plain restart) replays to exactly the acked state:
//!
//! * **`wal.log`** — a sequence of CRC-framed records
//!   ([`balg_core::wal`]), one per mutation: update batches (the hot
//!   path), base loads, view registrations and drops. Records carry
//!   monotonic LSNs. A record is written (and, by default, fsynced)
//!   *before* the in-memory commit, and only pre-validated batches are
//!   logged — so every logged record replays cleanly, every acked commit
//!   survives, and a torn tail can only be an un-acked suffix. The file
//!   grows in steps of [`WAL_STEP`] bytes rather than by each record, so
//!   most commits overwrite inside its length and their fsync flushes no
//!   new file size: while a runtime is open, or after a crash, `wal.log`
//!   is its frames followed by a zero tail up to the next step, and the
//!   log ends at the first empty frame. A clean close cuts the file back
//!   to its frames.
//! * **`snapshot.balg`** — a full image of the runtime (bases, view
//!   definitions, dropped-view tombstones, counters) written by
//!   [`Runtime::checkpoint`]: to `snapshot.tmp` first, fsynced,
//!   atomically renamed, directory fsynced, and only then is the WAL
//!   truncated. A crash at any point leaves either the old or the new
//!   snapshot intact, never a half state; WAL records already covered by
//!   the surviving snapshot are skipped on replay by LSN.
//!
//! [`Runtime::open`] loads the snapshot (if any), replays the WAL tail,
//! **truncates** — rather than fails on — a torn or corrupt final
//! record, re-derives all views, and resumes with the next LSN. A record
//! that passes its checksum but does not decode is a torn tail only when
//! no valid record follows it; in the middle of the log it fails the
//! open with [`DurableError::Corrupt`] and truncates nothing, since the
//! records behind it are acked commits.
//!
//! The process never sees a kill, so the runtime has no hook for one.
//! The recovery suites build the directory a kill at any WAL byte offset
//! or checkpoint step would leave from the bytes a clean run of the same
//! scenario wrote (`tests/common/crash.rs` holds that persistence model),
//! reopen it, and compare the runtime against a never-crashed twin of
//! the acked operations — and, step by step, a durable runtime against
//! an in-memory one.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::{Expr, Var};
use balg_core::wal::{
    frame, frames, get_bag, get_expr, put_bag, put_expr, put_str, put_u64, ByteReader, DecodeError,
};
use balg_core::zbag::ZInt;

use crate::runtime::{
    check_base, check_view, render_stats, DroppedView, UpdateBatch, UpdateError, ViewRuntime,
};

/// WAL record payload tags. Tag `0` is deliberately unused: an all-zero
/// frame header ("zero-filled tail") decodes as an empty payload, and the
/// replay loop rejects empty payloads — so zeroed disk regions can never
/// masquerade as records.
const REC_BATCH: u8 = 1;
const REC_LOAD_BASE: u8 = 2;
const REC_CREATE_VIEW: u8 = 3;
const REC_DROP_VIEW: u8 = 4;
const REC_META: u8 = 5;

/// Snapshot frame tags (distinct from WAL record tags so a file mix-up is
/// caught immediately).
const SNAP_HEADER: u8 = 0x10;
const SNAP_BASE: u8 = 0x11;
const SNAP_VIEW: u8 = 0x12;
const SNAP_TOMBSTONE: u8 = 0x13;
const SNAP_META: u8 = 0x14;
const SNAP_FOOTER: u8 = 0x1F;

/// Snapshot format version written in the header frame.
const SNAP_VERSION: u64 = 1;

/// `wal.log` grows in steps of this many bytes, not by each frame. The
/// commit that crosses a step boundary sizes the file up to the next
/// multiple of the step (sparse, with `set_len`); every other commit
/// overwrites bytes inside the file's length, so its `fdatasync` flushes
/// data and no new file size.
pub const WAL_STEP: u64 = 1 << 20;

/// One durable mutation, as logged to and replayed from the WAL.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A validated update batch: `(base, ℤ-delta)` pairs.
    Batch {
        /// This record's log sequence number.
        lsn: u64,
        /// Per-base deltas, in base-name order.
        deltas: Vec<(Var, Bag<ZInt>)>,
    },
    /// A wholesale base load/replace.
    LoadBase {
        /// This record's log sequence number.
        lsn: u64,
        /// The base bag name.
        name: String,
        /// The full new contents.
        bag: Bag,
    },
    /// A view registration.
    CreateView {
        /// This record's log sequence number.
        lsn: u64,
        /// The view name.
        name: String,
        /// The view's defining expression.
        expr: Expr,
    },
    /// A view removal.
    DropView {
        /// This record's log sequence number.
        lsn: u64,
        /// The view name.
        name: String,
    },
    /// An opaque key/value annotation persisted alongside the runtime —
    /// the SQL layer stores its catalog (declared tables, view output
    /// shapes) here so a reopened service speaks the same schema.
    Meta {
        /// This record's log sequence number.
        lsn: u64,
        /// The annotation key.
        key: String,
        /// The new value (`None` deletes the key).
        value: Option<String>,
    },
}

impl WalRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::Batch { lsn, .. }
            | WalRecord::LoadBase { lsn, .. }
            | WalRecord::CreateView { lsn, .. }
            | WalRecord::DropView { lsn, .. }
            | WalRecord::Meta { lsn, .. } => *lsn,
        }
    }

    /// Encode to a WAL payload (to be framed by the caller).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Batch { lsn, deltas } => {
                out.push(REC_BATCH);
                put_u64(&mut out, *lsn);
                put_u64(&mut out, deltas.len() as u64);
                for (name, delta) in deltas {
                    put_str(&mut out, name);
                    put_bag(&mut out, delta);
                }
            }
            WalRecord::LoadBase { lsn, name, bag } => {
                out.push(REC_LOAD_BASE);
                put_u64(&mut out, *lsn);
                put_str(&mut out, name);
                put_bag(&mut out, bag);
            }
            WalRecord::CreateView { lsn, name, expr } => {
                out.push(REC_CREATE_VIEW);
                put_u64(&mut out, *lsn);
                put_str(&mut out, name);
                put_expr(&mut out, expr);
            }
            WalRecord::DropView { lsn, name } => {
                out.push(REC_DROP_VIEW);
                put_u64(&mut out, *lsn);
                put_str(&mut out, name);
            }
            WalRecord::Meta { lsn, key, value } => {
                out.push(REC_META);
                put_u64(&mut out, *lsn);
                put_str(&mut out, key);
                match value {
                    Some(value) => {
                        out.push(1);
                        put_str(&mut out, value);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    /// Decode a WAL payload. Empty payloads are rejected (see tag `0`
    /// note above).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            REC_BATCH => {
                let lsn = r.u64()?;
                let count = r.u64()? as usize;
                let mut deltas = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let name = Var::from(r.str()?);
                    deltas.push((name, get_bag(&mut r)?));
                }
                WalRecord::Batch { lsn, deltas }
            }
            REC_LOAD_BASE => WalRecord::LoadBase {
                lsn: r.u64()?,
                name: r.str()?.to_owned(),
                bag: get_bag(&mut r)?,
            },
            REC_CREATE_VIEW => WalRecord::CreateView {
                lsn: r.u64()?,
                name: r.str()?.to_owned(),
                expr: get_expr(&mut r)?,
            },
            REC_DROP_VIEW => WalRecord::DropView {
                lsn: r.u64()?,
                name: r.str()?.to_owned(),
            },
            REC_META => {
                let lsn = r.u64()?;
                let key = r.str()?.to_owned();
                let value = match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?.to_owned()),
                    tag => return Err(DecodeError::Tag { what: "meta", tag }),
                };
                WalRecord::Meta { lsn, key, value }
            }
            tag => {
                return Err(DecodeError::Tag {
                    what: "record",
                    tag,
                })
            }
        };
        if !r.is_empty() {
            return Err(DecodeError::Invalid("trailing bytes after record"));
        }
        Ok(record)
    }
}

/// When to write a snapshot and truncate the WAL automatically. Explicit
/// [`Runtime::checkpoint`] calls are always honoured regardless.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint once the WAL exceeds this many bytes (`0` disables the
    /// size trigger).
    pub max_wal_bytes: u64,
    /// Checkpoint once this many batches have committed since the last
    /// checkpoint (`0` disables the count trigger).
    pub max_batches: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            max_wal_bytes: 4 << 20,
            max_batches: 1024,
        }
    }
}

impl CheckpointPolicy {
    /// A policy that never checkpoints automatically (tests, benchmarks).
    pub fn manual() -> Self {
        CheckpointPolicy {
            max_wal_bytes: 0,
            max_batches: 0,
        }
    }

    fn due(&self, wal_bytes: u64, batches: u64) -> bool {
        (self.max_wal_bytes > 0 && wal_bytes >= self.max_wal_bytes)
            || (self.max_batches > 0 && batches >= self.max_batches)
    }
}

/// An error from the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A persisted structure failed to decode: a damaged snapshot, or a
    /// WAL record that passes its checksum but does not decode while a
    /// valid record follows it. A torn or undecodable *final* WAL record
    /// is truncated, not surfaced as an error.
    Corrupt(String),
    /// The logical operation was rejected by the runtime; the log and
    /// the in-memory state are unchanged (validation precedes logging)
    /// or consistently committed (deterministic view drops).
    Update(UpdateError),
    /// The log was poisoned by an earlier failed write to the WAL file
    /// (or failed truncation after a checkpoint): the file may end in a
    /// torn frame, so nothing more is logged until the directory is
    /// reopened.
    Poisoned,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
            DurableError::Update(e) => write!(f, "{e}"),
            DurableError::Poisoned => f.write_str("runtime poisoned by an earlier log failure"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<UpdateError> for DurableError {
    fn from(e: UpdateError) -> Self {
        DurableError::Update(e)
    }
}

/// Durability counters surfaced by `:stats` in the CLI and server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Durability {
    /// LSN of the most recently logged record.
    pub lsn: u64,
    /// LSN covered by the on-disk snapshot (`0` if none).
    pub snapshot_lsn: u64,
    /// WAL bytes accumulated since the last checkpoint.
    pub wal_bytes: u64,
    /// Batches committed since the last checkpoint.
    pub batches_since_checkpoint: u64,
    /// Batches replayed from the WAL by the most recent open.
    pub replayed_batches: u64,
    /// Checkpoints taken by this process (not counting the snapshot
    /// loaded at open).
    pub checkpoints: u64,
}

/// The commit log of a durable [`Runtime`]: everything that exists only
/// on disk — the WAL file and its position, the snapshot's coverage, the
/// persisted annotations.
#[derive(Debug)]
struct Wal {
    /// Opaque persisted annotations (see [`WalRecord::Meta`]).
    metas: BTreeMap<String, String>,
    dir: PathBuf,
    file: File,
    /// Current WAL length in bytes (file offset of the next record, and
    /// where the file's cursor stands). Never the file's length.
    wal_bytes: u64,
    /// The file's length: `wal_bytes` after `open` and `checkpoint`,
    /// else `wal_bytes` rounded up to a [`WAL_STEP`]. The bytes between
    /// the two are zeros, which replay reads as the log's end.
    allocated: u64,
    /// LSN of the last logged record.
    lsn: u64,
    /// LSN covered by `snapshot.balg` (0 = no snapshot).
    snapshot_lsn: u64,
    batches_since_checkpoint: u64,
    replayed_batches: u64,
    checkpoints: u64,
    policy: CheckpointPolicy,
    sync_on_commit: bool,
    poisoned: bool,
}

impl Wal {
    fn check_poison(&self) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        Ok(())
    }

    /// Run one write to the log file. Any failure **poisons** the log:
    /// after a failed `write` or `fsync` the file may end in a torn
    /// frame, and a commit acked behind it would be truncated away by
    /// the next [`Runtime::open`] along with the tear.
    fn guarded(
        &mut self,
        write: impl FnOnce(&mut Wal) -> Result<(), DurableError>,
    ) -> Result<(), DurableError> {
        self.check_poison()?;
        let result = write(self);
        self.poisoned |= result.is_err();
        result
    }

    /// Append the record `build` makes of the next LSN as one frame at
    /// offset `wal_bytes`, first growing the file by a [`WAL_STEP`] if
    /// the frame would end past it; the LSN is taken only once the frame
    /// is written whole.
    fn append(&mut self, build: impl FnOnce(u64) -> WalRecord) -> Result<(), DurableError> {
        self.guarded(|wal| {
            let framed = frame(&build(wal.lsn + 1).encode());
            let end = wal.wal_bytes + framed.len() as u64;
            if end > wal.allocated {
                let allocated = end.next_multiple_of(WAL_STEP);
                wal.file.set_len(allocated)?;
                wal.allocated = allocated;
            }
            wal.file.write_all(&framed)?;
            wal.lsn += 1;
            wal.wal_bytes += framed.len() as u64;
            if let Some(obs) = crate::obs::dur_obs() {
                obs.wal_bytes.add(framed.len() as u64);
            }
            if wal.sync_on_commit {
                sync_data_timed(&wal.file)?;
            }
            Ok(())
        })
    }

    fn set_meta(&mut self, key: String, value: Option<String>) {
        match value {
            Some(value) => self.metas.insert(key, value),
            None => self.metas.remove(&key),
        };
    }

    fn durability(&self) -> Durability {
        Durability {
            lsn: self.lsn,
            snapshot_lsn: self.snapshot_lsn,
            wal_bytes: self.wal_bytes,
            batches_since_checkpoint: self.batches_since_checkpoint,
            replayed_batches: self.replayed_batches,
            checkpoints: self.checkpoints,
        }
    }

    /// Write a full snapshot of `views` and truncate the log. The
    /// sequence is crash-consistent at every step: tmp write → tmp fsync
    /// → atomic rename → directory fsync → WAL truncate; a kill between
    /// any two steps leaves a directory [`Runtime::open`] recovers
    /// exactly.
    fn checkpoint(&mut self, views: &ViewRuntime) -> Result<(), DurableError> {
        self.check_poison()?;
        let started = crate::obs::dur_obs().map(|_| std::time::Instant::now());
        let bytes = encode_snapshot(views, &self.metas, self.lsn);
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join("snapshot.balg"))?;
        // Persist the rename itself before truncating the log it
        // supersedes.
        File::open(&self.dir)?.sync_all()?;
        // A failure here leaves the file's length or cursor unknown, so
        // it poisons the log like a failed append.
        self.guarded(|wal| {
            wal.file.set_len(0)?;
            wal.file.sync_all()?;
            wal.file.rewind()?;
            Ok(())
        })?;
        self.wal_bytes = 0;
        self.allocated = 0;
        self.snapshot_lsn = self.lsn;
        self.batches_since_checkpoint = 0;
        self.checkpoints += 1;
        if let (Some(obs), Some(started)) = (crate::obs::dur_obs(), started) {
            obs.checkpoint_duration
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            obs.checkpoints.inc();
        }
        Ok(())
    }
}

impl Drop for Wal {
    /// A clean close cuts the file back to its frames, so a directory at
    /// rest holds the log and nothing after it. A poisoned log is left as
    /// the failed write left it: perhaps a torn frame, then the zero tail.
    fn drop(&mut self) {
        if !self.poisoned && self.allocated > self.wal_bytes {
            let _ = self.file.set_len(self.wal_bytes);
        }
    }
}

/// The one stateful runtime: a [`ViewRuntime`] and, when opened over a
/// data directory, the commit log every mutation is written to first.
/// See the module docs for the file layout and guarantees. In-memory
/// ([`Runtime::memory`]) the durability calls are no-ops.
///
/// The wrapper is what makes "mutations go through the log" a matter of
/// type: [`Runtime::runtime`] hands out `&ViewRuntime` only.
#[derive(Debug)]
pub struct Runtime {
    views: ViewRuntime,
    log: Option<Wal>,
}

impl Runtime {
    /// A purely in-memory runtime over `views`; nothing is persisted.
    pub fn memory(views: ViewRuntime) -> Runtime {
        Runtime { views, log: None }
    }

    /// Open (or create) the data directory: load the latest snapshot,
    /// replay the WAL tail (truncating a torn/corrupt final record),
    /// re-derive all views, and resume with monotonic LSNs. The log ends
    /// at its first empty frame: a crashed runtime leaves its frames
    /// followed by a zero tail up to the next [`WAL_STEP`], which is
    /// truncated like any torn tail. A record that does not decode in the
    /// middle of the log, with a valid record behind it, is
    /// [`DurableError::Corrupt`], and the log is left as it is.
    ///
    /// `limits` must match the budgets the directory was written under —
    /// deterministic replay of view drops depends on it.
    pub fn open(data_dir: impl AsRef<Path>, limits: Limits) -> Result<Runtime, DurableError> {
        let dir = data_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A leftover snapshot.tmp is a checkpoint that never committed
        // (crash before rename); the old snapshot is still authoritative.
        let tmp = dir.join("snapshot.tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }

        let mut views = ViewRuntime::with_limits(limits);
        let mut metas = BTreeMap::new();
        let mut snapshot_lsn = 0u64;
        let snap_path = dir.join("snapshot.balg");
        if snap_path.exists() {
            snapshot_lsn = load_snapshot(&snap_path, &mut views, &mut metas)?;
        }

        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(dir.join("wal.log"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut wal = Wal {
            metas,
            dir,
            file,
            wal_bytes: 0,
            allocated: 0,
            lsn: snapshot_lsn,
            snapshot_lsn,
            batches_since_checkpoint: 0,
            replayed_batches: 0,
            checkpoints: 0,
            policy: CheckpointPolicy::default(),
            sync_on_commit: true,
            poisoned: false,
        };
        let mut iter = frames(&bytes);
        let mut good_end = 0usize;
        while let Some((offset, payload)) = iter.next() {
            if payload.is_empty() {
                // Zero-filled region decoding as an "empty record" — see
                // the tag-0 note. Truncate here.
                break;
            }
            let record = match WalRecord::decode(payload) {
                Ok(record) => record,
                // At the tail, a record that passes its checksum but does
                // not decode is a torn write: resume before it. With a
                // valid record behind it, truncating would drop acked
                // commits, so the log is corrupt.
                Err(err) => match iter.next() {
                    Some((_, next)) if !next.is_empty() => {
                        let lsn = ByteReader::new(&payload[1..]).u64();
                        return Err(DurableError::Corrupt(format!(
                            "wal: the record at byte {offset} (lsn {}) does not decode ({err}), \
                             and a valid record follows it",
                            lsn.map_or_else(|_| "unreadable".to_owned(), |lsn| lsn.to_string())
                        )));
                    }
                    _ => break,
                },
            };
            // A record at or below the snapshot LSN is already covered
            // (crash after rename, before WAL truncation).
            if record.lsn() > snapshot_lsn {
                wal.lsn = record.lsn();
                replay(&mut views, &mut wal, record)?;
            }
            good_end = iter.offset();
        }
        if good_end < bytes.len() {
            // Torn or corrupt tail: truncate to the last good record so
            // future appends extend a clean log.
            wal.file.set_len(good_end as u64)?;
            wal.file.sync_all()?;
        }
        wal.wal_bytes = good_end as u64;
        wal.allocated = good_end as u64;
        // Every append writes at the cursor, so it starts at the log's end.
        wal.file.seek(SeekFrom::Start(wal.wal_bytes))?;
        Ok(Runtime {
            views,
            log: Some(wal),
        })
    }

    /// The wrapped in-memory runtime (reads only — mutations must go
    /// through the logging methods).
    pub fn runtime(&self) -> &ViewRuntime {
        &self.views
    }

    /// Replace the automatic checkpoint policy.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        if let Some(wal) = &mut self.log {
            wal.policy = policy;
        }
    }

    /// Whether every commit fsyncs before returning (default `true`).
    /// The server turns this off and calls [`Runtime::sync_wal`] once
    /// per drained writer-queue group, before acking any of them.
    pub fn set_sync_on_commit(&mut self, sync: bool) {
        if let Some(wal) = &mut self.log {
            wal.sync_on_commit = sync;
        }
    }

    /// Durability counters for `:stats` (`None` in memory).
    pub fn durability(&self) -> Option<Durability> {
        self.log.as_ref().map(Wal::durability)
    }

    /// The `:stats` report of this runtime — [`render_stats`] over its
    /// views and durability counters.
    pub fn render_stats(&self) -> String {
        render_stats(&self.views, self.durability().as_ref())
    }

    /// Flush WAL writes to stable storage. A no-op when every commit
    /// already syncs, and in memory.
    pub fn sync_wal(&mut self) -> Result<(), DurableError> {
        match &mut self.log {
            Some(wal) => wal.guarded(|wal| Ok(sync_data_timed(&wal.file)?)),
            None => Ok(()),
        }
    }

    /// The write-ahead step every mutation starts with: log the record
    /// (and, by default, fsync it) before anything changes in memory.
    fn write_ahead(&mut self, build: impl FnOnce(u64) -> WalRecord) -> Result<(), DurableError> {
        match &mut self.log {
            Some(wal) => wal.append(build),
            None => Ok(()),
        }
    }

    /// Log and apply one update batch. The batch is validated first
    /// (nothing is logged for a rejected batch), then logged and — by
    /// default — fsynced, then committed in memory, so an `Ok` from a
    /// durable runtime means the batch survives any later crash. A
    /// deterministic view drop ([`UpdateError::View`]) still commits and
    /// is still durable; the error is surfaced as it is by
    /// [`ViewRuntime::apply`].
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<(), DurableError> {
        // Ahead of the append's own check: a dead log refuses even the
        // batches that would log nothing or fail validation.
        if let Some(wal) = &self.log {
            wal.check_poison()?;
        }
        if batch.is_empty() {
            return Ok(());
        }
        let affected = self.views.validate(batch)?;
        self.write_ahead(|lsn| WalRecord::Batch {
            lsn,
            deltas: batch
                .iter()
                .filter(|(_, delta)| !delta.is_empty())
                .map(|(name, delta)| (name.clone(), delta.clone()))
                .collect(),
        })?;
        let applied = self.views.commit_validated(batch, &affected);
        if let Some(wal) = &mut self.log {
            wal.batches_since_checkpoint += 1;
            if wal.policy.due(wal.wal_bytes, wal.batches_since_checkpoint) {
                wal.checkpoint(&self.views)?;
            }
        }
        applied.map_err(DurableError::from)
    }

    /// Log and apply a base load/replace (see [`ViewRuntime::load_base`]).
    /// A name a live view holds is refused ([`UpdateError::NameTaken`]).
    pub fn load_base(&mut self, name: &str, bag: Bag) -> Result<(), DurableError> {
        self.check_name(name, false)?;
        check_base(name, &bag)?;
        self.write_ahead(|lsn| WalRecord::LoadBase {
            lsn,
            name: name.to_owned(),
            bag: bag.clone(),
        })?;
        self.views.load_base(name, bag).map_err(DurableError::from)
    }

    /// Log and apply a view registration (see
    /// [`ViewRuntime::create_view`]). A registration the runtime rejects
    /// is logged but rejected identically on replay, so the log and the
    /// state never diverge — except one the log could not decode, and a
    /// name a live view or a base already holds
    /// ([`UpdateError::NameTaken`]), which are refused before they are
    /// logged.
    pub fn create_view(&mut self, name: &str, expr: Expr) -> Result<&Bag, DurableError> {
        self.check_name(name, true)?;
        check_view(name, &expr)?;
        self.write_ahead(|lsn| WalRecord::CreateView {
            lsn,
            name: name.to_owned(),
            expr: expr.clone(),
        })?;
        self.views
            .create_view(name, expr)
            .map_err(DurableError::from)
    }

    /// The one naming rule: no name is both a live view and a base, and
    /// no live view is replaced. A registration (`for_view`) may take
    /// neither kind of name, a base load no view's. Replay bypasses it,
    /// so logs written before the rule still open.
    fn check_name(&self, name: &str, for_view: bool) -> Result<(), UpdateError> {
        let by_view = self.views.view(name).is_some();
        if by_view || (for_view && self.views.database().get(name).is_some()) {
            return Err(UpdateError::NameTaken {
                name: name.to_owned(),
                by_view,
            });
        }
        Ok(())
    }

    /// Log and apply a view drop (see [`ViewRuntime::drop_view`]).
    pub fn drop_view(&mut self, name: &str) -> Result<bool, DurableError> {
        self.write_ahead(|lsn| WalRecord::DropView {
            lsn,
            name: name.to_owned(),
        })?;
        Ok(self.views.drop_view(name))
    }

    /// A persisted annotation's current value (`None` in memory).
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.log.as_ref()?.metas.get(key).map(String::as_str)
    }

    /// Iterate persisted annotations in key order (empty in memory).
    pub fn metas(&self) -> impl Iterator<Item = (&str, &str)> {
        self.log
            .iter()
            .flat_map(|wal| &wal.metas)
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Log and apply an annotation write (`None` deletes the key). A
    /// no-op in memory — the caller's own structures are authoritative
    /// there.
    pub fn set_meta(&mut self, key: &str, value: Option<&str>) -> Result<(), DurableError> {
        let Some(wal) = &mut self.log else {
            return Ok(());
        };
        wal.append(|lsn| WalRecord::Meta {
            lsn,
            key: key.to_owned(),
            value: value.map(str::to_owned),
        })?;
        wal.set_meta(key.to_owned(), value.map(str::to_owned));
        Ok(())
    }

    /// Write a full snapshot and truncate the WAL, returning the
    /// post-checkpoint counters; `Ok(None)` in memory (nothing to
    /// persist).
    pub fn checkpoint(&mut self) -> Result<Option<Durability>, DurableError> {
        let Some(wal) = &mut self.log else {
            return Ok(None);
        };
        wal.checkpoint(&self.views)?;
        Ok(Some(wal.durability()))
    }
}

/// `File::sync_data` with the fsync latency recorded into the metrics
/// registry when one is installed.
fn sync_data_timed(wal: &File) -> std::io::Result<()> {
    let Some(obs) = crate::obs::dur_obs() else {
        return wal.sync_data();
    };
    let start = std::time::Instant::now();
    wal.sync_data()?;
    obs.fsync_duration
        .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    Ok(())
}

/// Apply one replayed record. Deterministic view failures (a view drop
/// that happened before the crash happens again now) are swallowed —
/// they are part of the state being reconstructed, not replay errors.
/// Base-level failures can only mean a corrupt or foreign log: batches
/// are validated before they are logged.
fn replay(views: &mut ViewRuntime, wal: &mut Wal, record: WalRecord) -> Result<(), DurableError> {
    match record {
        WalRecord::Batch { deltas, .. } => {
            let mut batch = UpdateBatch::new();
            for (name, delta) in &deltas {
                batch.merge_delta(name, delta);
            }
            match views.apply(&batch) {
                Ok(()) | Err(UpdateError::View { .. }) | Err(UpdateError::ViewDropped { .. }) => {}
                Err(e @ (UpdateError::UnknownBase(_) | UpdateError::NegativeBase { .. })) => {
                    return Err(DurableError::Corrupt(format!(
                        "logged batch failed validation on replay: {e}"
                    )));
                }
                Err(e) => return Err(DurableError::Update(e)),
            }
            wal.replayed_batches += 1;
            if let Some(obs) = crate::obs::dur_obs() {
                obs.replayed_batches.inc();
            }
        }
        WalRecord::LoadBase { name, bag, .. } => {
            // A dependent view's re-derivation failure is deterministic.
            let _ = views.load_base(&name, bag);
        }
        WalRecord::CreateView { name, expr, .. } => {
            // A rejected registration was rejected before the crash too.
            let _ = views.create_view(&name, expr);
        }
        WalRecord::DropView { name, .. } => {
            views.drop_view(&name);
        }
        WalRecord::Meta { key, value, .. } => wal.set_meta(key, value),
    }
    Ok(())
}

/// Serialize the full runtime state as a framed snapshot byte stream.
fn encode_snapshot(rt: &ViewRuntime, metas: &BTreeMap<String, String>, lsn: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let mut count = 0u64;
    let push = |out: &mut Vec<u8>, payload: &[u8]| {
        out.extend_from_slice(&frame(payload));
    };

    let mut header = vec![SNAP_HEADER];
    put_u64(&mut header, SNAP_VERSION);
    put_u64(&mut header, lsn);
    put_u64(&mut header, rt.batches());
    push(&mut out, &header);
    count += 1;

    for (name, bag) in rt.database().iter() {
        let mut payload = vec![SNAP_BASE];
        put_str(&mut payload, name);
        put_bag(&mut payload, bag);
        push(&mut out, &payload);
        count += 1;
    }
    for (name, view) in rt.views() {
        let mut payload = vec![SNAP_VIEW];
        put_str(&mut payload, name);
        put_expr(&mut payload, view.expr());
        push(&mut out, &payload);
        count += 1;
    }
    for (name, record) in rt.dropped() {
        let mut payload = vec![SNAP_TOMBSTONE];
        put_str(&mut payload, name);
        put_str(&mut payload, &record.cause);
        put_u64(&mut payload, record.at_batch);
        push(&mut out, &payload);
        count += 1;
    }
    for (key, value) in metas {
        let mut payload = vec![SNAP_META];
        put_str(&mut payload, key);
        put_str(&mut payload, value);
        push(&mut out, &payload);
        count += 1;
    }

    let mut footer = vec![SNAP_FOOTER];
    put_u64(&mut footer, count);
    push(&mut out, &footer);
    out
}

/// Load a snapshot file into a fresh runtime; returns the snapshot LSN.
/// Views are **re-derived** from their expressions against the restored
/// bases — the snapshot stores definitions, not materialized results, so
/// a snapshot can never resurrect a stale materialization.
fn load_snapshot(
    path: &Path,
    inner: &mut ViewRuntime,
    metas: &mut BTreeMap<String, String>,
) -> Result<u64, DurableError> {
    let bytes = std::fs::read(path)?;
    let corrupt = |what: &str| DurableError::Corrupt(format!("snapshot: {what}"));
    let mut iter = frames(&bytes);

    let (_, header) = iter.next().ok_or_else(|| corrupt("missing header"))?;
    let mut r = ByteReader::new(header);
    if r.u8().map_err(|e| corrupt(&e.to_string()))? != SNAP_HEADER {
        return Err(corrupt("first frame is not a header"));
    }
    let version = r.u64().map_err(|e| corrupt(&e.to_string()))?;
    if version != SNAP_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let lsn = r.u64().map_err(|e| corrupt(&e.to_string()))?;
    let batches = r.u64().map_err(|e| corrupt(&e.to_string()))?;

    let mut frames_seen = 1u64;
    let mut footer_count: Option<u64> = None;
    let mut views: Vec<(String, Expr)> = Vec::new();
    let mut tombstones: Vec<(String, DroppedView)> = Vec::new();
    for (_, payload) in iter.by_ref() {
        if footer_count.is_some() {
            return Err(corrupt("frames after footer"));
        }
        let mut r = ByteReader::new(payload);
        match r.u8().map_err(|e| corrupt(&e.to_string()))? {
            SNAP_BASE => {
                let name = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                let bag = get_bag(&mut r).map_err(|e| corrupt(&e.to_string()))?;
                inner
                    .load_base(&name, bag)
                    .expect("no views registered yet");
            }
            SNAP_VIEW => {
                let name = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                let expr = get_expr(&mut r).map_err(|e| corrupt(&e.to_string()))?;
                views.push((name, expr));
            }
            SNAP_TOMBSTONE => {
                let name = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                let cause = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                let at_batch = r.u64().map_err(|e| corrupt(&e.to_string()))?;
                tombstones.push((name, DroppedView { cause, at_batch }));
            }
            SNAP_META => {
                let key = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                let value = r.str().map_err(|e| corrupt(&e.to_string()))?.to_owned();
                metas.insert(key, value);
            }
            SNAP_FOOTER => {
                footer_count = Some(r.u64().map_err(|e| corrupt(&e.to_string()))?);
                continue;
            }
            tag => return Err(corrupt(&format!("unknown frame tag {tag:#04x}"))),
        }
        frames_seen += 1;
    }
    if iter.damaged_tail() {
        return Err(corrupt("damaged tail"));
    }
    match footer_count {
        Some(count) if count == frames_seen => {}
        Some(_) => return Err(corrupt("frame count mismatch")),
        None => return Err(corrupt("missing footer")),
    }

    // Bases are all in place; register views (re-deriving results) and
    // restore tombstones. A view that fails to re-derive here failed the
    // same way before the snapshot was written — but snapshots only store
    // *live* views, so surface the inconsistency loudly.
    for (name, expr) in views {
        inner
            .create_view(&name, expr)
            .map_err(|e| corrupt(&format!("view {name} failed to re-derive: {e}")))?;
    }
    for (name, record) in tombstones {
        inner.restore_tombstone(&name, record);
    }
    inner.restore_batches(batches);
    Ok(lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::value::Value;

    fn insert(n: i64) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch.insert("R", Value::int(n));
        batch
    }

    /// A failed write to the WAL file must kill the log: a commit acked
    /// after it would sit behind a possibly torn frame, and the next
    /// `open` truncates at the tear — losing an acked commit.
    #[test]
    fn a_log_io_error_poisons_the_runtime() {
        let dir = std::env::temp_dir().join(format!("balg-wal-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.load_base("R", Bag::new()).unwrap();
        rt.create_view("v", Expr::var("R").dedup()).unwrap();
        rt.apply(&insert(1)).unwrap();
        let before = rt.runtime().clone();

        // Every write through a read-only handle fails with a real
        // `io::Error` — no fault plan involved.
        rt.log.as_mut().unwrap().file = File::open(dir.join("wal.log")).unwrap();
        assert!(matches!(rt.apply(&insert(2)), Err(DurableError::Io(_))));
        assert_eq!(rt.runtime().database(), before.database());
        assert_eq!(rt.runtime().view("v"), before.view("v"));
        assert_eq!(rt.runtime().batches(), before.batches());
        assert!(matches!(rt.apply(&insert(3)), Err(DurableError::Poisoned)));
        // The dead log refuses even batches that would log nothing: an
        // empty one, and one that fails validation.
        assert!(matches!(
            rt.apply(&UpdateBatch::new()),
            Err(DurableError::Poisoned)
        ));
        let mut unknown = UpdateBatch::new();
        unknown.insert("nope", Value::int(1));
        assert!(matches!(rt.apply(&unknown), Err(DurableError::Poisoned)));
        assert!(matches!(rt.sync_wal(), Err(DurableError::Poisoned)));
        // With a writable handle back, only the poison keeps the drop from
        // cutting the file to its frames: the zero tail stays.
        let wal = rt.log.as_mut().unwrap();
        let logged = wal.wal_bytes;
        wal.file = OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        drop(rt);
        let len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(
            len > logged && len.is_multiple_of(WAL_STEP),
            "a poisoned log of {logged} bytes was left as a {len}-byte file"
        );

        let reopened = Runtime::open(&dir, Limits::default()).unwrap();
        assert_eq!(reopened.runtime().database(), before.database());
        assert_eq!(reopened.runtime().view("v"), before.view("v"));
        assert_eq!(reopened.runtime().batches(), before.batches());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
