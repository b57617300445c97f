//! The directory a kill leaves, built from the bytes a clean run wrote.
//!
//! A killed process runs no further instruction, so what it leaves on
//! disk depends only on what it had written and on what the file system
//! kept of it. The model is the one the runtime's write order assumes
//! (Pillai et al., *All File Systems Are Not Created Equal*, OSDI 2014):
//!
//! * a write that the kill interrupts reaches the disk as a prefix of its
//!   bytes, and nothing after it is written;
//! * a file keeps the length `set_len` gave it, and bytes never written
//!   read as zeros;
//! * a rename lands whole or not at all.
//!
//! So a crash test runs its scenario once, cleanly, records what each op
//! wrote ([`CleanRun`]), and builds the state of a kill at any byte of
//! the log ([`crash_at`], [`CleanRun::crash`]) or at any step of a
//! checkpoint ([`checkpoint_crash`]) from those bytes.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use balg_incremental::durable::WAL_STEP;
use balg_incremental::Runtime;

/// Write to `dir/wal.log` what a kill leaves when it interrupts the write
/// of the first frame that ends past byte `cut` of the log `wal`, whose
/// frames end at `frame_ends`. Returns how many frames stay whole: the
/// kill acked exactly the records before the torn one.
///
/// The file is the frames before the torn one, the torn frame's bytes up
/// to `cut`, and zeros up to the length the runtime gave the file for
/// that frame: the next multiple of [`WAL_STEP`] past the frame's end.
/// The zeros read as the bytes the kill did not write, so the tear stops
/// before the frame's last non-zero byte: a frame that ends in zeros (an
/// empty base load) would otherwise be whole again.
pub fn crash_at(dir: &Path, wal: &[u8], frame_ends: &[u64], cut: u64) -> usize {
    let torn = frame_ends
        .iter()
        .position(|&end| end > cut)
        .unwrap_or_else(|| panic!("a cut at byte {cut} is past the log's end"));
    let start = torn.checked_sub(1).map_or(0, |i| frame_ends[i]);
    let end = frame_ends[torn];
    let frame = &wal[start as usize..end as usize];
    let last_non_zero = frame.iter().rposition(|&b| b != 0).unwrap_or(0) as u64;
    let keep = (cut - start).min(last_non_zero);
    std::fs::create_dir_all(dir).unwrap();
    let mut file = File::create(dir.join("wal.log")).unwrap();
    file.write_all(&wal[..(start + keep) as usize]).unwrap();
    file.set_len(end.next_multiple_of(WAL_STEP)).unwrap();
    torn
}

/// The step of [`Runtime::checkpoint`] a kill interrupts.
#[derive(Clone, Copy, Debug)]
pub enum CheckpointCrash {
    /// Half of `snapshot.tmp` is written, nothing is renamed.
    Write,
    /// `snapshot.tmp` is whole and synced, not yet renamed.
    Rename,
    /// `snapshot.balg` is renamed into place, the log not yet truncated.
    Truncate,
}

impl CheckpointCrash {
    /// Every crash point, in the order the checkpoint passes them.
    pub const ALL: [CheckpointCrash; 3] = [
        CheckpointCrash::Write,
        CheckpointCrash::Rename,
        CheckpointCrash::Truncate,
    ];
}

/// Add to `dir` what a checkpoint killed `at` one of its steps had
/// written of `snapshot`, the snapshot the checkpoint encodes (what the
/// same run writes when it checkpoints cleanly). `dir` is a copy of the
/// run's directory taken just before it checkpointed, so its log is
/// untouched.
pub fn checkpoint_crash(dir: &Path, snapshot: &[u8], at: CheckpointCrash) {
    let (name, bytes) = match at {
        CheckpointCrash::Write => ("snapshot.tmp", &snapshot[..snapshot.len() / 2]),
        CheckpointCrash::Rename => ("snapshot.tmp", snapshot),
        CheckpointCrash::Truncate => ("snapshot.balg", snapshot),
    };
    std::fs::write(dir.join(name), bytes).unwrap();
}

/// What a clean run wrote, op by op: for each epoch (the log between two
/// checkpoints) the snapshot in force, the log's bytes and frame ends,
/// and which op wrote each frame. [`CleanRun::crash`] rebuilds from it
/// the directory of a kill at any byte of any epoch's log.
#[derive(Debug)]
pub struct CleanRun {
    epochs: Vec<Epoch>,
    checkpoints: u64,
    ops: usize,
}

#[derive(Debug, Default)]
struct Epoch {
    snapshot: Option<Vec<u8>>,
    wal: Vec<u8>,
    frame_ends: Vec<u64>,
    /// The index of the op that wrote each frame.
    writers: Vec<usize>,
}

impl Default for CleanRun {
    fn default() -> Self {
        CleanRun {
            epochs: vec![Epoch::default()],
            checkpoints: 0,
            ops: 0,
        }
    }
}

impl CleanRun {
    /// Record what the op just run on `rt`, a runtime opened over the
    /// empty directory `dir`, wrote: at most one frame, or a checkpoint
    /// that starts a new epoch.
    pub fn record(&mut self, dir: &Path, rt: &Runtime) {
        let durability = rt.durability().expect("a durable runtime");
        if durability.checkpoints > self.checkpoints {
            self.checkpoints = durability.checkpoints;
            assert_eq!(durability.wal_bytes, 0, "a checkpoint truncates the log");
            self.epochs.push(Epoch {
                snapshot: Some(std::fs::read(dir.join("snapshot.balg")).unwrap()),
                ..Epoch::default()
            });
        }
        let epoch = self.epochs.last_mut().unwrap();
        let logged = epoch.wal.len() as u64;
        if durability.wal_bytes > logged {
            let mut file = File::open(dir.join("wal.log")).unwrap();
            file.seek(SeekFrom::Start(logged)).unwrap();
            let mut frame = vec![0; (durability.wal_bytes - logged) as usize];
            file.read_exact(&mut frame).unwrap();
            epoch.wal.extend_from_slice(&frame);
            epoch.frame_ends.push(durability.wal_bytes);
            epoch.writers.push(self.ops);
        }
        self.ops += 1;
    }

    /// The frame ends of the log of a run that never checkpointed.
    pub fn frame_ends(&self) -> impl Iterator<Item = u64> + '_ {
        assert_eq!(self.epochs.len(), 1, "the run checkpointed");
        self.epochs[0].frame_ends.iter().copied()
    }

    /// The length of the longest epoch's log.
    pub fn longest_log(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.wal.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Build in `dir` what a kill leaves when the first frame of the run
    /// that ends past byte `cut` of its epoch's log is torn there: that
    /// epoch's snapshot and its torn log ([`crash_at`]). Returns how many
    /// ops were acked: every op before the one that wrote the torn frame.
    pub fn crash(&self, dir: &Path, cut: u64) -> usize {
        let epoch = self
            .epochs
            .iter()
            .find(|epoch| epoch.wal.len() as u64 > cut)
            .unwrap_or_else(|| panic!("no log of the run reaches byte {cut}"));
        std::fs::create_dir_all(dir).unwrap();
        if let Some(snapshot) = &epoch.snapshot {
            std::fs::write(dir.join("snapshot.balg"), snapshot).unwrap();
        }
        epoch.writers[crash_at(dir, &epoch.wal, &epoch.frame_ends, cut)]
    }
}
