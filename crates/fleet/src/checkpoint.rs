//! Versioned campaign checkpoints: interrupt anywhere, resume exactly.
//!
//! Every campaign slot is a pure function of `(campaign seed, fault
//! plan, item index)`, so a checkpoint only needs the *set of completed
//! per-item records* — no RNG positions, no partial state. The store
//! writes a snapshot every N completions via the atomic
//! tmp-file-then-rename dance, validates a fingerprint (seed, fleet
//! size, fault-plan spec) on load so a checkpoint can never resume the
//! wrong campaign, and carries a format version for forward evolution.
//! Resume recomputes only the missing items and merges by index; the
//! assembled outcome — fates, tables, attrition — is bitwise identical
//! to an uninterrupted run at any thread count.
//!
//! The campaign and the Farron evaluation share this machinery: each
//! snapshot type implements [`Snapshot`], is read back through the one
//! [`load`], and is driven by the one resumable loop
//! [`run_resumable`].

use crate::campaign::Fate;
use crate::chaos::OpFault;
use crate::lifecycle::Stage;
use crate::supervisor::{SlotError, SlotReport};
use sdc_model::ArchId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// Largest snapshot file [`load`] reads. A full-size chaos campaign
/// snapshot is about 2.4 MB.
pub const MAX_SNAPSHOT_BYTES: u64 = 256 << 20;

/// Identity of the campaign a checkpoint belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Campaign seed.
    pub seed: u64,
    /// Fleet size.
    pub total_cpus: u64,
    /// Canonical fault-plan spec ([`crate::chaos::FaultPlan::spec`]).
    pub plan: String,
}

serde::impl_json_struct!(Fingerprint {
    seed,
    total_cpus,
    plan,
});

/// One completed slot: everything needed to reassemble the campaign
/// outcome and its attrition stats without re-running the item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemRecord {
    /// Population index of the defective processor.
    pub index: u64,
    /// Its architecture (raw [`ArchId`]).
    pub arch: u8,
    /// `Some(stage)` when caught, `None` when escaped or lost.
    pub stage: Option<Stage>,
    /// Regular-round index when caught at `Stage::Regular`; 0 otherwise.
    pub round: u32,
    /// True when the slot exhausted its retries and produced no fate.
    pub lost: bool,
    /// Attempts made.
    pub attempts: u32,
    /// Faults observed, by [`OpFault::index`] (length 5).
    pub faults: Vec<u64>,
    /// Accounted backoff seconds.
    pub backoff_secs: f64,
}

serde::impl_json_struct!(ItemRecord {
    index,
    arch,
    stage,
    round,
    lost,
    attempts,
    faults,
    backoff_secs,
});

impl ItemRecord {
    /// Builds a record from one supervised slot.
    pub fn of(index: usize, arch: ArchId, fate: Option<Fate>, report: &SlotReport) -> ItemRecord {
        let (stage, round) = match fate {
            Some(Fate::Caught(s, r)) => (Some(s), r),
            Some(Fate::Escaped) | None => (None, 0),
        };
        ItemRecord {
            index: index as u64,
            arch: arch.0,
            stage,
            round,
            lost: fate.is_none(),
            attempts: report.attempts,
            faults: report.faults_by_kind.to_vec(),
            backoff_secs: report.backoff_secs,
        }
    }

    /// The fate this record encodes (`None` when the slot was lost).
    pub fn fate(&self) -> Option<Fate> {
        if self.lost {
            None
        } else {
            match self.stage {
                Some(s) => Some(Fate::Caught(s, self.round)),
                None => Some(Fate::Escaped),
            }
        }
    }

    /// Reconstructs the slot report for attrition accounting.
    pub fn report(&self) -> SlotReport {
        let mut faults = [0u64; OpFault::ALL.len()];
        for (acc, &n) in faults.iter_mut().zip(self.faults.iter()) {
            *acc = n;
        }
        SlotReport {
            attempts: self.attempts,
            faults_by_kind: faults,
            backoff_secs: self.backoff_secs,
            // The concrete losing error is not persisted — only that the
            // slot was lost — so reconstruction marks it generically.
            lost: if self.lost {
                Some(SlotError::Fault(OpFault::MachineOffline))
            } else {
                None
            },
        }
    }
}

/// A versioned, fingerprinted snapshot of completed campaign items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Which campaign this snapshot belongs to.
    pub fingerprint: Fingerprint,
    /// Completed items, in completion (not index) order.
    pub items: Vec<ItemRecord>,
}

serde::impl_json_struct!(CampaignCheckpoint {
    version,
    fingerprint,
    items,
});

/// Why a checkpoint could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file is larger than [`MAX_SNAPSHOT_BYTES`].
    TooLarge {
        /// Size of the file in bytes.
        bytes: u64,
    },
    /// The file did not parse as a checkpoint.
    Corrupt(String),
    /// The file is a checkpoint of a different format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different campaign.
    Mismatch {
        /// Fingerprint found in the file.
        found: Fingerprint,
        /// Fingerprint of the campaign being resumed.
        expected: Fingerprint,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::TooLarge { bytes } => write!(
                f,
                "checkpoint is {bytes} bytes, over the {MAX_SNAPSHOT_BYTES}-byte limit"
            ),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{expected}"
                )
            }
            CheckpointError::Mismatch { found, expected } => write!(
                f,
                "checkpoint is for campaign (seed={}, cpus={}, plan={}), \
                 not (seed={}, cpus={}, plan={})",
                found.seed,
                found.total_cpus,
                found.plan,
                expected.seed,
                expected.total_cpus,
                expected.plan
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl CampaignCheckpoint {
    /// An empty snapshot for `fingerprint`.
    pub fn empty(fingerprint: Fingerprint) -> CampaignCheckpoint {
        CampaignCheckpoint {
            version: FORMAT_VERSION,
            fingerprint,
            items: Vec::new(),
        }
    }

    /// Loads and validates a snapshot against the expected fingerprint
    /// ([`load`]).
    pub fn load(
        path: &Path,
        expected: &Fingerprint,
    ) -> Result<CampaignCheckpoint, CheckpointError> {
        load(path, expected)
    }
}

/// Writes snapshots every `every` completions, atomically.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    /// Completions between snapshot writes.
    pub every: usize,
    /// Testing hook simulating SIGKILL: [`run_resumable`] stops
    /// claiming work after this many *new* completions, leaving the
    /// last written snapshot on disk — exactly the state a killed
    /// process would leave behind.
    pub kill_after: Option<usize>,
}

impl CheckpointStore {
    /// A store writing to `path` every `every` completions.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointStore {
        CheckpointStore {
            path: path.into(),
            every: every.max(1),
            kill_after: None,
        }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the snapshot on disk: write to a sibling tmp
    /// file, fsync-free rename over the target (rename is atomic on the
    /// platforms we run on; a torn write can only ever leave the old
    /// snapshot or the new one, never a hybrid).
    pub fn write<T: Serialize>(&self, snapshot: &T) -> Result<(), CheckpointError> {
        let json =
            serde_json::to_string(snapshot).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, json).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(())
    }
}

/// A versioned, fingerprinted snapshot of completed work items, in
/// completion order.
pub trait Snapshot: Serialize + Deserialize + Send {
    /// One completed item.
    type Record: Clone + Send + Sync;
    /// Format version this build writes and reads.
    const VERSION: u32;
    /// The snapshot's format version and the run it belongs to.
    fn header(&self) -> (u32, &Fingerprint);
    /// Completed items.
    fn records(&mut self) -> &mut Vec<Self::Record>;
    /// Position of `record`'s item in the run's item list, if any.
    fn item_index(record: &Self::Record) -> Option<usize>;
    /// Why this build could not have written `record`, if it could not.
    fn check(record: &Self::Record) -> Result<(), String>;
}

impl Snapshot for CampaignCheckpoint {
    type Record = ItemRecord;
    const VERSION: u32 = FORMAT_VERSION;

    fn header(&self) -> (u32, &Fingerprint) {
        (self.version, &self.fingerprint)
    }

    fn records(&mut self) -> &mut Vec<ItemRecord> {
        &mut self.items
    }

    fn item_index(record: &ItemRecord) -> Option<usize> {
        usize::try_from(record.index).ok()
    }

    fn check(record: &ItemRecord) -> Result<(), String> {
        check_fault_counts(&record.faults)
    }
}

/// Checks that a persisted fault vector has one count per [`OpFault`].
pub fn check_fault_counts(faults: &[u64]) -> Result<(), String> {
    let (found, expected) = (faults.len(), OpFault::ALL.len());
    (found == expected)
        .then_some(())
        .ok_or_else(|| format!("{found} fault counts, expected {expected}"))
}

/// Loads a snapshot and validates it against the expected fingerprint.
///
/// Checks run in this order: the file size against
/// [`MAX_SNAPSHOT_BYTES`] (before reading), the JSON shape, the format
/// version (before the fingerprint: fields of a foreign format may not
/// mean the same thing), the fingerprint, then every record
/// ([`Snapshot::check`]).
pub fn load<S: Snapshot>(path: &Path, expected: &Fingerprint) -> Result<S, CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
    let file = std::fs::File::open(path).map_err(io)?;
    let mut bytes = file.metadata().map_err(io)?.len();
    let mut text = String::new();
    if bytes <= MAX_SNAPSHOT_BYTES {
        // The bound holds even where the size metadata understates the file.
        let mut bounded = file.take(MAX_SNAPSHOT_BYTES + 1);
        bounded.read_to_string(&mut text).map_err(io)?;
        bytes = bytes.max(text.len() as u64);
    }
    if bytes > MAX_SNAPSHOT_BYTES {
        return Err(CheckpointError::TooLarge { bytes });
    }
    let mut ck: S =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
    let (found, fingerprint) = ck.header();
    if found != S::VERSION {
        return Err(CheckpointError::Version {
            found,
            expected: S::VERSION,
        });
    }
    if fingerprint != expected {
        return Err(CheckpointError::Mismatch {
            found: fingerprint.clone(),
            expected: expected.clone(),
        });
    }
    for (i, record) in ck.records().iter().enumerate() {
        S::check(record).map_err(|e| CheckpointError::Corrupt(format!("record {i}: {e}")))?;
    }
    Ok(ck)
}

/// The one resumable work loop: applies `work` to every item of
/// `items` not already in `prior`, on `threads` workers
/// ([`crate::parallel::run_indexed`]), and returns every item's record
/// in item order — restored ones from `prior`, the rest freshly
/// computed.
///
/// With a `store`, each new record is appended to `prior` and the
/// snapshot is written atomically every [`CheckpointStore::every`]
/// completions and once at the end. Workers stop claiming items after
/// the first failed write or once [`CheckpointStore::kill_after`] new
/// items completed. The first write error is returned; a fired kill
/// hook returns `Ok(None)`, leaving the last written snapshot on disk.
/// `work` must be a pure function of `(index, item)` for the result to
/// be independent of thread count and of interruption.
pub fn run_resumable<T, S, F>(
    items: &[T],
    threads: usize,
    store: Option<&CheckpointStore>,
    mut prior: S,
    work: F,
) -> Result<Option<Vec<S::Record>>, CheckpointError>
where
    T: Sync,
    S: Snapshot,
    F: Fn(usize, &T) -> S::Record + Sync,
{
    let done: HashMap<usize, S::Record> = prior
        .records()
        .iter()
        .filter_map(|r| Some((S::item_index(r)?, r.clone())))
        .collect();
    struct Sink<S> {
        snapshot: S,
        new_done: usize,
        error: Option<CheckpointError>,
    }
    let sink = Mutex::new(Sink {
        snapshot: prior,
        new_done: 0,
        error: None,
    });
    // Relaxed suffices: the flag publishes no data, it only tells workers
    // to stop claiming items, and the read after the loop follows the
    // workers' join.
    let stopped = AtomicBool::new(false);

    let records = crate::parallel::run_indexed(items, threads, |i, item| {
        if let Some(record) = done.get(&i) {
            return Some(record.clone());
        }
        if stopped.load(Ordering::Relaxed) {
            return None;
        }
        let record = work(i, item);
        if let Some(store) = store {
            let mut s = sink.lock().expect("checkpoint sink");
            s.snapshot.records().push(record.clone());
            s.new_done += 1;
            // `every` is a public field: guard against a hand-set zero.
            if s.new_done % store.every.max(1) == 0 && s.error.is_none() {
                if let Err(e) = store.write(&s.snapshot) {
                    s.error = Some(e);
                    stopped.store(true, Ordering::Relaxed);
                }
            }
            if store.kill_after.is_some_and(|k| s.new_done >= k) {
                stopped.store(true, Ordering::Relaxed);
            }
        }
        Some(record)
    });

    let sink = sink.into_inner().expect("checkpoint sink");
    if let Some(e) = sink.error {
        return Err(e);
    }
    if stopped.load(Ordering::Relaxed) {
        return Ok(None);
    }
    if let Some(store) = store {
        // Leave a complete snapshot behind so a finished run can be
        // "resumed" into an instant replay.
        store.write(&sink.snapshot)?;
    }
    Ok(Some(
        records
            .into_iter()
            .map(|r| r.expect("invariant violated: every item completes when no worker stopped"))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SlotReport;

    fn fp() -> Fingerprint {
        Fingerprint {
            seed: 2021,
            total_cpus: 400_000,
            plan: "offline=0.05,crash=0,preempt=0.1,read_error=0,timeout=0,seed=7".into(),
        }
    }

    fn record(index: usize, fate: Option<Fate>) -> ItemRecord {
        let mut report = SlotReport::default();
        report.attempts = 2;
        report.backoff_secs = 31.5;
        report.faults_by_kind[OpFault::Preempted.index()] = 1;
        ItemRecord::of(index, ArchId(3), fate, &report)
    }

    #[test]
    fn fate_round_trips_through_record() {
        for fate in [
            Some(Fate::Caught(Stage::Reinstall, 0)),
            Some(Fate::Caught(Stage::Regular, 7)),
            Some(Fate::Escaped),
            None,
        ] {
            assert_eq!(record(4, fate).fate(), fate);
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("sdc-ck-test-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 10);
        let mut ck = CampaignCheckpoint::empty(fp());
        ck.items.push(record(0, Some(Fate::Escaped)));
        ck.items
            .push(record(3, Some(Fate::Caught(Stage::Factory, 0))));
        ck.items.push(record(1, None));
        store.write(&ck).unwrap();
        let back = CampaignCheckpoint::load(store.path(), &fp()).unwrap();
        assert_eq!(back, ck);
        let third = back.items.iter().find(|r| r.index == 3).unwrap();
        assert_eq!(third.fate(), Some(Fate::Caught(Stage::Factory, 0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_fingerprint_and_version() {
        let dir = std::env::temp_dir().join("sdc-ck-test-fp");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let ck = CampaignCheckpoint::empty(fp());
        store.write(&ck).unwrap();
        let mut other = fp();
        other.seed = 9;
        assert!(matches!(
            CampaignCheckpoint::load(store.path(), &other),
            Err(CheckpointError::Mismatch { .. })
        ));
        let mut stale = ck.clone();
        stale.version = FORMAT_VERSION + 1;
        store.write(&stale).unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(store.path(), &fp()),
            Err(CheckpointError::Version { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_check_precedes_fingerprint_check() {
        // A snapshot that is wrong in both ways reports the format
        // mismatch: fingerprint fields of a foreign format may not even
        // mean the same thing, so comparing them first would mislead.
        let dir = std::env::temp_dir().join("sdc-ck-test-prec");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let mut ck = CampaignCheckpoint::empty(fp());
        ck.version = FORMAT_VERSION + 7;
        ck.fingerprint.seed = 999;
        store.write(&ck).unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(store.path(), &fp()),
            Err(CheckpointError::Version {
                found,
                expected: FORMAT_VERSION,
            }) if found == FORMAT_VERSION + 7
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join("sdc-ck-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert!(matches!(
            CampaignCheckpoint::load(&missing, &fp()),
            Err(CheckpointError::Io(_))
        ));
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{\"version\":").unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(&garbled, &fp()),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_oversized_files_before_reading() {
        let dir = std::env::temp_dir().join("sdc-ck-test-big");
        std::fs::create_dir_all(&dir).unwrap();
        let big = dir.join("big.json");
        // A sparse file: its size is over the limit but nothing is written.
        let file = std::fs::File::create(&big).unwrap();
        file.set_len(MAX_SNAPSHOT_BYTES + 1).unwrap();
        assert_eq!(
            CampaignCheckpoint::load(&big, &fp()),
            Err(CheckpointError::TooLarge {
                bytes: MAX_SNAPSHOT_BYTES + 1
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_records_with_wrong_fault_counts() {
        let dir = std::env::temp_dir().join("sdc-ck-test-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        for len in [OpFault::ALL.len() - 1, OpFault::ALL.len() + 1] {
            let mut bad = record(7, Some(Fate::Escaped));
            bad.faults.resize(len, 0);
            let mut ck = CampaignCheckpoint::empty(fp());
            ck.items = vec![record(0, None), bad];
            store.write(&ck).unwrap();
            match CampaignCheckpoint::load(store.path(), &fp()) {
                Err(CheckpointError::Corrupt(e)) => {
                    assert_eq!(e, format!("record 1: {len} fault counts, expected 5"))
                }
                other => panic!("expected CheckpointError::Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
