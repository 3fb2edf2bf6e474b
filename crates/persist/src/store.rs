//! The on-disk layout: one directory per CDSS, holding the current
//! snapshot (`state.snapshot`) and the epoch WAL (`epochs.wal`).
//!
//! [`PersistentStore`] owns that directory and sequences the two artifacts
//! correctly: epochs are appended write-ahead (before the state change they
//! describe is applied), and a checkpoint atomically installs a snapshot
//! *then* resets the WAL, so every moment in time has either the old
//! (snapshot, WAL) pair or the new one.

use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::snapshot::{load_snapshot, write_snapshot, Snapshot, SnapshotRef};
use crate::wal::{replay, truncate_wal, EpochRecord, EpochWal, WalReplay};
use crate::Result;

/// File name of the current snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "state.snapshot";
/// File name of the epoch WAL inside a store directory.
pub const WAL_FILE: &str = "epochs.wal";

/// A persistence directory: snapshot + WAL.
#[derive(Debug)]
pub struct PersistentStore {
    dir: PathBuf,
    wal: EpochWal,
}

impl PersistentStore {
    /// Open (creating the directory and an empty WAL if needed) a store at
    /// `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io(format!("creating store dir {}", dir.display()), &e))?;
        let wal = EpochWal::open_append(dir.join(WAL_FILE))?;
        Ok(PersistentStore { dir, wal })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Does `dir` already hold persisted state (snapshot or non-empty WAL)?
    pub fn holds_state(dir: impl AsRef<Path>) -> bool {
        let dir = dir.as_ref();
        if dir.join(SNAPSHOT_FILE).exists() {
            return true;
        }
        match std::fs::metadata(dir.join(WAL_FILE)) {
            Ok(m) => m.len() > crate::wal::WAL_HEADER_LEN, // beyond the bare header
            Err(_) => false,
        }
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Load the current snapshot, if one has been checkpointed.
    pub fn load_snapshot(&self) -> Result<Option<Snapshot>> {
        load_snapshot(self.snapshot_path())
    }

    /// Checkpoint: atomically install `snapshot`, then reset the WAL (its
    /// epochs are now folded into the snapshot). If a crash hits between
    /// the two steps, recovery replays the old WAL's epochs onto the new
    /// snapshot; replay skips epochs at or below the snapshot watermark, so
    /// the result is identical. The WAL is reset only once the snapshot's
    /// rename is durable (directory fsync included); if any step fails the
    /// error is returned with the WAL untouched, which recovery handles the
    /// same way.
    ///
    /// Traced as `persist:snapshot-write`, with the encode and the sync
    /// steps of [`write_snapshot`] as child spans.
    pub fn checkpoint(&mut self, snapshot: SnapshotRef<'_>) -> Result<()> {
        let _span = orchestra_obs::span("snapshot-write", "persist");
        let start = std::time::Instant::now();
        write_snapshot(self.snapshot_path(), snapshot)?;
        let sync = self.wal.sync_on_append();
        self.wal = EpochWal::create(self.wal_path())?;
        self.wal.set_sync_on_append(sync);
        orchestra_obs::histogram("snapshot_write_seconds").observe(start.elapsed());
        Ok(())
    }

    /// Append one published epoch to the WAL (write-ahead: call this before
    /// applying the epoch's effects to in-memory state).
    pub fn append_epoch(&mut self, record: &EpochRecord) -> Result<()> {
        self.wal.append(record)
    }

    /// Control whether epoch appends fsync (defaults to true).
    pub fn set_sync_on_append(&mut self, sync: bool) {
        self.wal.set_sync_on_append(sync);
    }

    /// Scan the WAL, and if a corrupt tail is found, truncate it away so
    /// subsequent appends extend a clean log. Returns the scan result
    /// (including whether a tail was discarded).
    pub fn replay_and_repair(&mut self) -> Result<WalReplay> {
        let scanned = replay(self.wal_path())?;
        if scanned.has_corrupt_tail() {
            truncate_wal(self.wal_path(), scanned.valid_len)?;
            self.wal = EpochWal::open_append(self.wal_path())?;
        }
        Ok(scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::{Database, EditLog, RelationSchema};

    fn record(epoch: u64) -> EpochRecord {
        let mut log = EditLog::new("B");
        log.push_insert(int_tuple(&[epoch as i64, 0]));
        EpochRecord {
            epoch,
            peer: "P".into(),
            logs: vec![log],
        }
    }

    fn snapshot(epoch: u64) -> Snapshot {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("B_l", &["id", "nam"]))
            .unwrap();
        Snapshot {
            epoch,
            manifest: vec![7],
            db,
            pending: vec![],
        }
    }

    #[test]
    fn fresh_store_has_no_state() {
        let dir = TempDir::new("store-fresh");
        assert!(!PersistentStore::holds_state(dir.path()));
        let store = PersistentStore::open(dir.path()).unwrap();
        assert_eq!(store.load_snapshot().unwrap(), None);
        // An empty WAL (header only) still counts as no state.
        assert!(!PersistentStore::holds_state(dir.path()));
    }

    #[test]
    fn appended_epochs_count_as_state_and_survive_reopen() {
        let dir = TempDir::new("store-epochs");
        let mut store = PersistentStore::open(dir.path()).unwrap();
        store.append_epoch(&record(1)).unwrap();
        store.append_epoch(&record(2)).unwrap();
        assert!(PersistentStore::holds_state(dir.path()));
        drop(store);
        let mut store = PersistentStore::open(dir.path()).unwrap();
        let scanned = store.replay_and_repair().unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert!(!scanned.has_corrupt_tail());
    }

    #[test]
    fn checkpoint_installs_snapshot_and_resets_wal() {
        let dir = TempDir::new("store-checkpoint");
        let mut store = PersistentStore::open(dir.path()).unwrap();
        store.append_epoch(&record(1)).unwrap();
        store.checkpoint(snapshot(1).as_parts()).unwrap();
        assert_eq!(store.load_snapshot().unwrap().unwrap().epoch, 1);
        let scanned = store.replay_and_repair().unwrap();
        assert!(scanned.records.is_empty(), "WAL reset at checkpoint");
        // New epochs land in the fresh WAL.
        store.append_epoch(&record(2)).unwrap();
        let scanned = store.replay_and_repair().unwrap();
        assert_eq!(scanned.records.len(), 1);
    }

    #[test]
    fn checkpoint_preserves_the_sync_setting() {
        let dir = TempDir::new("store-syncflag");
        let mut store = PersistentStore::open(dir.path()).unwrap();
        store.set_sync_on_append(false);
        store.checkpoint(snapshot(0).as_parts()).unwrap();
        assert!(
            !store.wal.sync_on_append(),
            "checkpoint must not silently re-enable fsync"
        );
    }

    #[test]
    fn repair_truncates_corrupt_tail() {
        let dir = TempDir::new("store-repair");
        let mut store = PersistentStore::open(dir.path()).unwrap();
        store.append_epoch(&record(1)).unwrap();
        store.append_epoch(&record(2)).unwrap();
        let wal_path = store.wal_path();
        drop(store);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut store = PersistentStore::open(dir.path()).unwrap();
        let scanned = store.replay_and_repair().unwrap();
        assert!(scanned.has_corrupt_tail());
        assert_eq!(scanned.records.len(), 1);
        // After repair the log is clean and appendable.
        store.append_epoch(&record(3)).unwrap();
        let scanned = store.replay_and_repair().unwrap();
        assert!(!scanned.has_corrupt_tail());
        assert_eq!(
            scanned.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }
}
