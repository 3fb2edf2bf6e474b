//! Full-state snapshots with atomic installation.
//!
//! A snapshot captures everything needed to restart a CDSS without
//! replaying history from epoch zero: the system **manifest** (peers,
//! mappings, trust policies, engine — encoded by `orchestra-core`, opaque
//! here), the complete auxiliary [`Database`] (every internal and
//! provenance relation), the still-unpublished pending edit logs, and the
//! epoch watermark up to which the snapshot is current. WAL records with
//! higher epochs are replayed on top at recovery.
//!
//! Snapshots are written to a temporary file, fsynced, then atomically
//! renamed over the live snapshot, so a crash mid-write leaves the previous
//! snapshot intact. The whole payload is sealed with a CRC-32:
//!
//! ```text
//! file := magic "OSNP" version:u8 crc:u32 len:u32 payload[len]
//! ```

use std::fs::File;
use std::io::{Read, Write as _};
use std::path::Path;

use orchestra_storage::{Database, EditLog, EditOp, EditOpKind, RelationSchema};

use crate::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use crate::crc::crc32;
use crate::error::PersistError;
use crate::pooled::{PooledDecoder, PooledEncoder};
use crate::Result;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"OSNP";
/// Current snapshot format version: version 2 carries a **pooled** payload
/// (one intern-table section of distinct values, then id-encoded rows —
/// see [`crate::pooled`]).
pub const SNAPSHOT_VERSION: u8 = 2;
/// Oldest snapshot payload version the loader still reads.
pub const SNAPSHOT_MIN_VERSION: u8 = 1;

/// Pending (unpublished) edit logs of one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingLogs {
    /// The peer owning the logs.
    pub peer: String,
    /// One log per edited relation, in relation order.
    pub logs: Vec<EditLog>,
}

impl Encode for PendingLogs {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.peer);
        encode_seq(&self.logs, w);
    }
}

impl Decode for PendingLogs {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let peer = r.get_str()?.to_string();
        let logs = decode_seq(r)?;
        Ok(PendingLogs { peer, logs })
    }
}

/// A complete, restartable image of CDSS state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The last epoch whose effects are included in `db`.
    pub epoch: u64,
    /// Opaque system manifest (peers, mappings, policies, engine), encoded
    /// by `orchestra-core`; this layer only stores and checksums it.
    pub manifest: Vec<u8>,
    /// The full auxiliary store: all internal (`R_l`, `R_r`, `R_i`, `R_o`)
    /// and provenance relations of every peer.
    pub db: Database,
    /// Unpublished pending edit logs at snapshot time.
    pub pending: Vec<PendingLogs>,
}

impl Snapshot {
    /// Borrow this snapshot's fields for encoding.
    pub fn as_parts(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            epoch: self.epoch,
            manifest: &self.manifest,
            db: &self.db,
            pending: &self.pending,
        }
    }
}

/// A borrowed view of snapshot state, so writers can serialize a live
/// database without cloning it first (checkpointing a large instance would
/// otherwise double peak memory).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    /// See [`Snapshot::epoch`].
    pub epoch: u64,
    /// See [`Snapshot::manifest`].
    pub manifest: &'a [u8],
    /// See [`Snapshot::db`].
    pub db: &'a Database,
    /// See [`Snapshot::pending`].
    pub pending: &'a [PendingLogs],
}

impl SnapshotRef<'_> {
    /// The v2 (pooled) payload: epoch and manifest, one value dictionary,
    /// then every relation and pending edit log as id-encoded rows. The
    /// dictionary order follows the canonical content traversal (relations
    /// in name order, tuples sorted), so equal states encode to identical
    /// bytes regardless of in-memory pool history.
    ///
    /// Relations encode from their interned rows: each relation's rows are
    /// sorted by value ([`Relation::sorted_rows`]) and written through the
    /// encoder's pool-id remap, so no tuple is materialised and no stored
    /// value is hashed. Pending edit-log values resolve through the same
    /// pool (see [`PooledEncoder`]).
    ///
    /// [`Relation::sorted_rows`]: orchestra_storage::Relation::sorted_rows
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_bytes(self.manifest);
        let pool = self.db.pool();
        let mut enc = PooledEncoder::with_pool(pool);
        let relations: Vec<_> = self.db.relations().collect();
        // Rows are 4 bytes per value; the slack covers each schema and
        // count (untouched capacity costs no memory).
        enc.rows.reserve(
            relations
                .iter()
                .map(|rel| 1024 + rel.len() * rel.schema().arity() * 4)
                .sum(),
        );
        enc.rows
            .put_u32(u32::try_from(relations.len()).expect("relation count fits u32"));
        for rel in relations {
            rel.schema().encode(&mut enc.rows);
            let sorted = rel.sorted_rows(pool);
            enc.rows
                .put_u32(u32::try_from(sorted.len()).expect("tuple count fits u32"));
            for row in sorted {
                enc.put_ids(row);
            }
        }
        enc.rows
            .put_u32(u32::try_from(self.pending.len()).expect("pending count fits u32"));
        for p in self.pending {
            enc.rows.put_str(&p.peer);
            enc.rows
                .put_u32(u32::try_from(p.logs.len()).expect("log count fits u32"));
            for log in &p.logs {
                enc.rows.put_str(log.relation());
                enc.rows
                    .put_u32(u32::try_from(log.len()).expect("op count fits u32"));
                for op in log.ops() {
                    op.kind.encode(&mut enc.rows);
                    enc.put_tuple(&op.tuple);
                }
            }
        }
        enc.finish_into(w);
    }

    fn to_bytes(self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

impl Encode for Snapshot {
    fn encode(&self, w: &mut Writer) {
        self.as_parts().encode(w);
    }
}

/// Decode a v2 (pooled) snapshot payload.
impl Decode for Snapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let epoch = r.get_u64()?;
        let manifest = r.get_bytes()?.to_vec();
        let dec = PooledDecoder::read(r)?;
        let nrels = r.get_u32()? as usize;
        let mut db = Database::new();
        for _ in 0..nrels {
            let schema = RelationSchema::decode(r)?;
            let arity = schema.arity();
            let n = r.get_u32()? as usize;
            let mut tuples = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                tuples.push(dec.get_row(r, arity)?);
            }
            db.adopt_relation(schema, tuples)?;
        }
        let npending = r.get_u32()? as usize;
        let mut pending = Vec::with_capacity(npending.min(1 << 12));
        for _ in 0..npending {
            let peer = r.get_str()?.to_string();
            let nlogs = r.get_u32()? as usize;
            let mut logs = Vec::with_capacity(nlogs.min(1 << 12));
            for _ in 0..nlogs {
                let relation = r.get_str()?.to_string();
                let nops = r.get_u32()? as usize;
                let mut ops = Vec::with_capacity(nops.min(1 << 16));
                for _ in 0..nops {
                    let kind = EditOpKind::decode(r)?;
                    let tuple = dec.get_tuple(r)?;
                    ops.push(EditOp { kind, tuple });
                }
                logs.push(EditLog::from_ops(relation, ops));
            }
            pending.push(PendingLogs { peer, logs });
        }
        Ok(Snapshot {
            epoch,
            manifest,
            db,
            pending,
        })
    }
}

/// Decode the legacy v1 (unpooled) snapshot payload, kept so snapshots
/// written before the pooled codec still open.
pub fn decode_snapshot_v1(r: &mut Reader<'_>) -> Result<Snapshot> {
    let epoch = r.get_u64()?;
    let manifest = r.get_bytes()?.to_vec();
    let db = Database::decode(r)?;
    let pending = decode_seq(r)?;
    Ok(Snapshot {
        epoch,
        manifest,
        db,
        pending,
    })
}

/// Write a snapshot to `path` atomically: encode, write to `path.tmp`,
/// fsync, rename over `path`, fsync the directory. The directory fsync is
/// what makes the rename durable, so its failure is an error: a caller
/// that went on to reset its WAL could otherwise lose acknowledged epochs
/// to a crash that brings back the old snapshot.
///
/// Traced as `persist:snapshot-encode` (payload and CRC) followed by
/// `persist:snapshot-sync` (write, fsync, rename, directory fsync).
pub fn write_snapshot(path: impl AsRef<Path>, snapshot: SnapshotRef<'_>) -> Result<()> {
    let path = path.as_ref();
    let encode = orchestra_obs::span("snapshot-encode", "persist");
    let payload = snapshot.to_bytes();
    let len = u32::try_from(payload.len()).map_err(|_| PersistError::FrameTooLarge {
        artifact: "snapshot",
        len: payload.len(),
    })?;
    let mut header = Writer::new();
    header.put_u32(crc32(&payload));
    header.put_u32(len);
    drop(encode);

    let _sync = orchestra_obs::span("snapshot-sync", "persist");
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)
        .map_err(|e| PersistError::io(format!("creating snapshot temp {}", tmp.display()), &e))?;
    file.write_all(SNAPSHOT_MAGIC)
        .and_then(|()| file.write_all(&[SNAPSHOT_VERSION]))
        .and_then(|()| file.write_all(header.as_bytes()))
        .and_then(|()| file.write_all(&payload))
        .and_then(|()| file.sync_all())
        .map_err(|e| PersistError::io(format!("writing snapshot {}", tmp.display()), &e))?;
    drop(file);

    std::fs::rename(&tmp, path).map_err(|e| {
        PersistError::io(
            format!(
                "installing snapshot {} -> {}",
                tmp.display(),
                path.display()
            ),
            &e,
        )
    })?;
    sync_parent_dir(path)
}

/// Fsync the directory holding `path`; a bare file name lives in `.`.
fn sync_parent_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_data())
        .map_err(|e| PersistError::io(format!("syncing snapshot directory {}", dir.display()), &e))
}

/// Load and validate a snapshot. Returns `Ok(None)` if the file does not
/// exist; corruption (bad magic, CRC mismatch, undecodable payload) is an
/// error — a damaged snapshot must not be silently treated as "no state".
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Option<Snapshot>> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(None);
    }
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PersistError::io(format!("reading snapshot {}", path.display()), &e))?;

    if bytes.len() < 13 || &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(PersistError::corrupt(0, "bad snapshot magic"));
    }
    let version = bytes[4];
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            artifact: "snapshot",
            version,
        });
    }
    let crc = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(bytes[9..13].try_into().expect("4 bytes")) as usize;
    if bytes.len() - 13 != len {
        return Err(PersistError::corrupt(
            13,
            format!(
                "snapshot payload length mismatch: header says {len}, file has {}",
                bytes.len() - 13
            ),
        ));
    }
    let payload = &bytes[13..];
    if crc32(payload) != crc {
        return Err(PersistError::corrupt(13, "snapshot CRC mismatch"));
    }
    if version == 1 {
        let mut r = Reader::new(payload);
        let snap = decode_snapshot_v1(&mut r)?;
        if !r.is_at_end() {
            return Err(PersistError::corrupt(
                r.offset(),
                format!("{} trailing bytes after v1 snapshot", r.remaining()),
            ));
        }
        return Ok(Some(snap));
    }
    Snapshot::from_bytes(payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::RelationSchema;

    fn sample_snapshot() -> Snapshot {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("B_l", &["id", "nam"]))
            .unwrap();
        db.insert("B_l", int_tuple(&[3, 5])).unwrap();
        let mut log = EditLog::new("B");
        log.push_insert(int_tuple(&[7, 8]));
        Snapshot {
            epoch: 4,
            manifest: vec![1, 2, 3, 4],
            db,
            pending: vec![PendingLogs {
                peer: "PBioSQL".into(),
                logs: vec![log],
            }],
        }
    }

    #[test]
    fn write_then_load_roundtrips() {
        let dir = TempDir::new("snap-roundtrip");
        let path = dir.path().join("state.snapshot");
        let snap = sample_snapshot();
        write_snapshot(&path, snap.as_parts()).unwrap();
        let back = load_snapshot(&path).unwrap().expect("snapshot exists");
        assert_eq!(back, snap);
        assert!(!path.with_extension("tmp").exists(), "temp file cleaned up");
    }

    #[test]
    fn directory_sync_covers_bare_file_names_and_reports_failure() {
        // A bare relative name has an empty parent: its directory is `.`,
        // which must really be synced rather than silently skipped.
        sync_parent_dir(Path::new("state.snapshot")).unwrap();
        let dir = TempDir::new("snap-dirsync");
        sync_parent_dir(&dir.path().join("state.snapshot")).unwrap();
        let gone = dir.path().join("missing").join("state.snapshot");
        assert!(matches!(
            sync_parent_dir(&gone),
            Err(PersistError::Io { .. })
        ));
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = TempDir::new("snap-missing");
        assert_eq!(
            load_snapshot(dir.path().join("none.snapshot")).unwrap(),
            None
        );
    }

    #[test]
    fn rewriting_replaces_atomically() {
        let dir = TempDir::new("snap-rewrite");
        let path = dir.path().join("state.snapshot");
        let mut snap = sample_snapshot();
        write_snapshot(&path, snap.as_parts()).unwrap();
        snap.epoch = 9;
        write_snapshot(&path, snap.as_parts()).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().unwrap().epoch, 9);
    }

    #[test]
    fn corruption_is_rejected_not_ignored() {
        let dir = TempDir::new("snap-corrupt");
        let path = dir.path().join("state.snapshot");
        write_snapshot(&path, sample_snapshot().as_parts()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::Corrupt { .. })
        ));

        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
