//! The append-only epoch write-ahead log.
//!
//! Every `Cdss::publish` becomes one durable **epoch**: the complete set of
//! per-relation edit logs the peer published, framed as
//!
//! ```text
//! file   := magic "OWAL" version:u8 record*
//! record := len:u32 crc:u32 payload[len]
//! ```
//!
//! where `crc` is the CRC-32 of the payload. Replay reads records until the
//! file ends cleanly or a frame fails validation (short frame, CRC
//! mismatch, or undecodable payload) — everything before the first bad
//! frame is recovered, the rest is reported as a corrupt tail that callers
//! can truncate away with [`truncate_wal`], mirroring the standard
//! ARIES-style "recover to the last complete record" contract.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};

use orchestra_storage::EditLog;

use crate::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use crate::crc::crc32;
use crate::error::PersistError;
use crate::pooled::{PooledDecoder, PooledEncoder};
use crate::Result;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"OWAL";
/// Current WAL format version: version 2 records carry a **pooled**
/// payload (per-record value dictionary + id-encoded edit-log rows, see
/// [`crate::pooled`]).
pub const WAL_VERSION: u8 = 2;
/// Oldest WAL file version still readable (and appendable — appends match
/// the file's own version so a log stays internally consistent).
pub const WAL_MIN_VERSION: u8 = 1;
/// Byte length of the WAL file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 5;
const HEADER_LEN: u64 = WAL_HEADER_LEN;

/// One published epoch: the peer and the edit logs it published, exactly as
/// they stood in the pending queue at publish time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Monotonic epoch sequence number (1-based; snapshots store the last
    /// epoch they cover).
    pub epoch: u64,
    /// The publishing peer.
    pub peer: String,
    /// The published edit logs, one per edited relation, in relation order.
    pub logs: Vec<EditLog>,
}

impl EpochRecord {
    /// Total number of edit operations across all logs.
    pub fn op_count(&self) -> usize {
        self.logs.iter().map(EditLog::len).sum()
    }
}

/// The v2 (pooled) record payload: epoch and peer, one value dictionary,
/// then the edit logs with tuples as dict ids.
impl Encode for EpochRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_str(&self.peer);
        let mut enc = PooledEncoder::new();
        enc.rows
            .put_u32(u32::try_from(self.logs.len()).expect("log count fits u32"));
        for log in &self.logs {
            enc.rows.put_str(log.relation());
            enc.rows
                .put_u32(u32::try_from(log.len()).expect("op count fits u32"));
            for op in log.ops() {
                op.kind.encode(&mut enc.rows);
                enc.put_tuple(&op.tuple);
            }
        }
        enc.finish_into(w);
    }
}

impl Decode for EpochRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let epoch = r.get_u64()?;
        let peer = r.get_str()?.to_string();
        let dec = PooledDecoder::read(r)?;
        let nlogs = r.get_u32()? as usize;
        let mut logs = Vec::with_capacity(nlogs.min(1 << 12));
        for _ in 0..nlogs {
            let relation = r.get_str()?.to_string();
            let nops = r.get_u32()? as usize;
            let mut ops = Vec::with_capacity(nops.min(1 << 16));
            for _ in 0..nops {
                let kind = orchestra_storage::EditOpKind::decode(r)?;
                let tuple = dec.get_tuple(r)?;
                ops.push(orchestra_storage::EditOp { kind, tuple });
            }
            logs.push(EditLog::from_ops(relation, ops));
        }
        Ok(EpochRecord { epoch, peer, logs })
    }
}

impl EpochRecord {
    /// Encode in the legacy v1 (unpooled) layout, used when appending to a
    /// WAL file that was created by an older version.
    fn encode_v1(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.epoch);
        w.put_str(&self.peer);
        encode_seq(&self.logs, &mut w);
        w.into_bytes()
    }

    /// Decode the legacy v1 (unpooled) record payload.
    fn decode_v1(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let epoch = r.get_u64()?;
        let peer = r.get_str()?.to_string();
        let logs = decode_seq(&mut r)?;
        if !r.is_at_end() {
            return Err(PersistError::corrupt(
                r.offset(),
                format!("{} trailing bytes after v1 epoch record", r.remaining()),
            ));
        }
        Ok(EpochRecord { epoch, peer, logs })
    }
}

/// The result of scanning a WAL file.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Every record recovered, in append order.
    pub records: Vec<EpochRecord>,
    /// Byte length of the valid prefix (header plus intact records).
    pub valid_len: u64,
    /// Present when the scan stopped before the end of the file; describes
    /// the first invalid frame.
    pub corruption: Option<String>,
}

impl WalReplay {
    /// Did the file end with garbage after the valid prefix?
    pub fn has_corrupt_tail(&self) -> bool {
        self.corruption.is_some()
    }
}

/// Handle for appending epochs to a WAL file.
#[derive(Debug)]
pub struct EpochWal {
    path: PathBuf,
    file: File,
    /// The version byte in this file's header; appended records use the
    /// same version so a log never mixes layouts.
    version: u8,
    /// `fsync` after every append. Defaults to true (durability first); the
    /// benchmark harness turns it off to measure pure framing throughput.
    sync_on_append: bool,
}

impl EpochWal {
    /// Create a fresh WAL at `path`, truncating anything already there.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| PersistError::io(format!("creating wal {}", path.display()), &e))?;
        file.write_all(WAL_MAGIC)
            .and_then(|()| file.write_all(&[WAL_VERSION]))
            .and_then(|()| file.sync_data())
            .map_err(|e| PersistError::io(format!("writing wal header {}", path.display()), &e))?;
        register_wal_series();
        Ok(EpochWal {
            path,
            file,
            version: WAL_VERSION,
            sync_on_append: true,
        })
    }

    /// Open an existing WAL for appending (creating it if absent). The
    /// header is validated; the body is *not* scanned — run [`replay`]
    /// first and [`truncate_wal`] if it reports a corrupt tail.
    ///
    /// A file shorter than the header is the footprint of a crash during
    /// [`EpochWal::create`]'s truncate-then-write-header sequence; it holds
    /// no records, so it is re-initialized rather than rejected.
    pub fn open_append(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        if !path.exists() {
            return EpochWal::create(path);
        }
        let len = std::fs::metadata(&path)
            .map_err(|e| PersistError::io(format!("inspecting wal {}", path.display()), &e))?
            .len();
        if len < HEADER_LEN {
            return EpochWal::create(path);
        }
        let mut header = [0u8; HEADER_LEN as usize];
        {
            let mut f = File::open(&path)
                .map_err(|e| PersistError::io(format!("opening wal {}", path.display()), &e))?;
            f.read_exact(&mut header).map_err(|e| {
                PersistError::io(format!("reading wal header {}", path.display()), &e)
            })?;
        }
        if &header[..4] != WAL_MAGIC {
            return Err(PersistError::corrupt(0, "bad WAL magic"));
        }
        if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&header[4]) {
            return Err(PersistError::UnsupportedVersion {
                artifact: "WAL",
                version: header[4],
            });
        }
        let file = OpenOptions::new().append(true).open(&path).map_err(|e| {
            PersistError::io(format!("opening wal for append {}", path.display()), &e)
        })?;
        register_wal_series();
        Ok(EpochWal {
            path,
            file,
            version: header[4],
            sync_on_append: true,
        })
    }

    /// The file backing this WAL.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Control whether appends fsync (see field docs).
    pub fn set_sync_on_append(&mut self, sync: bool) {
        self.sync_on_append = sync;
    }

    /// Whether appends currently fsync.
    pub fn sync_on_append(&self) -> bool {
        self.sync_on_append
    }

    /// Append one epoch record: CRC-framed, flushed, and (by default)
    /// synced before returning, so a post-return crash cannot lose it.
    pub fn append(&mut self, record: &EpochRecord) -> Result<()> {
        let _span = orchestra_obs::span("wal-append", "persist");
        let start = std::time::Instant::now();
        let payload = if self.version == 1 {
            record.encode_v1()
        } else {
            record.to_bytes()
        };
        let len = u32::try_from(payload.len()).map_err(|_| PersistError::FrameTooLarge {
            artifact: "WAL record",
            len: payload.len(),
        })?;
        let mut frame = Writer::new();
        frame.put_u32(len);
        frame.put_u32(crc32(&payload));
        let mut bytes = frame.into_bytes();
        bytes.extend_from_slice(&payload);
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.flush())
            .map_err(|e| {
                PersistError::io(format!("appending to wal {}", self.path.display()), &e)
            })?;
        orchestra_obs::histogram("wal_append_seconds").observe(start.elapsed());
        orchestra_obs::counter("wal_appends_total").inc();
        if self.sync_on_append {
            let _fsync = orchestra_obs::span("wal-fsync", "persist");
            let sync_start = std::time::Instant::now();
            self.file.sync_data().map_err(|e| {
                PersistError::io(format!("appending to wal {}", self.path.display()), &e)
            })?;
            orchestra_obs::histogram("wal_fsync_seconds").observe(sync_start.elapsed());
        }
        Ok(())
    }
}

/// Pre-register the WAL metric series in the global registry, so a
/// `Metrics` scrape of an idle durable server already lists them (with
/// zero counts) before the first append or fsync happens.
fn register_wal_series() {
    let _ = orchestra_obs::histogram("wal_append_seconds");
    let _ = orchestra_obs::histogram("wal_fsync_seconds");
    let _ = orchestra_obs::counter("wal_appends_total");
}

/// Scan a WAL file, recovering every intact record. Missing files replay as
/// empty. Never fails on a corrupt *body* — corruption is reported in the
/// returned [`WalReplay`] so recovery can proceed past it — but a corrupt
/// or mismatched *header* is a hard error.
pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            corruption: None,
        });
    }
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PersistError::io(format!("reading wal {}", path.display()), &e))?;

    if bytes.len() < HEADER_LEN as usize {
        // Footprint of a crash during create(): truncated before the header
        // landed. No records can exist, so replay as empty.
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            corruption: None,
        });
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(PersistError::corrupt(0, "bad WAL magic"));
    }
    let version = bytes[4];
    if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            artifact: "WAL",
            version,
        });
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut corruption = None;
    while pos < bytes.len() {
        let frame_start = pos;
        if bytes.len() - pos < 8 {
            corruption = Some(format!("truncated frame header at byte {frame_start}"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        pos += 8;
        if bytes.len() - pos < len {
            corruption = Some(format!(
                "truncated record at byte {frame_start}: {len} payload bytes promised, {} present",
                bytes.len() - pos
            ));
            break;
        }
        let payload = &bytes[pos..pos + len];
        if crc32(payload) != crc {
            corruption = Some(format!("CRC mismatch at byte {frame_start}"));
            break;
        }
        let decoded = if version == 1 {
            EpochRecord::decode_v1(payload)
        } else {
            EpochRecord::from_bytes(payload)
        };
        match decoded {
            Ok(rec) => records.push(rec),
            Err(e) => {
                corruption = Some(format!("undecodable record at byte {frame_start}: {e}"));
                break;
            }
        }
        pos += len;
    }

    // The valid prefix ends at the start of the first bad frame. `pos` may
    // have been advanced past the bad frame's header before validation
    // failed, so re-derive the boundary by walking the intact records.
    let valid_len = match corruption {
        Some(_) => {
            let mut end = HEADER_LEN as usize;
            for _ in 0..records.len() {
                let len =
                    u32::from_le_bytes(bytes[end..end + 4].try_into().expect("4 bytes")) as usize;
                end += 8 + len;
            }
            end as u64
        }
        None => pos as u64,
    };

    Ok(WalReplay {
        records,
        valid_len,
        corruption,
    })
}

/// Truncate a WAL to its valid prefix, discarding a corrupt tail found by
/// [`replay`]. Subsequent appends then extend a clean log.
///
/// `sync_data` after `set_len` makes the new length durable (a size change
/// is metadata a later read needs, which `fdatasync` flushes), and a
/// truncation changes no directory entry, so the parent directory needs no
/// sync.
pub fn truncate_wal(path: impl AsRef<Path>, valid_len: u64) -> Result<()> {
    let path = path.as_ref();
    let file = OpenOptions::new().write(true).open(path).map_err(|e| {
        PersistError::io(format!("opening wal for truncate {}", path.display()), &e)
    })?;
    file.set_len(valid_len.max(HEADER_LEN))
        .and_then(|()| file.sync_data())
        .map_err(|e| PersistError::io(format!("truncating wal {}", path.display()), &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use orchestra_storage::tuple::int_tuple;

    fn sample_record(epoch: u64) -> EpochRecord {
        let mut log = EditLog::new("G");
        log.push_insert(int_tuple(&[epoch as i64, 2, 3]));
        log.push_delete(int_tuple(&[9, 9, 9]));
        EpochRecord {
            epoch,
            peer: "PGUS".into(),
            logs: vec![log],
        }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("epochs.wal");
        let mut wal = EpochWal::create(&path).unwrap();
        for e in 1..=5 {
            wal.append(&sample_record(e)).unwrap();
        }
        drop(wal);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.has_corrupt_tail());
        assert_eq!(replayed.records.len(), 5);
        assert_eq!(replayed.records[2], sample_record(3));
        assert_eq!(replayed.records[4].op_count(), 2);
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = TempDir::new("wal-missing");
        let replayed = replay(dir.path().join("nope.wal")).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_len, 0);
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = TempDir::new("wal-reopen");
        let path = dir.path().join("epochs.wal");
        let mut wal = EpochWal::create(&path).unwrap();
        wal.append(&sample_record(1)).unwrap();
        drop(wal);
        let mut wal = EpochWal::open_append(&path).unwrap();
        wal.append(&sample_record(2)).unwrap();
        drop(wal);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].epoch, 2);
    }

    #[test]
    fn truncated_tail_is_detected_and_recovered_past() {
        let dir = TempDir::new("wal-truncated");
        let path = dir.path().join("epochs.wal");
        let mut wal = EpochWal::create(&path).unwrap();
        for e in 1..=3 {
            wal.append(&sample_record(e)).unwrap();
        }
        drop(wal);
        // Chop bytes off the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let replayed = replay(&path).unwrap();
        assert!(replayed.has_corrupt_tail());
        assert_eq!(replayed.records.len(), 2, "intact prefix survives");

        // Truncating then appending yields a clean log again.
        truncate_wal(&path, replayed.valid_len).unwrap();
        let mut wal = EpochWal::open_append(&path).unwrap();
        wal.append(&sample_record(99)).unwrap();
        drop(wal);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.has_corrupt_tail());
        assert_eq!(
            replayed.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 99]
        );
    }

    #[test]
    fn crc_flip_is_detected() {
        let dir = TempDir::new("wal-crcflip");
        let path = dir.path().join("epochs.wal");
        let mut wal = EpochWal::create(&path).unwrap();
        wal.append(&sample_record(1)).unwrap();
        wal.append(&sample_record(2)).unwrap();
        drop(wal);
        // Flip one payload byte in the middle of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let replayed = replay(&path).unwrap();
        assert!(replayed.has_corrupt_tail());
        assert!(replayed.corruption.as_deref().unwrap().contains("CRC"));
        assert_eq!(replayed.records.len(), 1);
    }

    #[test]
    fn header_shorter_than_five_bytes_is_an_empty_log_not_an_error() {
        // Footprint of a crash between create()'s truncate and its header
        // write: the file exists but is shorter than the header.
        let dir = TempDir::new("wal-shortheader");
        let path = dir.path().join("epochs.wal");
        std::fs::write(&path, b"OW").unwrap();

        let replayed = replay(&path).unwrap();
        assert!(replayed.records.is_empty());
        assert!(!replayed.has_corrupt_tail());

        // open_append re-initializes instead of failing, and the log works.
        let mut wal = EpochWal::open_append(&path).unwrap();
        wal.append(&sample_record(1)).unwrap();
        drop(wal);
        assert_eq!(replay(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn bad_magic_or_version_is_a_hard_error() {
        let dir = TempDir::new("wal-magic");
        let path = dir.path().join("epochs.wal");
        std::fs::write(&path, b"WRONGHEADER").unwrap();
        assert!(matches!(replay(&path), Err(PersistError::Corrupt { .. })));
        assert!(EpochWal::open_append(&path).is_err());

        let mut header = WAL_MAGIC.to_vec();
        header.push(WAL_VERSION + 1);
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            replay(&path),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }
}
