//! Durable operation of a [`Cdss`]: epoch logging, checkpoints, and crash
//! recovery (built on `orchestra-persist`).
//!
//! The paper's prototype keeps peers' published update logs and computed
//! instances in DB2 / Berkeley DB under Tukwila (§5); this module is the
//! equivalent for the in-memory engine. The durable artifacts are:
//!
//! * an **epoch WAL**: every [`Cdss::update_exchange`] on a peer with
//!   pending edits first appends the peer's complete pending edit logs as
//!   one epoch record (write-ahead), then publishes and propagates them;
//! * a **snapshot** installed by [`Cdss::checkpoint`]: the system manifest
//!   (peers, mappings, trust policies, provenance encoding), the
//!   full auxiliary database including all provenance relations, the
//!   pending edit logs, and the epoch watermark.
//!
//! [`Cdss::open_or_recover`] restores a directory's CDSS: load the latest
//! snapshot, rebuild the system from the manifest, restore the database and
//! provenance graph, then replay every WAL epoch past the snapshot's
//! watermark through the ordinary incremental update-exchange machinery —
//! the recovered instance is identical to the pre-crash one because update
//! exchange is a deterministic function of the published epochs. A corrupt
//! WAL tail (torn final write, flipped bits) is detected by CRC framing,
//! reported in the [`RecoveryReport`], and truncated away so the log is
//! clean for new epochs.
//!
//! Durability covers the publish/update-exchange lifecycle. The direct
//! batch APIs ([`Cdss::apply_insertions_incremental`] and friends) bypass
//! the edit-log path by design (they exist for the benchmark harness); call
//! [`Cdss::checkpoint`] after using them on a persistent CDSS.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use orchestra_datalog::atom::Atom;
use orchestra_datalog::term::Term;
use orchestra_mappings::{ProvenanceEncoding, Tgd};
use orchestra_persist::codec::{Decode, Encode, Reader, Writer};
use orchestra_persist::snapshot::SnapshotRef;
use orchestra_persist::{EpochRecord, PendingLogs, PersistentStore};
use orchestra_storage::{EditLog, RelationSchema, Value};

use crate::cdss::Cdss;
use crate::error::CdssError;
use crate::peer::Peer;
use crate::trust::TrustPolicy;
use crate::Result;

/// Version byte of the manifest encoding.
const MANIFEST_VERSION: u8 = 1;

/// The manifest's engine byte. The format once distinguished two execution
/// backends (`0` batch, `1` pipelined); there is one engine now, so `1` is
/// always written and both historical tags are accepted on read.
const MANIFEST_ENGINE_TAG: u8 = 1;

/// The persistence handle attached to a durable [`Cdss`]. During recovery
/// replay no handle is attached yet, which is what keeps replayed exchanges
/// from re-appending their epochs.
#[derive(Debug)]
pub(crate) struct PersistHandle {
    pub(crate) store: PersistentStore,
}

/// What [`Cdss::open_or_recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch watermark of the snapshot the recovery started from.
    pub snapshot_epoch: u64,
    /// Number of WAL epochs replayed on top of the snapshot.
    pub replayed_epochs: usize,
    /// Description of the corrupt WAL tail, if one was found (it has been
    /// truncated away; the recovered state covers everything before it).
    pub corrupt_tail: Option<String>,
}

// ---------------------------------------------------------------------
// Manifest: the structural state of the system, everything CdssBuilder
// needs to reconstruct an empty replica of the CDSS.
// ---------------------------------------------------------------------

pub(crate) struct Manifest {
    peers: Vec<Peer>,
    tgds: Vec<Tgd>,
    policies: Vec<(String, TrustPolicy)>,
    encoding: ProvenanceEncoding,
}

/// Tgds are stored structurally (relation + terms per atom), not as
/// re-rendered text: `Display` does not escape quotes in text constants,
/// so a textual round-trip could produce unparseable mappings.
fn encode_atoms(atoms: &[Atom], w: &mut Writer) {
    w.put_u32(atoms.len() as u32);
    for atom in atoms {
        w.put_str(&atom.relation);
        w.put_u32(atom.terms.len() as u32);
        for term in &atom.terms {
            match term {
                Term::Var(v) => {
                    w.put_u8(0);
                    w.put_str(v);
                }
                Term::Const(c) => {
                    w.put_u8(1);
                    c.encode(w);
                }
                // Tgd::validate rejects Skolem terms at construction.
                Term::Skolem(..) => unreachable!("tgds cannot contain Skolem terms"),
            }
        }
    }
}

fn decode_atoms(r: &mut Reader<'_>) -> orchestra_persist::Result<Vec<Atom>> {
    use orchestra_persist::PersistError;
    let natoms = r.get_u32()? as usize;
    let mut atoms = Vec::with_capacity(natoms.min(1 << 12));
    for _ in 0..natoms {
        let relation = r.get_str()?.to_string();
        let nterms = r.get_u32()? as usize;
        let mut terms = Vec::with_capacity(nterms.min(1 << 12));
        for _ in 0..nterms {
            let offset = r.offset();
            terms.push(match r.get_u8()? {
                0 => Term::Var(r.get_str()?.to_string()),
                1 => Term::Const(Value::decode(r)?),
                tag => {
                    return Err(PersistError::corrupt(
                        offset,
                        format!("unknown term tag {tag}"),
                    ))
                }
            });
        }
        atoms.push(Atom { relation, terms });
    }
    Ok(atoms)
}

impl Manifest {
    pub(crate) fn from_cdss(cdss: &Cdss) -> Self {
        let system = cdss.mapping_system();
        Manifest {
            peers: cdss
                .peer_ids()
                .iter()
                .map(|id| cdss.peer(id).expect("listed peer exists").clone())
                .collect(),
            tgds: system.tgds.clone(),
            policies: cdss
                .peer_ids()
                .iter()
                .map(|id| (id.clone(), cdss.trust_policy(id)))
                .filter(|(_, p)| !p.is_trust_all())
                .collect(),
            encoding: system.encoding,
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(MANIFEST_VERSION);
        w.put_u32(self.peers.len() as u32);
        for peer in &self.peers {
            w.put_str(&peer.id);
            w.put_u32(peer.relations.len() as u32);
            for schema in &peer.relations {
                schema.encode(&mut w);
            }
        }
        w.put_u32(self.tgds.len() as u32);
        for tgd in &self.tgds {
            w.put_str(&tgd.name);
            encode_atoms(&tgd.lhs, &mut w);
            encode_atoms(&tgd.rhs, &mut w);
        }
        w.put_u32(self.policies.len() as u32);
        for (peer, policy) in &self.policies {
            w.put_str(peer);
            policy.encode(&mut w);
        }
        w.put_u8(MANIFEST_ENGINE_TAG);
        w.put_u8(match self.encoding {
            ProvenanceEncoding::CompositePerTgd => 0,
            ProvenanceEncoding::PerHeadAtom => 1,
        });
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> orchestra_persist::Result<Self> {
        use orchestra_persist::PersistError;
        let mut r = Reader::new(bytes);
        let version = r.get_u8()?;
        if version != MANIFEST_VERSION {
            return Err(PersistError::UnsupportedVersion {
                artifact: "manifest",
                version,
            });
        }
        let npeers = r.get_u32()? as usize;
        let mut peers = Vec::with_capacity(npeers.min(1 << 12));
        for _ in 0..npeers {
            let id = r.get_str()?.to_string();
            let nrel = r.get_u32()? as usize;
            let mut relations = Vec::with_capacity(nrel.min(1 << 12));
            for _ in 0..nrel {
                relations.push(RelationSchema::decode(&mut r)?);
            }
            peers.push(Peer::new(id, relations));
        }
        let ntgds = r.get_u32()? as usize;
        let mut tgds = Vec::with_capacity(ntgds.min(1 << 12));
        for _ in 0..ntgds {
            let name = r.get_str()?.to_string();
            let lhs = decode_atoms(&mut r)?;
            let rhs = decode_atoms(&mut r)?;
            let tgd = Tgd::new(name, lhs, rhs).map_err(|e| {
                PersistError::corrupt(r.offset(), format!("invalid tgd in manifest: {e}"))
            })?;
            tgds.push(tgd);
        }
        let npol = r.get_u32()? as usize;
        let mut policies = Vec::with_capacity(npol.min(1 << 12));
        for _ in 0..npol {
            let peer = r.get_str()?.to_string();
            policies.push((peer, TrustPolicy::decode(&mut r)?));
        }
        // Format compatibility: both historical backend tags name the one
        // engine; anything else is damage.
        let offset = r.offset();
        let tag = r.get_u8()?;
        if !matches!(tag, 0 | 1) {
            return Err(PersistError::corrupt(
                offset,
                format!("unknown engine tag {tag}"),
            ));
        }
        let offset = r.offset();
        let encoding = match r.get_u8()? {
            0 => ProvenanceEncoding::CompositePerTgd,
            1 => ProvenanceEncoding::PerHeadAtom,
            tag => {
                return Err(PersistError::corrupt(
                    offset,
                    format!("unknown encoding tag {tag}"),
                ))
            }
        };
        if !r.is_at_end() {
            return Err(PersistError::corrupt(r.offset(), "trailing manifest bytes"));
        }
        Ok(Manifest {
            peers,
            tgds,
            policies,
            encoding,
        })
    }

    /// Reconstruct an empty CDSS with this manifest's structure.
    fn build_cdss(&self) -> Result<Cdss> {
        let mut builder = crate::builder::CdssBuilder::new().provenance_encoding(self.encoding);
        for peer in &self.peers {
            builder = builder.add_peer(peer.id.clone(), peer.relations.clone());
        }
        for tgd in &self.tgds {
            builder = builder.add_mapping(tgd.clone());
        }
        for (peer, policy) in &self.policies {
            builder = builder.trust_policy(peer.clone(), policy.clone());
        }
        builder.build()
    }
}

// ---------------------------------------------------------------------
// Cdss durability API
// ---------------------------------------------------------------------

impl Cdss {
    /// Attach persistence to a freshly built CDSS (via
    /// [`crate::CdssBuilder::with_persistence`]): create the directory,
    /// refuse to clobber existing state, and write the initial snapshot so
    /// the manifest is durable before any epoch.
    pub(crate) fn attach_persistence(&mut self, dir: PathBuf) -> Result<()> {
        if PersistentStore::holds_state(&dir) {
            return Err(CdssError::Persistence(format!(
                "directory {} already holds persisted CDSS state; use Cdss::open_or_recover",
                dir.display()
            )));
        }
        let mut store = PersistentStore::open(dir).map_err(CdssError::Persist)?;
        let manifest = Manifest::from_cdss(self).encode();
        let pending = self.pending_snapshot();
        store
            .checkpoint(SnapshotRef {
                epoch: self.epoch,
                manifest: &manifest,
                db: &self.db,
                pending: &pending,
            })
            .map_err(CdssError::Persist)?;
        self.persistence = Some(PersistHandle { store });
        Ok(())
    }

    /// Is this CDSS backed by a persistence directory?
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }

    /// The persistence directory, if attached.
    pub fn persistence_dir(&self) -> Option<&Path> {
        self.persistence.as_ref().map(|h| h.store.dir())
    }

    /// Number of epochs durably published so far.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Control whether epoch appends fsync (defaults to true). Benchmarks
    /// turn this off to measure framing throughput without device latency.
    pub fn set_wal_sync(&mut self, sync: bool) -> Result<()> {
        let h = self
            .persistence
            .as_mut()
            .ok_or_else(|| CdssError::Persistence("CDSS is not persistent".into()))?;
        h.store.set_sync_on_append(sync);
        Ok(())
    }

    /// Clone only the pending edit logs into the snapshot's wire shape (the
    /// database itself is encoded by reference — see [`SnapshotRef`]).
    fn pending_snapshot(&self) -> Vec<PendingLogs> {
        self.pending
            .iter()
            .map(|(peer, logs)| PendingLogs {
                peer: peer.clone(),
                logs: logs.values().cloned().collect(),
            })
            .collect()
    }

    /// Checkpoint: atomically install a snapshot of the full current state
    /// and reset the WAL (its epochs are folded into the snapshot).
    ///
    /// Checkpoint time is also when the value pool is compacted, under the
    /// [`crate::CompactionPolicy`]: the snapshot encoder already writes a
    /// canonical dictionary of live values (the on-disk v2 codec is
    /// unchanged by compaction — only in-memory ids shrink), so folding the
    /// WAL is the natural moment to shed dead intern memory too.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.persistence.is_none() {
            return Err(CdssError::Persistence("CDSS is not persistent".into()));
        }
        let _span = orchestra_obs::span("checkpoint", "core");
        let start = std::time::Instant::now();
        self.maybe_compact();
        let manifest = Manifest::from_cdss(self).encode();
        let pending = self.pending_snapshot();
        let snapshot = SnapshotRef {
            epoch: self.epoch,
            manifest: &manifest,
            db: &self.db,
            pending: &pending,
        };
        let h = self.persistence.as_mut().expect("checked above");
        h.store.checkpoint(snapshot).map_err(CdssError::Persist)?;
        // Checkpoints follow the direct batch APIs (which do publish their
        // data) but may also follow a compaction; refresh the view so its
        // counters (durable epoch, compactions) are current.
        self.publish_snapshot();
        orchestra_obs::histogram("checkpoint_seconds").observe(start.elapsed());
        orchestra_obs::counter("checkpoints_total").inc();
        Ok(())
    }

    /// Write-ahead hook called at the start of [`Cdss::update_exchange`]:
    /// if this CDSS is persistent, append the peer's pending edit logs as
    /// the next epoch before they are published. During recovery replay no
    /// handle is attached yet, so replayed exchanges do not re-append.
    pub(crate) fn log_pending_epoch(&mut self, peer: &str) -> Result<()> {
        if self.persistence.is_none() {
            return Ok(());
        }
        let Some(logs) = self.pending.get(peer) else {
            return Ok(());
        };
        let logs: Vec<EditLog> = logs.values().filter(|l| !l.is_empty()).cloned().collect();
        if logs.is_empty() {
            return Ok(());
        }
        let record = EpochRecord {
            epoch: self.epoch + 1,
            peer: peer.to_string(),
            logs,
        };
        let h = self.persistence.as_mut().expect("checked above");
        h.store.append_epoch(&record).map_err(CdssError::Persist)?;
        self.epoch += 1;
        Ok(())
    }

    /// Reopen a persisted CDSS: load the snapshot, rebuild the system from
    /// its manifest, restore the database, provenance graph and pending
    /// logs, then replay every WAL epoch past the snapshot watermark
    /// through the ordinary incremental update-exchange machinery.
    ///
    /// A corrupt WAL tail is truncated away and reported in the
    /// [`RecoveryReport`]; everything before it is recovered.
    pub fn open_or_recover(dir: impl Into<PathBuf>) -> Result<(Cdss, RecoveryReport)> {
        let dir = dir.into();
        let _span = orchestra_obs::span("recover", "core");
        let mut store = PersistentStore::open(&dir).map_err(CdssError::Persist)?;
        let snapshot = store
            .load_snapshot()
            .map_err(CdssError::Persist)?
            .ok_or_else(|| {
                CdssError::Persistence(format!(
                    "directory {} holds no snapshot; build a CDSS with_persistence first",
                    dir.display()
                ))
            })?;

        let manifest = Manifest::decode(&snapshot.manifest).map_err(CdssError::Persist)?;
        let mut cdss = manifest.build_cdss()?;

        // Restore state as of the snapshot.
        cdss.db = snapshot.db;
        cdss.epoch = snapshot.epoch;
        cdss.pending = snapshot
            .pending
            .into_iter()
            .map(|p| {
                let logs: BTreeMap<String, EditLog> = p
                    .logs
                    .into_iter()
                    .map(|l| (l.relation().to_string(), l))
                    .collect();
                (p.peer, logs)
            })
            .collect();
        {
            // The snapshot carries no graph; it is rebuilt lazily on first
            // provenance read.
            let (_system, _policies, _owner, _db, graph, _plans, _pool) = cdss.split_for_eval();
            graph.invalidate();
        }
        // The build published an empty view before `cdss.db` was swapped in;
        // re-publish so readers of the recovered CDSS start at the restored
        // state.
        cdss.publish_snapshot();

        // Replay the WAL past the snapshot watermark. Recording is off (no
        // persistence handle yet), so replayed exchanges do not re-append.
        let scanned = store.replay_and_repair().map_err(CdssError::Persist)?;
        let mut report = RecoveryReport {
            snapshot_epoch: snapshot.epoch,
            replayed_epochs: 0,
            corrupt_tail: scanned.corruption.clone(),
        };
        for record in scanned.records {
            if record.epoch <= snapshot.epoch {
                continue;
            }
            let logs: BTreeMap<String, EditLog> = record
                .logs
                .into_iter()
                .map(|l| (l.relation().to_string(), l))
                .collect();
            cdss.pending.insert(record.peer.clone(), logs);
            cdss.update_exchange(&record.peer)?;
            cdss.epoch = record.epoch;
            report.replayed_epochs += 1;
        }
        // Replayed exchanges published as they went, but the epoch watermark
        // is restored after each one; refresh the view's counters.
        cdss.publish_snapshot();

        cdss.persistence = Some(PersistHandle { store });
        if report.replayed_epochs > 0 || report.corrupt_tail.is_some() {
            let mut fields = vec![
                ("dir", dir.display().to_string()),
                ("snapshot_epoch", report.snapshot_epoch.to_string()),
                ("replayed_epochs", report.replayed_epochs.to_string()),
            ];
            if let Some(tail) = &report.corrupt_tail {
                fields.push(("corrupt_tail", tail.clone()));
            }
            orchestra_obs::log::info("core", "recovered", &fields);
        }
        Ok((cdss, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdssBuilder;
    use crate::trust::{CmpOp, Predicate, TrustPolicy};
    use orchestra_persist::testutil::TempDir;
    use orchestra_storage::tuple::int_tuple;
    use orchestra_storage::RelationSchema;

    fn persistent_example(dir: &Path) -> Cdss {
        CdssBuilder::new()
            .add_peer(
                "PGUS",
                vec![RelationSchema::new("G", &["id", "can", "nam"])],
            )
            .add_peer("PBioSQL", vec![RelationSchema::new("B", &["id", "nam"])])
            .add_peer("PuBio", vec![RelationSchema::new("U", &["nam", "can"])])
            .add_mapping_str("m1", "G(i, c, n) -> B(i, n)")
            .add_mapping_str("m2", "G(i, c, n) -> U(n, c)")
            .add_mapping_str("m3", "B(i, n) -> U(n, c)")
            .add_mapping_str("m4", "B(i, c), U(n, c) -> B(i, n)")
            .trust_policy(
                "PBioSQL",
                TrustPolicy::trust_all().with_condition("m4", Predicate::cmp(1, CmpOp::Ne, 99i64)),
            )
            .with_persistence(dir)
            .build()
            .unwrap()
    }

    /// Publish two epochs from different peers.
    fn run_two_epochs(cdss: &mut Cdss) {
        cdss.insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
            .unwrap();
        cdss.insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
            .unwrap();
        cdss.update_exchange("PGUS").unwrap();
        cdss.insert_local("PBioSQL", "B", int_tuple(&[3, 5]))
            .unwrap();
        cdss.delete_local("PBioSQL", "B", int_tuple(&[3, 2]))
            .unwrap();
        cdss.update_exchange("PBioSQL").unwrap();
    }

    #[test]
    fn manifest_roundtrips_structure_and_policies() {
        let dir = TempDir::new("core-manifest");
        let cdss = persistent_example(dir.path());
        let bytes = Manifest::from_cdss(&cdss).encode();
        let back = Manifest::decode(&bytes).unwrap();
        let rebuilt = back.build_cdss().unwrap();
        assert_eq!(rebuilt.peer_ids(), cdss.peer_ids());
        assert_eq!(
            rebuilt.mapping_system().tgds.len(),
            cdss.mapping_system().tgds.len()
        );
        assert_eq!(
            rebuilt.trust_policy("PBioSQL"),
            cdss.trust_policy("PBioSQL")
        );
        assert_eq!(
            rebuilt.database().relation_names(),
            cdss.database().relation_names(),
            "all internal and provenance relations re-registered"
        );
    }

    #[test]
    fn manifest_engine_byte_accepts_both_former_backends_only() {
        let dir = TempDir::new("core-manifest-engine");
        let cdss = persistent_example(dir.path());
        let bytes = Manifest::from_cdss(&cdss).encode();
        // Layout tail: [.., engine, encoding].
        let engine_at = bytes.len() - 2;
        assert_eq!(bytes[engine_at], MANIFEST_ENGINE_TAG);
        for tag in 0..=u8::MAX {
            let mut patched = bytes.clone();
            patched[engine_at] = tag;
            match Manifest::decode(&patched) {
                Ok(back) => {
                    assert!(tag <= 1, "tag {tag} must be rejected");
                    assert_eq!(back.encode(), bytes, "re-encodes with the one tag");
                }
                Err(e) => {
                    assert!(tag > 1, "former backend tag {tag} must decode: {e}");
                    assert!(
                        matches!(e, orchestra_persist::PersistError::Corrupt { .. }),
                        "{e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tgds_with_quoted_text_constants_survive_the_manifest() {
        // Textual re-rendering would break on the embedded quote/backslash;
        // the structural encoding must not.
        let dir = TempDir::new("core-tgd-const");
        let cdss = CdssBuilder::new()
            .add_peer("P1", vec![RelationSchema::new("G", &["id", "tag"])])
            .add_peer("P2", vec![RelationSchema::new("B", &["id", "tag"])])
            .add_mapping_str("m1", "G(i, t) -> B(i, \"a\\\"b\\\\c\")")
            .with_persistence(dir.path())
            .build()
            .unwrap();
        let bytes = Manifest::from_cdss(&cdss).encode();
        let back = Manifest::decode(&bytes).unwrap();
        let rebuilt = back.build_cdss().unwrap();
        assert_eq!(
            rebuilt.mapping_system().tgds,
            cdss.mapping_system().tgds,
            "tgd with quote and backslash in a constant round-trips exactly"
        );
    }

    #[test]
    fn recovery_survives_a_headerless_wal_from_a_torn_checkpoint() {
        // Crash window inside checkpoint: snapshot installed, WAL truncated
        // but its header not yet written. Recovery must treat that as an
        // empty log, not corruption.
        let dir = TempDir::new("core-torn-checkpoint");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        cdss.checkpoint().unwrap();
        drop(cdss);
        std::fs::write(dir.path().join(orchestra_persist::store::WAL_FILE), b"").unwrap();

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(report.snapshot_epoch, 2);
        assert_eq!(report.replayed_epochs, 0);
        assert_eq!(recovered.current_epoch(), 2);
    }

    #[test]
    fn epochs_are_recorded_and_counted() {
        let dir = TempDir::new("core-epochs");
        let mut cdss = persistent_example(dir.path());
        assert!(cdss.is_persistent());
        assert_eq!(cdss.current_epoch(), 0);
        run_two_epochs(&mut cdss);
        assert_eq!(cdss.current_epoch(), 2);
        // An exchange with nothing pending does not burn an epoch.
        cdss.update_exchange("PuBio").unwrap();
        assert_eq!(cdss.current_epoch(), 2);
    }

    #[test]
    fn recovery_reproduces_instances_and_provenance() {
        let dir = TempDir::new("core-recover");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        let before_db = cdss.database().clone();
        let before_b = cdss.certain_answers("PBioSQL", "B").unwrap();
        drop(cdss);

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.replayed_epochs, 2);
        assert!(report.corrupt_tail.is_none());
        assert_eq!(recovered.current_epoch(), 2);
        assert_eq!(recovered.database(), &before_db, "entire store identical");
        assert_eq!(recovered.certain_answers("PBioSQL", "B").unwrap(), before_b);
        // Provenance graph was rebuilt: derivability still answers.
        assert!(recovered.is_derivable("B", &int_tuple(&[1, 3])));
    }

    #[test]
    fn checkpoint_then_recover_skips_replay() {
        let dir = TempDir::new("core-checkpoint");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        cdss.checkpoint().unwrap();
        // One more epoch after the checkpoint.
        cdss.insert_local("PuBio", "U", int_tuple(&[2, 5])).unwrap();
        cdss.update_exchange("PuBio").unwrap();
        let before_db = cdss.database().clone();
        drop(cdss);

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(report.snapshot_epoch, 2);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(recovered.database(), &before_db);
    }

    #[test]
    fn recovered_cdss_keeps_recording_epochs() {
        let dir = TempDir::new("core-continue");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        drop(cdss);

        let (mut recovered, _) = Cdss::open_or_recover(dir.path()).unwrap();
        recovered
            .insert_local("PuBio", "U", int_tuple(&[7, 7]))
            .unwrap();
        recovered.update_exchange("PuBio").unwrap();
        assert_eq!(recovered.current_epoch(), 3);
        let before_db = recovered.database().clone();
        drop(recovered);

        let (again, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(report.replayed_epochs, 3);
        assert_eq!(again.database(), &before_db);
    }

    #[test]
    fn pending_unpublished_edits_survive_via_checkpoint() {
        let dir = TempDir::new("core-pending");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        cdss.insert_local("PuBio", "U", int_tuple(&[4, 4])).unwrap();
        cdss.checkpoint().unwrap();
        drop(cdss);

        let (mut recovered, _) = Cdss::open_or_recover(dir.path()).unwrap();
        assert_eq!(recovered.pending_edit_count("PuBio"), 1);
        recovered.update_exchange("PuBio").unwrap();
        assert!(recovered
            .certain_answers("PuBio", "U")
            .unwrap()
            .contains(&int_tuple(&[4, 4])));
    }

    #[test]
    fn building_over_existing_state_is_refused() {
        let dir = TempDir::new("core-refuse");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        drop(cdss);
        let err = CdssBuilder::new()
            .add_peer("P", vec![RelationSchema::new("R", &["x"])])
            .with_persistence(dir.path())
            .build()
            .unwrap_err();
        assert!(matches!(err, CdssError::Persistence(_)), "{err}");
    }

    #[test]
    fn recovering_an_empty_directory_is_an_error() {
        let dir = TempDir::new("core-empty");
        let err = Cdss::open_or_recover(dir.path().join("nothing")).unwrap_err();
        assert!(matches!(err, CdssError::Persistence(_)), "{err}");
    }

    #[test]
    fn non_persistent_cdss_rejects_durability_calls() {
        let mut cdss = CdssBuilder::new()
            .add_peer("P", vec![RelationSchema::new("R", &["x"])])
            .build()
            .unwrap();
        assert!(!cdss.is_persistent());
        assert!(cdss.persistence_dir().is_none());
        assert!(matches!(cdss.checkpoint(), Err(CdssError::Persistence(_))));
        assert!(matches!(
            cdss.set_wal_sync(false),
            Err(CdssError::Persistence(_))
        ));
    }

    #[test]
    fn corrupt_wal_tail_is_reported_and_survived() {
        let dir = TempDir::new("core-corrupt");
        let mut cdss = persistent_example(dir.path());
        run_two_epochs(&mut cdss);
        drop(cdss);

        // Chop bytes off the WAL's final record (torn write).
        let wal_path = dir.path().join(orchestra_persist::store::WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);

        let (recovered, report) = Cdss::open_or_recover(dir.path()).unwrap();
        assert!(report.corrupt_tail.is_some());
        assert_eq!(report.replayed_epochs, 1, "only the intact epoch replays");
        assert_eq!(recovered.current_epoch(), 1);

        // The recovered state equals a fresh run of epoch 1 alone.
        let dir2 = TempDir::new("core-corrupt-ref");
        let mut reference = persistent_example(dir2.path());
        reference
            .insert_local("PGUS", "G", int_tuple(&[1, 2, 3]))
            .unwrap();
        reference
            .insert_local("PGUS", "G", int_tuple(&[3, 5, 2]))
            .unwrap();
        reference.update_exchange("PGUS").unwrap();
        assert_eq!(recovered.database(), reference.database());
    }
}
