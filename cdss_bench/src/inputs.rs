//! Everything a workload feeds the system, made from `--seed`.
//!
//! The peer topology comes from `orchestra_workload::generate` under one
//! fixed generator seed: the generator draws relation counts and attribute
//! sets from its seed, and two seeds can differ 2x in instance size, which
//! would make runs with different `--seed`s incomparable. What `--seed`
//! varies is the data: every entry, which entries are deleted, and which
//! keys are read. The fingerprint covers both, so drift in the generator
//! shows as a changed fingerprint.

use std::collections::BTreeMap;

use orchestra_core::Cdss;
use orchestra_persist::{crc::crc32, Encode};
use orchestra_storage::Tuple;
use orchestra_workload::swissprot::EntryGenerator;
use orchestra_workload::{
    generate, DatasetKind, GeneratedCdss, GeneratedPeer, UniversalEntry, WorkloadConfig,
};

/// The generator seed of the topology: peers with 2, 3, 2, 3 and 1
/// relations, so chain mappings join up to three relations at the source.
pub const TOPOLOGY_SEED: u64 = 2;

/// Size and kind of the generated system.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub peers: usize,
    /// Universal entries loaded at each peer before the measured window.
    pub base: usize,
    pub cycles: usize,
    pub dataset: DatasetKind,
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf ranks over `0..n` with exponent 1: rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "zipf over an empty set");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let draw = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= draw)
            .min(self.cumulative.len() - 1)
    }
}

/// Running CRC-32 over everything generated, chained block by block.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint {
    crc: u32,
    scratch: Vec<u8>,
}

impl Fingerprint {
    pub fn update(&mut self, bytes: &[u8]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.crc.to_le_bytes());
        self.scratch.extend_from_slice(bytes);
        self.crc = crc32(&self.scratch);
    }

    pub fn value(&self) -> u32 {
        self.crc
    }
}

/// One edit of a step, already projected onto a relation of its peer.
pub type Edit = (String, Tuple);

/// The seeded input stream of one benchmark run.
pub struct Inputs {
    pub shape: Shape,
    entries: EntryGenerator,
    pub rng: Rng,
    pub fingerprint: Fingerprint,
    /// Canonical-encoded bytes of every edit tuple handed out so far.
    pub user_bytes: u64,
    topology_seen: bool,
}

impl Inputs {
    pub fn new(shape: Shape, seed: u64) -> Self {
        Inputs {
            shape,
            entries: EntryGenerator::new(shape.dataset, seed),
            rng: Rng::new(seed ^ 0x5EED_CD55_B34C_0001),
            fingerprint: Fingerprint::default(),
            user_bytes: 0,
            topology_seen: false,
        }
    }

    /// A fresh, empty system of this shape.
    pub fn fresh_system(&mut self) -> GeneratedCdss {
        let config = WorkloadConfig {
            peers: self.shape.peers,
            base_size: self.shape.base,
            cycles: self.shape.cycles,
            dataset: self.shape.dataset,
            seed: TOPOLOGY_SEED,
            ..WorkloadConfig::default()
        };
        let system = generate(&config).expect("the generated topology passes static analysis");
        if !self.topology_seen {
            self.topology_seen = true;
            let described = format!(
                "{:?}|{:?}",
                system.peers,
                system
                    .cdss
                    .mapping_system()
                    .tgds
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
            self.fingerprint.update(described.as_bytes());
        }
        system
    }

    pub fn entries(&mut self, count: usize) -> Vec<UniversalEntry> {
        self.entries.batch(count)
    }

    /// Project entries onto a peer's relations, counting and
    /// fingerprinting the resulting edit tuples.
    pub fn project(&mut self, peer: &GeneratedPeer, entries: &[UniversalEntry]) -> Vec<Edit> {
        let mut edits = Vec::with_capacity(entries.len() * peer.relations.len());
        for entry in entries {
            for (relation, tuple) in peer.project(entry) {
                let bytes = tuple.to_bytes();
                self.user_bytes += bytes.len() as u64;
                self.fingerprint.update(relation.as_bytes());
                self.fingerprint.update(&bytes);
                edits.push((relation, tuple));
            }
        }
        edits
    }

    /// Draw the base entries of every peer and load them in one
    /// incremental insertion, as the workload generator's own `load_base`
    /// does. Returns each peer's entries, in insertion order.
    pub fn load_base(
        &mut self,
        peers: &[GeneratedPeer],
        cdss: &mut Cdss,
    ) -> Vec<Vec<UniversalEntry>> {
        let mut batch: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        let mut per_peer = Vec::with_capacity(peers.len());
        for peer in peers {
            let entries = self.entries(self.shape.base);
            for (relation, tuple) in self.project(peer, &entries) {
                batch.entry(relation).or_default().push(tuple);
            }
            per_peer.push(entries);
        }
        cdss.apply_insertions_incremental(&batch)
            .expect("base load propagates");
        // The provenance graph is folded lazily; pay the load's share now
        // so the measured window starts from a warm graph.
        cdss.with_provenance_graph(|_| ());
        per_peer
    }

    /// Fingerprint a read key.
    pub fn note_key(&mut self, key: i64) {
        self.fingerprint.update(&key.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        peers: 3,
        base: 5,
        cycles: 0,
        dataset: DatasetKind::Integers,
    };

    fn digest(seed: u64) -> (u32, Vec<usize>, Vec<i64>) {
        let mut inputs = Inputs::new(SHAPE, seed);
        let system = inputs.fresh_system();
        let entries = inputs.entries(4);
        inputs.project(&system.peers[1], &entries);
        let zipf = Zipf::new(50);
        let ranks = (0..32).map(|_| zipf.sample(&mut inputs.rng)).collect();
        let keys = entries.iter().map(|e| e.key).collect();
        (inputs.fingerprint.value(), ranks, keys)
    }

    #[test]
    fn the_seed_decides_every_input() {
        assert_eq!(digest(11), digest(11));
        let (fp_a, ranks_a, keys_a) = digest(11);
        let (fp_b, ranks_b, keys_b) = digest(12);
        assert_ne!(fp_a, fp_b, "another seed gives other data");
        assert_ne!(ranks_a, ranks_b);
        assert_eq!(keys_a, keys_b, "keys are consecutive under every seed");
    }

    #[test]
    fn the_topology_does_not_depend_on_the_seed() {
        let a = Inputs::new(SHAPE, 1).fresh_system();
        let b = Inputs::new(SHAPE, 2).fresh_system();
        for (pa, pb) in a.peers.iter().zip(&b.peers) {
            assert_eq!(pa.relations, pb.relations);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(100) ~ 5.19, so rank 0 draws ~19% and rank 1 about half of that.
        assert!((3400..4300).contains(&counts[0]), "rank 0: {}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts[99] > 0);
    }
}
