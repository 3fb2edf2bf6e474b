//! Configuration knobs for the synthetic workload generator.

/// Which dataset variant to generate (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatasetKind {
    /// Realistic SWISS-PROT-like strings (large tuples).
    #[default]
    Strings,
    /// Integer surrogates (each string replaced by a hash), the "integer"
    /// dataset used to isolate per-tuple data volume from per-query work.
    Integers,
}

impl DatasetKind {
    /// Label used by the benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Strings => "string",
            DatasetKind::Integers => "integer",
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Parameters of one generated CDSS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of peers.
    pub peers: usize,
    /// Number of universal entries initially inserted at *each* peer
    /// (the paper's "base size").
    pub base_size: usize,
    /// Maximum number of relations per peer; the actual number is chosen
    /// with Zipf skew in `1..=max_relations_per_peer` (paper §6.1).
    pub max_relations_per_peer: usize,
    /// How many of the 24 payload attributes each peer uses (min, max).
    pub attrs_per_peer: (usize, usize),
    /// Number of extra mappings added to close cycles in the peer graph
    /// (Figure 10). `0` gives the plain chain topology with `n-1` mappings
    /// among `n` peers.
    pub cycles: usize,
    /// Dataset variant.
    pub dataset: DatasetKind,
    /// Zipf skew parameter for the per-peer relation count.
    pub zipf_skew: f64,
    /// RNG seed (the generator is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            peers: 5,
            base_size: 200,
            max_relations_per_peer: 3,
            attrs_per_peer: (6, 10),
            cycles: 0,
            dataset: DatasetKind::Strings,
            zipf_skew: 1.5,
            seed: 0xB10_5EED,
        }
    }
}

impl WorkloadConfig {
    /// A configuration with the given number of peers, everything else
    /// default.
    pub fn with_peers(peers: usize) -> Self {
        WorkloadConfig {
            peers,
            ..Default::default()
        }
    }

    /// Builder-style setter for the base size.
    pub fn base_size(mut self, base_size: usize) -> Self {
        self.base_size = base_size;
        self
    }

    /// Builder-style setter for the dataset kind.
    pub fn dataset(mut self, dataset: DatasetKind) -> Self {
        self.dataset = dataset;
        self
    }

    /// Builder-style setter for the number of cycles.
    pub fn cycles(mut self, cycles: usize) -> Self {
        self.cycles = cycles;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = WorkloadConfig::default();
        assert_eq!(c.peers, 5);
        assert!(c.base_size > 0);
        assert!(c.attrs_per_peer.0 <= c.attrs_per_peer.1);
        assert_eq!(c.dataset, DatasetKind::Strings);
    }

    #[test]
    fn builder_style_setters() {
        let c = WorkloadConfig::with_peers(10)
            .base_size(50)
            .dataset(DatasetKind::Integers)
            .cycles(2)
            .seed(42);
        assert_eq!(c.peers, 10);
        assert_eq!(c.base_size, 50);
        assert_eq!(c.dataset, DatasetKind::Integers);
        assert_eq!(c.cycles, 2);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn dataset_labels() {
        assert_eq!(DatasetKind::Strings.to_string(), "string");
        assert_eq!(DatasetKind::Integers.to_string(), "integer");
    }
}
