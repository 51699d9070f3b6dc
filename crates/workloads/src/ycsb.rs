//! YCSB-style operation mixes (Figure 7: workloads A, B, C).

use rand::Rng;

use crate::zipf::ScrambledZipf;

/// A single generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of a key.
    Read(u64),
    /// Update (blind write) of a key.
    Update(u64, u64),
}

/// Read/update mix of a YCSB workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Workload A: 50% reads / 50% updates.
    A,
    /// Workload B: 95% reads / 5% updates.
    B,
    /// Workload C: 100% reads.
    C,
}

impl Mix {
    /// Fraction of operations that are reads.
    pub fn read_fraction(self) -> f64 {
        match self {
            Mix::A => 0.5,
            Mix::B => 0.95,
            Mix::C => 1.0,
        }
    }

    /// Figure 7 label.
    pub fn name(self) -> &'static str {
        match self {
            Mix::A => "A (50/50)",
            Mix::B => "B (95/5)",
            Mix::C => "C (100/0)",
        }
    }

    /// The three workloads in figure order.
    pub const ALL: [Mix; 3] = [Mix::A, Mix::B, Mix::C];
}

/// Configuration of a YCSB run.
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Key-space size (initial dataset size).
    pub keyspace: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Read/update mix.
    pub mix: Mix,
}

impl YcsbConfig {
    /// Standard configuration for a given mix and dataset size.
    pub fn new(mix: Mix, keyspace: u64) -> Self {
        YcsbConfig {
            keyspace,
            theta: 0.99,
            mix,
        }
    }
}

/// Stateful per-thread generator of YCSB operations.
pub struct YcsbGenerator {
    cfg: YcsbConfig,
    keys: ScrambledZipf,
    counter: u64,
}

impl YcsbGenerator {
    /// Build a generator (per thread — sampling is not synchronized).
    pub fn new(cfg: YcsbConfig) -> Self {
        YcsbGenerator {
            cfg,
            keys: ScrambledZipf::new(cfg.keyspace, cfg.theta),
            counter: 0,
        }
    }

    /// Draw the next operation.
    pub fn next_op<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Op {
        let key = self.keys.sample(rng);
        if rng.gen::<f64>() < self.cfg.mix.read_fraction() {
            Op::Read(key)
        } else {
            self.counter += 1;
            Op::Update(key, self.counter)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_ratios_roughly_hold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for mix in Mix::ALL {
            let mut g = YcsbGenerator::new(YcsbConfig::new(mix, 10_000));
            let trials = 20_000;
            let reads = (0..trials)
                .filter(|_| matches!(g.next_op(&mut rng), Op::Read(_)))
                .count();
            let frac = reads as f64 / trials as f64;
            assert!(
                (frac - mix.read_fraction()).abs() < 0.02,
                "{mix:?}: observed read fraction {frac}"
            );
        }
    }

    #[test]
    fn keys_within_keyspace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut g = YcsbGenerator::new(YcsbConfig::new(Mix::A, 100));
        for _ in 0..1000 {
            let k = match g.next_op(&mut rng) {
                Op::Read(k) | Op::Update(k, _) => k,
            };
            assert!(k < 100);
        }
    }

    #[test]
    fn workload_c_never_updates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut g = YcsbGenerator::new(YcsbConfig::new(Mix::C, 1000));
        assert!((0..5000).all(|_| matches!(g.next_op(&mut rng), Op::Read(_))));
    }
}
