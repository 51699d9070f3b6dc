//! Input generation. Everything the product sees (keys, values, arrival
//! times) is derived here from `--seed`, with the benchmark's own
//! generator, so a change to the product cannot change its own inputs.

/// xoshiro256** seeded through splitmix64.
#[derive(Clone)]
pub struct Rng([u64; 4]);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// An independent stream per `(seed, stream)` pair: each thread,
    /// connection and schedule of a run draws from its own.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Rng([
            splitmix(&mut s),
            splitmix(&mut s),
            splitmix(&mut s),
            splitmix(&mut s),
        ])
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias at n ≤ 2³² is far
    /// below anything a workload could feel).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Scrambled Zipfian sampler over `0..n` (Gray et al., the YCSB
/// generator): rank 0 is hottest, ranks are scattered over the key space
/// so hot keys are not neighbours in the tree.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        };
        let mut x = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x % self.n
    }
}

/// Due times (ns from the start of the schedule) of a Poisson arrival
/// process at `rate_per_s`, covering `secs` seconds.
pub fn poisson_schedule(seed: u64, stream: u64, rate_per_s: f64, secs: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    let mean_gap_ns = 1e9 / rate_per_s;
    let horizon = secs * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 1, 2000.0, 2.0);
        let b = poisson_schedule(7, 1, 2000.0, 2.0);
        let c = poisson_schedule(8, 1, 2000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 4000 expected arrivals; 5 sigma is ~316.
        assert!((3600..4400).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn zipf_is_in_range_skewed_and_deterministic() {
        let z = Zipf::new(1 << 16, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 0);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert!(a.iter().all(|&k| k < 1 << 16));
        let mut counts = std::collections::HashMap::new();
        for k in &a {
            *counts.entry(*k).or_insert(0u32) += 1;
        }
        // The hottest key alone carries several percent at theta 0.99.
        assert!(*counts.values().max().unwrap() > 500);
    }

    #[test]
    fn below_covers_the_range() {
        let mut rng = Rng::new(1, 2);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
