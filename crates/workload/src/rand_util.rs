//! Random distributions used by the workload generators.

use turbopool_iosim::rng::Rng;
use turbopool_iosim::rng::SmallRng;

/// TPC-C's non-uniform random function NURand(A, x, y):
/// `(((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x`.
///
/// The bitwise OR concentrates the distribution on a hot subset — this is
/// the skew behind the paper's observation that 75% of TPC-C accesses go
/// to about 20% of the pages.
pub fn nurand(rng: &mut SmallRng, a: u64, c: u64, x: u64, y: u64) -> u64 {
    debug_assert!(x <= y);
    let r1 = rng.gen_range(0..=a);
    let r2 = rng.gen_range(x..=y);
    (((r1 | r2) + c) % (y - x + 1)) + x
}

/// A Zipf(θ) sampler over `0..n` using the precomputed-CDF method.
/// θ = 0 degenerates to uniform; θ ≈ 0.99 is the YCSB-style hot-spot
/// distribution.
pub struct Zipf {
    cdf: Vec<f64>,
    /// A guide table over the CDF: `guide[b]` is the first rank whose CDF
    /// value falls in bucket `b` or above (see [`bucket`]), so a draw in
    /// bucket `b` searches only `guide[b]..=guide[b + 1]`, a few entries,
    /// instead of the whole CDF.
    guide: Vec<u32>,
}

/// Bucket of `x` ∈ [0, 1] among `buckets` equal-width ones: ⌊x · buckets⌋,
/// exact because `buckets` is a power of two. Monotone in `x`, so the
/// ranks of a bucket are contiguous.
fn bucket(x: f64, buckets: usize) -> usize {
    (x * buckets as f64) as usize
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0 && u32::try_from(n).is_ok());
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
            cdf.push(sum);
        }
        for v in &mut cdf {
            *v /= sum;
        }
        // About one bucket per rank.
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for b in 0..=buckets {
            rank += cdf[rank..].partition_point(|&p| bucket(p, buckets) < b);
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Draw a rank in `0..n` (0 is the hottest).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.rank(rng.gen())
    }

    /// The first rank whose CDF value is at least `u` ∈ [0, 1), or the
    /// last rank if none is.
    fn rank(&self, u: f64) -> usize {
        // Every rank before `guide[b]` has a CDF value in a lower bucket
        // than u's, so below u; every rank from `guide[b + 1]` on, one in
        // a higher bucket, so above u.
        let b = bucket(u, self.guide.len() - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let i = lo + self.cdf[lo..hi].partition_point(|&p| p < u);
        i.min(self.cdf.len() - 1)
    }
}

/// Deterministic per-run RNG seeding: one base seed, one stream per
/// client, so adding clients does not perturb existing streams.
pub fn client_rng(base_seed: u64, client: u64) -> SmallRng {
    use turbopool_iosim::rng::SeedableRng;
    SmallRng::seed_from_u64(base_seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = client_rng(1, 0);
        for _ in 0..10_000 {
            let v = nurand(&mut rng, 1023, 42, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The bitwise OR concentrates mass on ids with many set low bits:
        // the hottest 10% of ids should draw far more than 10% of samples.
        let mut rng = client_rng(7, 1);
        let n = 1024u64;
        let total = 100_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..total {
            let v = nurand(&mut rng, 1023, 7, 0, n - 1);
            counts[v as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: u64 = counts[..(n as usize / 10)].iter().sum();
        let frac = head as f64 / total as f64;
        assert!(frac > 0.4, "hot 10% drew only {frac:.2} of samples");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let z = Zipf::new(100, 0.0);
        let mut rng = client_rng(3, 0);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.5, "min {min} max {max}");
    }

    #[test]
    fn zipf_high_theta_concentrates() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = client_rng(3, 1);
        let mut head = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // Top 10% of ranks should draw the majority of samples.
        assert!(head as f64 / total as f64 > 0.5, "head {head}");
    }

    /// The full-CDF binary search the guide table replaced, kept as the
    /// oracle its ranks are checked against.
    fn rank_by_full_search(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_table_gives_the_full_search_ranks() {
        for theta in [0.0, 0.9, 0.99] {
            for n in [1, 2, 3, 7, 100, 1000, 60_000] {
                let z = Zipf::new(n, theta);
                // Strictly increasing, so a `u` equal to a CDF value has
                // exactly one match and both searches must name it.
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n={n} θ={theta}");
                let on_the_cdf = z
                    .cdf
                    .iter()
                    .flat_map(|&p| [p, p.next_up(), p.next_down()])
                    .filter(|u| (0.0..1.0).contains(u));
                let mut rng = client_rng(0x21FF ^ n as u64, theta.to_bits());
                let drawn = (0..20_000).map(|_| rng.gen::<f64>());
                for u in std::iter::once(0.0).chain(on_the_cdf).chain(drawn) {
                    assert_eq!(
                        z.rank(u),
                        rank_by_full_search(&z, u),
                        "n={n} θ={theta} u={u}"
                    );
                }
                // And `sample` is that search on the generator's draw.
                let (mut a, mut b) = (client_rng(5, n as u64), client_rng(5, n as u64));
                for _ in 0..1000 {
                    assert_eq!(z.sample(&mut a), rank_by_full_search(&z, b.gen()));
                }
            }
        }
    }

    #[test]
    fn client_rngs_are_independent_and_deterministic() {
        let mut a1 = client_rng(9, 0);
        let mut a2 = client_rng(9, 0);
        let mut b = client_rng(9, 1);
        let xs: Vec<u64> = (0..5).map(|_| a1.gen()).collect();
        let ys: Vec<u64> = (0..5).map(|_| a2.gen()).collect();
        let zs: Vec<u64> = (0..5).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
