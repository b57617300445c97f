//! The benchmark's only source of randomness: SplitMix64 seeded from
//! `--seed`. Every input (rows, parameters, class schedule) derives from
//! it, so the same seed gives the same inputs on every host.

#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `salt` so that independent
    /// generators (tables, schedule, parameters) do not share a sequence.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below
    /// 2⁻⁴⁰ for every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut rng = Rng::new(1, 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<u32>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }
}
