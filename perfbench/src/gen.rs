//! Seeded input generation.
//!
//! Every input a workload hands the program — campaign seeds, the
//! tenant-mix request script, the `min_distance` sweep order — is a
//! pure function of the `--seed` argument, derived through SplitMix64
//! streams that are salted with a per-use tag. The *composition* of each
//! workload (which targets, analyses and request kinds a pass contains)
//! is fixed; the seed chooses values and orders. That keeps the
//! measured work the same for every seed, so figures from different
//! seeds are comparable.

/// SplitMix64: a tiny, well-mixed 64-bit generator (Steele et al.).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Lemire's multiply-shift; the bias is < n / 2^64.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A sub-seed for one named use of the workload seed: the same
/// `(seed, tag, index)` always yields the same value, and different tags
/// give independent streams.
#[must_use]
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    // FNV-1a over the tag, folded with the seed and index through two
    // SplitMix64 rounds.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in tag.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    let mut mix = SplitMix64::new(seed ^ hash);
    mix.next_u64();
    let mut mix = SplitMix64::new(mix.next_u64() ^ index.wrapping_mul(0xd134_2543_de82_ef95));
    mix.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_a_pure_function_of_its_arguments() {
        assert_eq!(derive(7, "a", 3), derive(7, "a", 3));
        assert_ne!(derive(7, "a", 3), derive(8, "a", 3));
        assert_ne!(derive(7, "a", 3), derive(7, "b", 3));
        assert_ne!(derive(7, "a", 3), derive(7, "a", 4));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..50).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
