//! Deterministic mixing utilities.
//!
//! The simulation derives per-request jitter and failure decisions from
//! *tokens* (request ids, sequence numbers) rather than from a stateful RNG,
//! so that timing is a pure function of the kernel seed and the request
//! stream — independent of OS thread interleaving.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// # Examples
///
/// ```
/// use rustwren_sim::hash::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes two values into one 64-bit hash.
pub fn hash2(a: u64, b: u64) -> u64 {
    mix64(mix64(a) ^ b.rotate_left(17))
}

/// Hashes a string to a 64-bit token (FNV-1a, finalized with [`mix64`]).
///
/// Used to fold request identities (like `"GET bucket/key"`) into the token
/// stream, so two simulated threads issuing requests to *different* paths
/// draw from independent streams no matter how the OS interleaves them.
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Hashes a byte string to a 64-bit digest: the workspace's one byte-hash
/// kernel, behind both the wire stamp's checksum and the store's ETag.
///
/// The bytes are taken 32 at a time (the last block zero-padded), each block
/// as four little-endian words onto four independent lanes, each lane an
/// FNV-style xor-multiply-rotate fold; lanes and length then fold through an
/// avalanche mix. Every step is a bijection of the state it updates and
/// injective in the word it absorbs, so two inputs of one length that differ
/// inside one word — any single flipped byte — never share a digest, and a
/// truncation changes the length and so, with overwhelming probability, the
/// digest. Not cryptographic (it detects corruption, not tampering) and not a
/// stable format: digests are compared only within one build.
pub fn hash_bytes(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    // The rotation brings a word's top bits, which a multiply can only push
    // off the end, back under the next multiply.
    let step = |h: u64, word: [u8; 8]| {
        (h ^ u64::from_le_bytes(word))
            .wrapping_mul(PRIME)
            .rotate_left(29)
    };
    // Four chains keep the multiplier busy where one would wait out its
    // latency word by word. Distinct seeds (the FNV offset basis first), so
    // that words swapped between lanes do not swap back in the final fold.
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    let mut absorb = |block: &[u8; 32]| {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = step(*lane, *word);
        }
    };
    let (blocks, tail) = data.as_chunks::<32>();
    blocks.iter().for_each(&mut absorb);
    if !tail.is_empty() {
        // The length in the final fold tells padding from payload zeros.
        let mut last = [0u8; 32];
        for (padded, byte) in last.iter_mut().zip(tail) {
            *padded = *byte;
        }
        absorb(&last);
    }
    let folded = lanes
        .into_iter()
        .fold(0, |h, lane| step(h, lane.to_le_bytes()));
    mix64(folded ^ (data.len() as u64))
}

/// Incremental form of [`hash_str`]: feed string fragments in order (it
/// implements [`core::fmt::Write`], so `write!` works) and [`finish`].
/// Byte-for-byte equivalent to calling [`hash_str`] on the concatenation,
/// without materializing it — the zero-allocation path for hashing
/// request identities assembled from parts (`"GET "`, bucket, `"/"`, key).
///
/// [`finish`]: StrHasher::finish
///
/// # Examples
///
/// ```
/// use core::fmt::Write;
/// use rustwren_sim::hash::{hash_str, StrHasher};
///
/// let mut h = StrHasher::new();
/// write!(h, "GET {}/{}", "bucket", "key").unwrap();
/// assert_eq!(h.finish(), hash_str("GET bucket/key"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StrHasher {
    state: u64,
}

impl StrHasher {
    /// A hasher in the FNV-1a initial state.
    pub fn new() -> StrHasher {
        StrHasher {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Finalizes (with [`mix64`], like [`hash_str`]) and returns the token.
    pub fn finish(self) -> u64 {
        mix64(self.state)
    }
}

impl Default for StrHasher {
    fn default() -> StrHasher {
        StrHasher::new()
    }
}

impl core::fmt::Write for StrHasher {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        for b in s.as_bytes() {
            self.state ^= u64::from(*b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Maps a token to a uniform float in `[0, 1)`.
pub fn unit_f64(token: u64) -> f64 {
    // Use the top 53 bits for a full-precision mantissa.
    (mix64(token) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(0xDEAD_BEEF), mix64(0xDEAD_BEEF));
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        // Consecutive inputs should differ in roughly half their bits.
        let d = (mix64(100) ^ mix64(101)).count_ones();
        assert!((16..=48).contains(&d), "poor diffusion: {d} differing bits");
    }

    #[test]
    fn hash2_argument_order_matters() {
        assert_ne!(hash2(1, 2), hash2(2, 1));
    }

    #[test]
    fn hash_str_is_deterministic_and_spread() {
        assert_eq!(hash_str("GET b/k"), hash_str("GET b/k"));
        assert_ne!(hash_str("GET b/k0"), hash_str("GET b/k1"));
        assert_ne!(hash_str(""), hash_str("x"));
    }

    #[test]
    fn hash_bytes_tells_lanes_words_and_lengths_apart() {
        // Three blocks of four words, every word distinct.
        let base: Vec<u8> = (0..96u8).collect();
        let swap_words = |a: usize, b: usize| {
            let mut p = base.clone();
            for i in 0..8 {
                p.swap(8 * a + i, 8 * b + i);
            }
            p
        };
        let mut payloads = vec![base.clone()];
        // One byte off, in each lane of the middle block.
        for lane in 0..4 {
            let mut p = base.clone();
            p[32 + 8 * lane + 3] ^= 0x10;
            payloads.push(p);
        }
        // Neighbouring words, which sit in neighbouring lanes; two words of
        // one lane; and two whole lanes.
        payloads.push(swap_words(4, 5));
        payloads.push(swap_words(4, 8));
        let mut lanes_swapped = base.clone();
        for block in 0..3 {
            for i in 0..8 {
                lanes_swapped.swap(32 * block + i, 32 * block + 8 + i);
            }
        }
        payloads.push(lanes_swapped);
        // The top bit of two words of one lane: a multiply alone cannot
        // carry it anywhere, so without the rotation the second flip would
        // undo the first.
        let mut top_bits = base.clone();
        top_bits[7] ^= 0x80;
        top_bits[39] ^= 0x80;
        payloads.push(top_bits);
        // Zeros fold to nothing but the step itself: only their count, and
        // the length, tell these apart.
        payloads.extend((0..=100).map(|len| vec![0u8; len]));
        let digests: std::collections::BTreeSet<u64> =
            payloads.iter().map(|p| hash_bytes(p)).collect();
        assert_eq!(digests.len(), payloads.len(), "two payloads share a digest");
    }

    #[test]
    fn str_hasher_matches_hash_str_over_fragments() {
        use core::fmt::Write;
        let mut h = StrHasher::new();
        h.write_str("PUT ").unwrap();
        h.write_str("bucket").unwrap();
        write!(h, "/key[{}..{}]", 0u64, 65_536u64).unwrap();
        assert_eq!(h.finish(), hash_str("PUT bucket/key[0..65536]"));
        assert_eq!(StrHasher::new().finish(), hash_str(""));
    }

    #[test]
    fn unit_f64_in_range() {
        for token in 0..10_000u64 {
            let u = unit_f64(token);
            assert!((0.0..1.0).contains(&u), "out of range: {u}");
        }
    }

    #[test]
    fn unit_f64_mean_is_near_half() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(unit_f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "biased mean: {mean}");
    }
}
