//! Deterministic per-block seed derivation.
//!
//! Every scheduler — sequential, pooled, deadline-bounded — derives block
//! RNG seeds the same way: one `next_u64` draw per block, in block order,
//! from the caller's stream. This is the single property that makes the
//! engine's answer independent of *where* and *when* each block runs:
//! the seeds are fixed before any block executes, so a pooled run is
//! bit-identical to a sequential one.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Constructs the engine's RNG from an explicit seed.
///
/// This is the only place the workspace's engine-facing crates are
/// allowed to build an RNG (`isla-analysis` enforces it): funnelling
/// every construction through one function keeps the seed-to-stream
/// mapping single-sourced, so a pooled run stays bit-identical to a
/// sequential one and a change of generator is a one-line, loudly
/// test-breaking event rather than a scattered drift.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child stream seed from a parent `digest` and a `salt` via
/// a splitmix64 finalizer. Used wherever a deterministic stream must
/// be a pure function of identity rather than of a caller RNG's
/// position: the query layer's key-derived pilot streams
/// (`stream_seed(key digest, pilot salt)`), epoch-segment pilot folds
/// (`stream_seed(lineage, salt)` then once more with the segment index)
/// and standing-query per-block streams. The finalizer's avalanche keeps sibling streams
/// uncorrelated even for adjacent salts.
pub fn stream_seed(digest: u64, salt: u64) -> u64 {
    let mut z = digest ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one seed per block from `rng`, in block order.
///
/// The contract — exactly one `next_u64` call per block, block 0 first —
/// is pinned by a unit test so refactors cannot silently change every
/// answer in the workspace.
pub fn derive_block_seeds(rng: &mut dyn RngCore, block_count: usize) -> Vec<u64> {
    (0..block_count).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_draw_per_block_in_block_order() {
        let mut a = StdRng::seed_from_u64(42);
        let seeds = derive_block_seeds(&mut a, 5);
        let mut b = StdRng::seed_from_u64(42);
        let direct: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
        assert_eq!(seeds, direct, "derivation must be one next_u64 per block");
    }

    #[test]
    fn pinned_seed_sequence() {
        // The exact sequence the vendored StdRng (xoshiro256**) produces
        // for seed 42. If this test fails, every seeded answer in the
        // workspace has silently changed — do not update the constants
        // without understanding why.
        let mut rng = StdRng::seed_from_u64(42);
        let seeds = derive_block_seeds(&mut rng, 4);
        assert_eq!(
            seeds,
            vec![
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
                17057574109182124193,
            ]
        );
    }

    #[test]
    fn empty_and_prefix_consistency() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(derive_block_seeds(&mut rng, 0).is_empty());
        // A fresh stream's first k seeds are a prefix of its first n > k.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let short = derive_block_seeds(&mut a, 3);
        let long = derive_block_seeds(&mut b, 8);
        assert_eq!(short, long[..3]);
    }
}
