//! Property tests pinning the fast-path packet engine:
//!
//! * fast-range index selection is a pure remapping of the same full-range
//!   hash value the `%` reduction ([`PairwiseHash::index_mod`]) consumes —
//!   in range, monotone in the raw value, and identical whether derived
//!   per-call or via [`BatchHasher`];
//! * a FermatSketch built with fast-range indexing decodes exactly the
//!   inserted flow multiset. The sketch is additive, so a successful peel
//!   returns the ground truth whatever the bucket mapping; comparing with
//!   the truth is therefore a stronger check than agreeing with a second
//!   decoder.

use chm_common::hash::{BatchHasher, FastRange, HashFamily, PairwiseHash};
use chm_common::prime::MERSENNE_P;
use chm_fermat::{FermatConfig, FermatSketch};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both reductions are functions of the same raw value; fast-range is
    /// in-range, matches its closed form, and agrees with the batched path.
    #[test]
    fn fast_range_is_a_pure_remapping_of_raw(
        seed in any::<u64>(),
        keys in vec(any::<u64>(), 1..64),
        m in 1usize..100_000,
    ) {
        let h = PairwiseHash::from_seed(seed);
        let r = FastRange::new(m);
        for &key in &keys {
            let raw = h.raw(key);
            prop_assert!(raw < MERSENNE_P);
            // Closed forms of both reductions, from the same raw value.
            let fast = ((raw as u128 * m as u128) >> 61) as usize;
            prop_assert_eq!(h.index(key, m), fast);
            prop_assert_eq!(r.reduce(raw), fast);
            prop_assert!(fast < m);
            prop_assert_eq!(h.index_mod(key, m), (raw % m as u64) as usize);
            // Batched derivation is bit-identical.
            let bh = BatchHasher::new(key);
            prop_assert_eq!(bh.raw(&h), raw);
            prop_assert_eq!(bh.index(&h, r), fast);
        }
    }

    /// Fast-range is monotone in the raw value: the remapping partitions
    /// the hash domain into `m` contiguous intervals (the structural
    /// property that makes it a valid uniform range reduction).
    #[test]
    fn fast_range_is_monotone(mut raws in vec(0..MERSENNE_P, 2..64), m in 1usize..10_000) {
        raws.sort_unstable();
        let r = FastRange::new(m);
        for w in raws.windows(2) {
            prop_assert!(r.reduce(w[0]) <= r.reduce(w[1]));
        }
    }

    /// The fast-range sketch decodes exactly the inserted flows and
    /// counts. Loads stay well below the decodable threshold; a trial whose
    /// peel fails (an all-arrays collision, possible at any load) asserts
    /// nothing, and the fixed-ensemble test below bounds how often that
    /// happens.
    #[test]
    fn fast_and_mod_sketches_decode_identical_flowsets(
        seed in any::<u64>(),
        flows in vec((any::<u32>(), 1i64..200), 1..100),
    ) {
        // ≥ 2.4 buckets/flow: deep in the decodable regime.
        let cfg = FermatConfig::standard(80, seed);
        let mut fast = FermatSketch::<u32>::new(cfg);
        let mut truth: HashMap<u32, i64> = HashMap::new();
        for &(f, w) in &flows {
            fast.insert_weighted(&f, w);
            *truth.entry(f).or_insert(0) += w;
        }
        let fast_r = fast.decode();
        if fast_r.success {
            prop_assert_eq!(&fast_r.flows, &truth);
        }
    }

    /// The family-level batched index derivation matches the sequential
    /// per-function calls for every function in the family.
    #[test]
    fn batch_hasher_agrees_with_family(
        seed in any::<u64>(),
        key in any::<u64>(),
        d in 1usize..6,
        m in 1usize..50_000,
    ) {
        let fam = HashFamily::new(seed, d);
        let bh = BatchHasher::new(key);
        let r = FastRange::new(m);
        for (i, h) in fam.as_slice().iter().enumerate() {
            prop_assert_eq!(bh.index(h, r), fam.index(i, key, m));
        }
    }
}

/// Deterministic, non-proptest check on a fixed ensemble: across many
/// seeds, the sketch decodes successfully *and* returns the ground truth
/// virtually always at safe load (this catches a systematically broken
/// remapping that the skip-on-failure property above could mask).
#[test]
fn fast_and_mod_engines_agree_on_fixed_ensemble() {
    let mut exact = 0;
    for seed in 0..60u64 {
        let cfg = FermatConfig::standard(64, seed);
        let mut fast = FermatSketch::<u32>::new(cfg);
        let mut truth: HashMap<u32, i64> = HashMap::new();
        for i in 0..70u32 {
            let f = i.wrapping_mul(0x9e37) ^ seed as u32;
            let w = 1 + (i as i64 % 7);
            fast.insert_weighted(&f, w);
            *truth.entry(f).or_insert(0) += w;
        }
        let fr = fast.decode();
        if fr.success {
            assert_eq!(fr.flows, truth, "seed {seed}");
            exact += 1;
        }
    }
    assert!(exact >= 55, "only {exact}/60 trials decoded to the ground truth");
}
