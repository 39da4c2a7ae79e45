//! Output-correctness digests: a stable 64-bit FNV-1a fold over every
//! decision an epoch produced, so two runs agree exactly or not at all.

/// The seed whose digests are pinned in [`GOLDEN`].
pub const DEFAULT_SEED: u64 = 1;

/// Digests of the fixed check window of every block for [`DEFAULT_SEED`],
/// per workload. A change that alters any decision a window makes (loss
/// report, staged runtime, decode verdicts, localization) fails the run.
pub const GOLDEN: &[(&str, &[u64])] = &[
    (
        "serve-congested",
        &[
            0xa8f0_b6e4_5bf5_d5c0,
            0xeab5_b56c_7b33_94a9,
            0x39b1_0ed2_c499_467b,
            0x427f_e4a3_b25c_ef28,
            0x46b5_f74d_2cd7_9aea,
            0x086a_d0f1_ee60_bb46,
            0x7abe_80d6_7e5d_b85b,
            0x2890_b92e_d766_fd3b,
        ],
    ),
    (
        "ill-20k",
        &[
            0xacd9_5d04_6a7c_2007,
            0x71f1_3ed5_8742_dd9f,
            0x8549_6b05_b52d_479c,
            0x6c48_cd02_a186_533c,
        ],
    ),
];

/// Stable FNV-1a 64-bit hasher (independent of the std hasher, which is
/// not guaranteed stable across releases).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The pinned digest of block `block` of `workload`, if any.
pub fn golden(workload: &str, block: u64) -> Option<u64> {
    let (_, blocks) = GOLDEN.iter().find(|(w, _)| *w == workload)?;
    blocks.get(usize::try_from(block).ok()?).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_matters() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }
}
