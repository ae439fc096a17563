//! Pinned BitExact outputs of every spec of the default seed.

/// The seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// `(method, world seed, value checksum, planned cells)`.
const PINNED: &[(&str, u64, u64, u64)] = &[
    ("comfedsv-mc", 10, 0x8308_584a_3e49_eb9b, 3475),
    ("comfedsv-mc", 11, 0x5a08_c6fc_79c0_4cb5, 3509),
    ("comfedsv-mc", 12, 0x64c5_25f4_cf5b_07a6, 3478),
];

/// The pinned `(checksum, cells)` of a default-seed spec.
pub fn pinned(method: &str, world_seed: u64) -> Option<(u64, u64)> {
    PINNED
        .iter()
        .find(|p| p.0 == method && p.1 == world_seed)
        .map(|p| (p.2, p.3))
}
