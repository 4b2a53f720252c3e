//! Recorded result checksums at `Scale::Tiny`, per (application, seed).
//!
//! An application's checksum is a function of its dataset alone, so
//! every design column must reproduce it. The values below were taken
//! from the host-only model (`HostOnly`, column H) and agree with every
//! NDP design. [`DEFAULT_SEED`] is the seed runs use unless told
//! otherwise; [`HELD_OUT_SEED`] is kept for re-checking a claim on a
//! seed that was not used while the change was written.

/// The Table I configuration seed (`SystemConfig::table1().seed`), and
/// the only seed `repro serve` simulates at.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// A second recorded seed, held out from tuning.
pub const HELD_OUT_SEED: u64 = 7919;

const TINY_DEFAULT: [(&str, u64); 9] = [
    ("ll", 16625),
    ("ht", 9741),
    ("tree", 2000),
    ("spmv", 16637),
    ("bfs", 6393),
    ("sssp", 14515),
    ("pr", 925551),
    ("wcc", 288907),
    ("stencil", 536845347),
];

const TINY_HELD_OUT: [(&str, u64); 8] = [
    ("ll", 17229),
    ("ht", 9726),
    ("tree", 2000),
    ("spmv", 16636),
    ("bfs", 6587),
    ("sssp", 15224),
    ("pr", 917874),
    ("wcc", 283175),
];

/// The recorded Tiny checksum of `app` at `seed`, if any.
pub fn checksum(app: &str, seed: u64) -> Option<u64> {
    let table: &[(&str, u64)] = match seed {
        DEFAULT_SEED => &TINY_DEFAULT,
        HELD_OUT_SEED => &TINY_HELD_OUT,
        _ => return None,
    };
    table.iter().find(|(a, _)| *a == app).map(|&(_, c)| c)
}
