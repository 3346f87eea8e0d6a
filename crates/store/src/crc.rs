//! CRC-32 (ISO-HDLC, polynomial `0xEDB88320`), the checksum guarding
//! every frame in the segment log, every segment header and row frame,
//! and every wire frame in both directions.
//!
//! Implemented with the slicing-by-8 technique (eight 256-entry
//! tables, built at first use): eight input bytes fold per step through
//! independent table lookups, so the update runs ~5× faster than the
//! classic byte-at-a-time loop. The variant matches zlib's `crc32`
//! (reflected, init `0xFFFFFFFF`, final xor `0xFFFFFFFF`), so the test
//! vectors are externally checkable.
//!
//! One slicing-by-8 fold is still one dependency chain: each step
//! waits for the last (≈ 0.7–0.9 ns/B). A slice of at least
//! `LANES_FROM` (512) bytes is therefore cut into four equal lanes
//! (plus a tail shorter than 32 bytes) that are folded together in one
//! interleaved loop — four independent chains — and combined after.
//! A raw CRC state is linear over GF(2): folding `B` after state `c`
//! gives `c · x^(8·|B|) mod P` xor the fold of `B` from zero. So lane
//! `k > 0` is folded from zero, and the states are joined by
//! multiplying the running one by `x^(8·lane)` (square-and-multiply
//! over precomputed squares) and xoring in the next — the same
//! arithmetic as zlib's `crc32_combine`, bit for bit the one-lane
//! result.

use std::sync::OnceLock;

/// The reflected polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slices at least this long fold in four lanes. Below it the combine
/// (≈ 150 ns) costs more than the overlapped chains save: measured on
/// a 2-CPU x86-64 host, one lane reads ≈ 0.69 ns/B at every size; four
/// lanes read 0.74 ns/B at 384 B, 0.54 at 512 B, 0.29 at 2 KiB and
/// 0.23 at 64 KiB.
const LANES_FROM: usize = 512;

/// The slicing tables and the squares the lane combine multiplies by.
struct Tables {
    /// `slices[k][b]`: byte `b`'s CRC contribution from `k` bytes back.
    slices: [[u32; 256]; 8],
    /// `zeros[k]` = x^(8·2^k) mod P: the operator that appends `2^k`
    /// zero bytes to a raw state.
    zeros: [u32; 64],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut slices = [[0u32; 256]; 8];
        for (i, slot) in slices[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        // Table `k` maps a byte to its CRC contribution from `k` bytes
        // back: slices[k][b] = one more zero byte folded through
        // slices[k-1][b].
        for i in 0..256 {
            let mut crc = slices[0][i];
            for k in 1..8 {
                crc = (crc >> 8) ^ slices[0][(crc & 0xFF) as usize];
                slices[k][i] = crc;
            }
        }
        // x^8 (reflected: x^k is bit 31 − k), then squared up.
        let mut zeros = [1 << 23; 64];
        for k in 1..64 {
            zeros[k] = multiply(zeros[k - 1], zeros[k - 1]);
        }
        Tables { slices, zeros }
    })
}

/// `a · b mod P` over GF(2), both reflected (bit 31 is x^0).
fn multiply(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a >> bit & 1 != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// x^(8·n) mod P: multiplying a raw state by it appends `n` zero bytes.
fn zeros_operator(mut n: usize, zeros: &[u32; 64]) -> u32 {
    let mut power = 1 << 31;
    for &square in zeros {
        if n == 0 {
            break;
        }
        if n & 1 != 0 {
            power = multiply(power, square);
        }
        n >>= 1;
    }
    power
}

/// One slicing-by-8 step: eight bytes folded into `crc`.
#[inline(always)]
fn step8(t: &[[u32; 256]; 8], crc: u32, chunk: &[u8]) -> u32 {
    let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ crc;
    let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// One raw update over `data` as one chain (no init/final xor).
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let t = &tables().slices;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        crc = step8(t, crc, chunk);
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// One raw update step over `data` (no init/final xor): one chain
/// below [`LANES_FROM`] bytes, four lanes at or above it.
fn update(crc: u32, data: &[u8]) -> u32 {
    if data.len() < LANES_FROM {
        return fold(crc, data);
    }
    let tables = tables();
    let t = &tables.slices;
    // Four lanes of whole 8-byte steps; the tail (< 32 bytes) folds
    // after the combine.
    let lane = data.len() / 32 * 8;
    let (lanes, tail) = data.split_at(4 * lane);
    let (first, rest) = lanes.split_at(lane);
    let (second, rest) = rest.split_at(lane);
    let (third, fourth) = rest.split_at(lane);
    let mut states = [crc, 0, 0, 0];
    let steps = first
        .chunks_exact(8)
        .zip(second.chunks_exact(8))
        .zip(third.chunks_exact(8).zip(fourth.chunks_exact(8)));
    for ((a, b), (c, d)) in steps {
        states = [
            step8(t, states[0], a),
            step8(t, states[1], b),
            step8(t, states[2], c),
            step8(t, states[3], d),
        ];
    }
    let shift = zeros_operator(lane, &tables.zeros);
    let joined = states[1..]
        .iter()
        .fold(states[0], |joined, &next| multiply(joined, shift) ^ next);
    fold(joined, tail)
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 over multiple slices.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh digest.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"semantic indoor trajectory model";
        for split in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), crc32(data), "split at {split}");
        }
    }

    /// Deterministic filler bytes (an LCG's high bits).
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The one-chain fold, the reference the lanes must reproduce.
    fn one_lane(data: &[u8]) -> u32 {
        fold(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn four_lanes_equal_one_lane_at_every_length() {
        let data = bytes(64 * 1024 + 7, 1);
        let lengths = (0..=data.len())
            .step_by(61)
            .chain(LANES_FROM - 40..LANES_FROM + 40)
            .chain(data.len() - 40..=data.len());
        for len in lengths {
            assert_eq!(crc32(&data[..len]), one_lane(&data[..len]), "length {len}");
            // And from an odd start, so no lane is 8-byte aligned.
            let from = len.min(3);
            assert_eq!(
                crc32(&data[from..len]),
                one_lane(&data[from..len]),
                "{from}..{len}"
            );
        }
    }

    #[test]
    fn random_splits_through_the_digest_equal_one_lane() {
        let data = bytes(3 * LANES_FROM + 301, 2);
        let expected = one_lane(&data);
        let mut state = 7u64;
        for _ in 0..200 {
            let mut digest = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                // Pieces from 0 bytes to past the lane threshold.
                let piece = (state >> 33) as usize % (2 * LANES_FROM);
                let to = (at + piece).min(data.len());
                digest.update(&data[at..to]);
                at = to;
            }
            assert_eq!(digest.finish(), expected);
        }
    }

    #[test]
    fn the_zeros_operator_appends_zero_bytes() {
        let zeros = &tables().zeros;
        assert_eq!(zeros_operator(0, zeros), 1 << 31, "x^0 is the identity");
        for (state, n) in [(0xDEAD_BEEF, 1), (0x1234_5678, 8), (0xFFFF_FFFF, 4_099)] {
            assert_eq!(
                multiply(state, zeros_operator(n, zeros)),
                fold(state, &vec![0; n]),
                "{n} zero bytes"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"frame payload bytes".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
