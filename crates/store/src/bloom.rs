//! A compact Bloom filter for segment-level point-predicate pruning.
//!
//! Zone maps carry *exact* cell and moving-object sets, so membership
//! pruning is already sound — but on a warehouse with many segments the
//! hot pruning loop pays an ordered-set probe (pointer chasing plus, for
//! objects, string comparisons) per segment per point predicate. A
//! [`Bloom`] in front of each set answers "definitely absent" from one
//! or two cache lines: no false negatives by construction, so a bloom
//! *no* is as sound a prune as the set's, and a bloom *maybe* simply
//! falls through to the exact set. `sitm_query::SegmentedDb` consults
//! the blooms inside its `zone_may_match` pruning stage and reports how
//! many segments the blooms alone rejected in its `SegmentedPlan`.
//!
//! The filter is deliberately minimal: a power-of-two bit array probed
//! by double hashing (Kirsch–Mitzenmacher) over a caller-supplied 64-bit
//! hash, sized at build time for ~10 bits per element (k = 4 probes,
//! ≈1–2% false-positive rate). Hashing uses the same FNV-1a the engines
//! use for shard routing, so filters are stable across runs and
//! platforms and can be serialized beside the zone map.

use sitm_codec::{put_u64, take_count, take_u64};

use crate::codec::CodecError;

/// Probes per lookup (fixed; encoded anyway so the format can evolve).
const PROBES: u32 = 4;

/// Bits budgeted per inserted element.
const BITS_PER_ELEMENT: usize = 10;

/// Hard cap on a decoded filter's word count (1 MiB of bits) — a
/// corrupt length can't make us allocate unboundedly.
const MAX_WORDS: u64 = 131_072;

/// Hard cap on a decoded filter's probe count. The encoder writes 4;
/// anything large is corruption, and accepting it would turn every
/// `may_contain` into a near-unbounded loop (a query-time DoS from one
/// bad segment byte that slipped the CRC).
const MAX_PROBES: u64 = 64;

/// FNV-1a over arbitrary bytes: the repo's stable, dependency-free
/// hash (the engines' shard router uses the same constants), reused
/// here so bloom probes are deterministic across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A fixed-size Bloom filter over 64-bit hashes. No false negatives:
/// [`Bloom::may_contain`] returns `true` for every hash ever inserted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bloom {
    /// Bit array, 64 bits per word; length is a power of two (or zero
    /// for the empty filter, which contains nothing).
    words: Vec<u64>,
    /// Probes per lookup.
    probes: u32,
}

impl Bloom {
    /// An empty filter sized for `n` insertions (~10 bits/element,
    /// rounded up to a power-of-two word count). `n == 0` yields the
    /// zero-size filter that contains nothing.
    pub fn with_capacity(n: usize) -> Bloom {
        if n == 0 {
            return Bloom::default();
        }
        let bits = (n * BITS_PER_ELEMENT).max(64);
        let words = (bits / 64).next_power_of_two();
        Bloom {
            words: vec![0; words],
            probes: PROBES,
        }
    }

    /// Builds a filter over an iterator of hashes (sized by
    /// `size_hint`'s lower bound when exact, else by collecting first).
    pub fn build<I: IntoIterator<Item = u64>>(hashes: I) -> Bloom {
        let collected: Vec<u64> = hashes.into_iter().collect();
        let mut bloom = Bloom::with_capacity(collected.len());
        for h in collected {
            bloom.insert(h);
        }
        bloom
    }

    /// Bit positions probed for `hash`: double hashing over the one
    /// input hash — `h2` is an odd remix so every probe sequence walks
    /// the whole (power-of-two) table.
    fn probe(&self, hash: u64, i: u32) -> (usize, u64) {
        let h2 =
            (hash.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let bit = hash.wrapping_add(h2.wrapping_mul(u64::from(i)));
        let mask_bits = (self.words.len() as u64) * 64;
        let idx = (bit % mask_bits) as usize;
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Inserts a hash.
    pub fn insert(&mut self, hash: u64) {
        if self.words.is_empty() {
            // Degenerate filter (built empty): grow to the minimum size
            // rather than silently dropping the insertion.
            *self = Bloom::with_capacity(1);
        }
        for i in 0..self.probes.max(1) {
            let (word, bit) = self.probe(hash, i);
            self.words[word] |= bit;
        }
    }

    /// `false` means *definitely not inserted*; `true` means *maybe*.
    pub fn may_contain(&self, hash: u64) -> bool {
        if self.words.is_empty() {
            return false;
        }
        (0..self.probes.max(1)).all(|i| {
            let (word, bit) = self.probe(hash, i);
            self.words[word] & bit != 0
        })
    }

    /// True when the filter holds no bits at all.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Serializes the filter (probes, word count, words).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, u64::from(self.probes));
        put_u64(buf, self.words.len() as u64);
        for w in &self.words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a filter encoded by [`Bloom::encode`], validating the
    /// word count against both the remaining buffer and a hard cap.
    pub fn decode(buf: &mut &[u8]) -> Result<Bloom, CodecError> {
        let probes = take_u64(buf)?;
        if probes > MAX_PROBES {
            return Err(CodecError::InvalidTrace(
                "bloom probe count exceeds the sanity bound".into(),
            ));
        }
        let probes = probes as u32;
        let count = take_count(buf, 8)?;
        if count as u64 > MAX_WORDS {
            return Err(CodecError::LengthOverrun {
                declared: count as u64,
                available: buf.len(),
            });
        }
        if count > 0 && !count.is_power_of_two() {
            return Err(CodecError::InvalidTrace(
                "bloom word count is not a power of two".into(),
            ));
        }
        let (bytes, rest) = buf.split_at(count * 8);
        *buf = rest;
        let words = bytes
            .chunks_exact(8)
            .map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")))
            .collect();
        Ok(Bloom { words, probes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let hashes: Vec<u64> = (0..500u64).map(|i| fnv1a(&i.to_le_bytes())).collect();
        let bloom = Bloom::build(hashes.iter().copied());
        for h in &hashes {
            assert!(bloom.may_contain(*h), "inserted hash must be maybe-present");
        }
    }

    #[test]
    fn rejects_most_absent_hashes() {
        let bloom = Bloom::build((0..500u64).map(|i| fnv1a(&i.to_le_bytes())));
        let misses = (10_000..20_000u64)
            .map(|i| fnv1a(&i.to_le_bytes()))
            .filter(|&h| !bloom.may_contain(h))
            .count();
        // ~10 bits/element, 4 probes → fp rate well under 10%.
        assert!(misses > 9_000, "only {misses} of 10000 rejected");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bloom = Bloom::default();
        assert!(bloom.is_empty());
        assert!(!bloom.may_contain(fnv1a(b"anything")));
        assert!(Bloom::with_capacity(0).is_empty());
    }

    #[test]
    fn insert_into_degenerate_filter_grows_it() {
        let mut bloom = Bloom::default();
        bloom.insert(fnv1a(b"late"));
        assert!(bloom.may_contain(fnv1a(b"late")));
    }

    #[test]
    fn round_trips_and_rejects_truncation() {
        let bloom = Bloom::build((0..64u64).map(|i| fnv1a(&i.to_le_bytes())));
        let mut buf = Vec::new();
        bloom.encode(&mut buf);
        let mut cursor: &[u8] = &buf;
        let back = Bloom::decode(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, bloom);
        for cut in 0..buf.len() {
            assert!(Bloom::decode(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
        // Empty filters round-trip too.
        let mut buf = Vec::new();
        Bloom::default().encode(&mut buf);
        assert_eq!(
            Bloom::decode(&mut buf.as_slice()).unwrap(),
            Bloom::default()
        );
    }

    #[test]
    fn hostile_probe_count_is_rejected() {
        // A bit-flipped probe field must not buy a near-unbounded
        // probe loop on every later lookup.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::from(u32::MAX));
        put_u64(&mut buf, 1);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Bloom::decode(&mut buf.as_slice()),
            Err(CodecError::InvalidTrace(_))
        ));
    }

    #[test]
    fn hostile_word_count_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 4); // probes
        put_u64(&mut buf, u64::MAX); // word count
        assert!(matches!(
            Bloom::decode(&mut buf.as_slice()),
            Err(CodecError::LengthOverrun { .. })
        ));
        // Non-power-of-two counts are structurally invalid.
        let mut buf = Vec::new();
        put_u64(&mut buf, 4);
        put_u64(&mut buf, 3);
        buf.extend_from_slice(&[0u8; 24]);
        assert!(Bloom::decode(&mut buf.as_slice()).is_err());
    }
}
