//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! Timestamps inside a trace are delta-encoded; deltas are small positive
//! numbers, so varints shrink a trace tuple from 16+ bytes of fixed-width
//! time to 2–4 bytes in the common case. ZigZag maps signed deltas (a
//! trajectory may be recorded out of order across visits) onto the
//! unsigned varint space.

use crate::Error;

/// Appends `value` as a LEB128 varint (1–10 bytes).
pub fn put_u64(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Splits one LEB128 varint off the front of `buf`.
pub fn take_u64(buf: &mut &[u8]) -> Result<u64, Error> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(Error::Eof);
        };
        *buf = rest;
        // The 10th byte may only carry the 64th bit, and must end the
        // varint.
        if shift == 63 && byte > 1 {
            return Err(Error::Overflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(Error::Overflow)
}

/// Maps a signed value onto the unsigned varint space
/// (0 → 0, -1 → 1, 1 → 2, -2 → 3, …) so small magnitudes stay short.
const fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
const fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends a signed value as a ZigZag varint.
pub fn put_i64(buf: &mut Vec<u8>, value: i64) {
    put_u64(buf, zigzag_encode(value));
}

/// Splits one ZigZag varint off the front of `buf`.
pub fn take_i64(buf: &mut &[u8]) -> Result<i64, Error> {
    take_u64(buf).map(zigzag_decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_u64(v: u64) -> usize {
        let mut buf = Vec::new();
        put_u64(&mut buf, v);
        let len = buf.len();
        let mut slice = buf.as_slice();
        assert_eq!(take_u64(&mut slice).unwrap(), v);
        assert!(slice.is_empty(), "decoder must consume exactly the varint");
        len
    }

    #[test]
    fn boundary_values_round_trip() {
        assert_eq!(round_trip_u64(0), 1);
        assert_eq!(round_trip_u64(127), 1);
        assert_eq!(round_trip_u64(128), 2);
        assert_eq!(round_trip_u64(16_383), 2);
        assert_eq!(round_trip_u64(16_384), 3);
        assert_eq!(round_trip_u64((1 << 63) - 1), 9);
        assert_eq!(round_trip_u64(1 << 63), 10);
        assert_eq!(round_trip_u64(u64::MAX), 10);
    }

    #[test]
    fn zigzag_pairs() {
        for (signed, unsigned) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag_encode(signed), unsigned);
            assert_eq!(zigzag_decode(unsigned), signed);
        }
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, -1, 1, -64, 64, -300, 300, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(take_i64(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    /// A fixed-seed xorshift walk over every varint length: what goes
    /// in comes out, for both mappings.
    #[test]
    fn random_values_round_trip() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut buf = Vec::new();
        let mut values = Vec::new();
        for i in 0..10_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = state >> (i % 64);
            values.push(v);
            put_u64(&mut buf, v);
            put_i64(&mut buf, v as i64);
        }
        let mut slice = buf.as_slice();
        for v in values {
            assert_eq!(take_u64(&mut slice).unwrap(), v);
            assert_eq!(take_i64(&mut slice).unwrap(), v as i64);
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert_eq!(take_u64(&mut slice).unwrap_err(), Error::Eof, "cut {cut}");
        }
    }

    #[test]
    fn overlong_varint_is_overflow() {
        // Eleven continuation bytes.
        let bad = [0x80u8; 11];
        assert_eq!(take_u64(&mut bad.as_slice()).unwrap_err(), Error::Overflow);
        // Ten bytes whose last carries more than one bit, or goes on.
        for last in [0x02u8, 0x7f, 0x80, 0x81] {
            let mut buf = vec![0x80u8; 9];
            buf.push(last);
            assert_eq!(
                take_u64(&mut buf.as_slice()).unwrap_err(),
                Error::Overflow,
                "10th byte {last:#04x}"
            );
        }
        // The 10th byte's one legal payload bit.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x01);
        assert_eq!(take_u64(&mut buf.as_slice()).unwrap(), u64::MAX);
    }

    #[test]
    fn decoder_stops_at_varint_boundary() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 300);
        put_u64(&mut buf, 7);
        let mut slice = buf.as_slice();
        assert_eq!(take_u64(&mut slice).unwrap(), 300);
        assert_eq!(take_u64(&mut slice).unwrap(), 7);
        assert!(slice.is_empty());
    }
}
