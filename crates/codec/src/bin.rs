//! LEB128 varints and zigzag — the binary primitives of the trace format.
//!
//! A yield-point delta of a million still fits in three bytes, which is the
//! essence of the paper's switch-stream size advantage (§5); these helpers
//! were hoisted out of `dejavu::trace` so every crate shares one
//! implementation.

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = continue).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`: one per started 7-bit group.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read an LEB128 varint at `*pos`, advancing it. `None` on truncation or
/// a value that does not fit in 64 bits.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift == 63 {
            // The tenth byte carries bit 63 alone and ends the varint.
            let b = *buf.get(*pos)?;
            *pos += 1;
            return (b <= 1).then(|| v | ((b as u64) << 63));
        }
    }
}

/// Map a signed value to an unsigned one with small magnitudes staying
/// small (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, 1 << 32, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_max_is_ten_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_len_is_the_written_length() {
        let mut buf = Vec::new();
        let mut values = vec![0u64, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        for v in values {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v:#x}");
        }
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn truncated_varint_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_continuation_rejected() {
        // Eleven continuation bytes would shift past 64 bits.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn a_value_past_64_bits_is_refused_not_wrapped() {
        // 2^64 and a tenth byte of 0x7f: both used to decode (as 0 and as
        // u64::MAX).
        let two_pow_64 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let high_bits = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        for buf in [two_pow_64, high_bits] {
            assert_eq!(get_varint(&buf, &mut 0), None, "{buf:02x?}");
        }
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(get_varint(&max, &mut 0), Some(u64::MAX));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, 1 << 40, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        let mut buf = Vec::new();
        put_varint(&mut buf, zigzag(-3));
        assert_eq!(buf.len(), 1);
    }
}
