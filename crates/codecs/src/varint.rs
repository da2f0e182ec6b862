//! Zigzag + LEB128 varint token helpers shared by the quantized-residual
//! codecs (SZ in this crate, the delta frames in `cc-archive`).
//!
//! Tokens follow the SZ convention: honest magnitudes stay within 35 bits
//! (`zigzag(|q| ≤ 2^30) + 1`), so [`read_varint`] rejects anything longer —
//! a damaged stream cannot force unbounded shifts or huge decoded values.

use crate::CodecError;

/// Map a signed value onto the unsigned token space (small magnitudes stay
/// small in either sign).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128 length of a token (1..=5 bytes for our token range).
#[inline]
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Append one LEB128 token.
#[inline]
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 token; rejects truncation and tokens over 35 bits
/// (honest tokens are `zigzag(|q| ≤ 2^30) + 1`).
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    // Single-byte tokens (|q| ≤ 63) are the common case in smooth fields.
    if let Some(&b) = bytes.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(b as u64);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(CodecError::Corrupt("truncated code stream"))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 35 {
            return Err(CodecError::Corrupt("varint code out of range"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 5, -5, 1 << 30, -(1 << 30), i64::MAX / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip_and_len() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX as u64, 1 << 34];
        for &v in &values {
            let before = buf.len();
            push_varint(&mut buf, v);
            assert_eq!(buf.len() - before, varint_len(v));
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut pos).is_err());
        let overlong = [0xFFu8; 10];
        let mut pos = 0;
        assert!(read_varint(&overlong, &mut pos).is_err());
    }
}
