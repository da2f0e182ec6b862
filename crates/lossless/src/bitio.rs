//! LSB-first bit-level I/O.
//!
//! Shared by the deflate implementation here and by every lossy codec in
//! `cc-codecs` (fpzip residual coding, APAX block payloads, GRIB2 packing,
//! ISABELA index/correction streams). Bits are packed least-significant
//! first within each byte, deflate-style.
//!
//! Both directions run on 64-bit accumulators with whole-word fast paths:
//! the writer flushes eight bytes at a time once the accumulator fills,
//! and the reader refills with a single unaligned little-endian word load
//! while eight or more input bytes remain. The byte stream produced is
//! identical to the historical byte-at-a-time implementation (pinned by
//! `tests/golden.rs`); only the number of memory operations per bit
//! changes.

use crate::Error;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits pending in `acc` (0..64). Bits at positions `>= nbits` are
    /// always zero, so flushing is a plain little-endian store.
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `n` bits of `value` (`n ≤ 57` per call).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports at most 57 bits per call");
        debug_assert!(n == 64 || value < (1u64 << n), "value {value} wider than {n} bits");
        let value = if n == 0 { 0 } else { value & (u64::MAX >> (64 - n)) };
        self.acc |= value << self.nbits;
        let total = self.nbits + n;
        if total >= 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            self.nbits = total - 64;
            // The bits that did not fit: `value`'s top `total - 64` bits.
            // The shift is in 1..=63 because this branch needs nbits ≥ 7.
            self.acc = value >> (n - self.nbits);
        } else {
            self.nbits = total;
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Write an Elias-gamma-style unary prefix + binary remainder
    /// (Golomb-Rice with parameter `k`): quotient in unary, remainder in
    /// `k` bits. Suited to geometrically distributed residuals.
    #[inline]
    pub fn write_rice(&mut self, value: u64, k: u32) {
        let q = value >> k;
        if q < 48 {
            // `q` ones and the zero terminator in one call (≤ 48 bits),
            // then the remainder: at most two `write_bits` calls total.
            self.write_bits((1u64 << q) - 1, q as u32 + 1);
            if k > 0 {
                self.write_bits(value & ((1u64 << k) - 1), k);
            }
        } else {
            // Escape: 48 ones (no terminator — the reader switches to the
            // escape branch as soon as it counts 48), then the full 64-bit
            // value in two 32-bit halves.
            self.write_bits((1u64 << 48) - 1, 48);
            self.write_bits(value & 0xFFFF_FFFF, 32);
            self.write_bits(value >> 32, 32);
        }
    }

    /// Append whole bytes. The writer must be byte-aligned (call
    /// [`Self::align_byte`] first if unsure); the bytes land in the output
    /// exactly as given, with no bit-shifting.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert!(self.nbits.is_multiple_of(8), "write_bytes requires byte alignment");
        let pending = (self.nbits / 8) as usize;
        let le = self.acc.to_le_bytes();
        self.buf.extend_from_slice(&le[..pending]);
        self.acc = 0;
        self.nbits = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Align to the next byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            let bytes = self.nbits.div_ceil(8) as usize;
            let le = self.acc.to_le_bytes();
            self.buf.extend_from_slice(&le[..bytes]);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Number of complete bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Finish, flushing any partial byte (zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.buf
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// Invariant (the word-refill trick): with `consumed = pos * 8 - nbits`,
/// accumulator bits `[0, nbits)` hold stream bits `[consumed, consumed +
/// nbits)`, and every bit at position `>= nbits` is either zero or equal
/// to the corresponding stream bit at `pos * 8` onward. Refilling may
/// therefore OR a full word over the live bits: overlapping positions
/// receive the same value they already hold.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index.
    pos: usize,
    acc: u64,
    /// Bits available in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data` starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    #[inline]
    fn refill(&mut self) {
        if self.nbits >= 57 {
            // Already full enough for any single read; also keeps the
            // shift below in range when a word refill left nbits at 64.
            return;
        }
        if self.data.len() - self.pos >= 8 {
            let w = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
            self.acc |= w << self.nbits;
            // Count exactly the whole bytes that fit (1..=8), leaving
            // nbits in 57..=64 so any single ≤57-bit read succeeds; the
            // loaded tail above the counted bits stays as a valid stale
            // prefix of data[pos..].
            let take = (64 - self.nbits) >> 3;
            self.pos += take as usize;
            self.nbits += take * 8;
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Read `n ≤ 57` bits; errors if the stream is exhausted.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, Error> {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(Error::UnexpectedEof);
            }
        }
        let v = if n == 0 { 0 } else { self.acc & ((1u64 << n) - 1) };
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, Error> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Inverse of [`BitWriter::write_rice`]. The unary quotient is decoded
    /// by counting trailing ones in the accumulator word, not bit by bit.
    pub fn read_rice(&mut self, k: u32) -> Result<u64, Error> {
        let mut q = 0u32;
        loop {
            if self.nbits == 0 {
                self.refill();
                if self.nbits == 0 {
                    return Err(Error::UnexpectedEof);
                }
            }
            let run = (!self.acc).trailing_zeros();
            if run >= self.nbits {
                // Every live bit is a one; consume them (capped at the
                // escape threshold) and refill for more.
                let take = self.nbits.min(48 - q);
                self.acc = if take == 64 { 0 } else { self.acc >> take };
                self.nbits -= take;
                q += take;
                if q == 48 {
                    break;
                }
                continue;
            }
            if q + run >= 48 {
                // The escape threshold is reached before the terminator;
                // the remaining ones belong to the escape payload.
                let take = 48 - q;
                self.acc >>= take;
                self.nbits -= take;
                break;
            }
            // `run` ones then the zero terminator, all live.
            self.acc >>= run + 1;
            self.nbits -= run + 1;
            q += run;
            let r = if k > 0 { self.read_bits(k)? } else { 0 };
            return Ok(((q as u64) << k) | r);
        }
        let lo = self.read_bits(32)?;
        let hi = self.read_bits(32)?;
        Ok(lo | (hi << 32))
    }

    /// Fill `out` with whole bytes. The reader must be byte-aligned
    /// (`bits_consumed() % 8 == 0`); bytes are copied directly with no
    /// bit-shifting. Errors (consuming nothing further) if fewer than
    /// `out.len()` bytes remain.
    pub fn read_bytes(&mut self, out: &mut [u8]) -> Result<(), Error> {
        debug_assert!(self.bits_consumed().is_multiple_of(8), "read_bytes requires byte alignment");
        let buffered = (self.nbits / 8) as usize;
        let from_acc = buffered.min(out.len());
        let rest = out.len() - from_acc;
        if self.data.len() - self.pos < rest {
            return Err(Error::UnexpectedEof);
        }
        for slot in out.iter_mut().take(from_acc) {
            *slot = (self.acc & 0xFF) as u8;
            self.acc >>= 8;
            self.nbits -= 8;
        }
        if rest > 0 {
            // Aligned and the accumulator is drained of counted bits, but
            // its stale tail referenced data[pos..] which we now step
            // past: clear it to restore the refill invariant.
            debug_assert_eq!(self.nbits, 0);
            self.acc = 0;
            out[from_acc..].copy_from_slice(&self.data[self.pos..self.pos + rest]);
            self.pos += rest;
        }
        Ok(())
    }

    /// Refill so that at least `n ≤ 57` bits are buffered if the stream
    /// still holds them, and return `(bits, avail)` without consuming
    /// anything: `bits` is the buffer LSB-first, and its low `avail` bits
    /// are real stream bits. Past the end of the stream every bit reads as
    /// zero, so a table lookup over the low bits is always well defined.
    /// Pair with [`Self::consume_bits`].
    #[inline]
    pub(crate) fn peek_bits(&mut self, n: u32) -> (u64, u32) {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
        }
        (self.acc, self.nbits)
    }

    /// Drop `n` bits that a [`Self::peek_bits`] call reported available.
    #[inline]
    pub(crate) fn consume_bits(&mut self, n: u32) {
        debug_assert!(n <= self.nbits && n < 64, "consume past the peeked bits");
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }

    /// True when every bit (up to byte padding) has been consumed.
    pub fn is_exhausted(&mut self) -> bool {
        self.refill();
        self.nbits == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD, 16);
        w.write_bit(true);
        w.write_bits(0x1FFFFF, 21);
        w.write_bits(0, 0);
        w.write_bits(0x0FFF_FFFF_FFFF, 44);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(21).unwrap(), 0x1FFFFF);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(44).unwrap(), 0x0FFF_FFFF_FFFF);
    }

    #[test]
    fn rice_roundtrip() {
        for k in 0..12u32 {
            let mut w = BitWriter::new();
            let values = [0u64, 1, 2, 7, 100, 1023, 1 << 20, u32::MAX as u64, u64::MAX >> 8];
            for &v in &values {
                w.write_rice(v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(r.read_rice(k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn rice_escape_boundary() {
        // Quotients around the 48-ones escape threshold, including values
        // whose escape payload starts with more ones.
        for k in [0u32, 1, 5, 11] {
            let mut w = BitWriter::new();
            let values: Vec<u64> =
                (44..52).map(|q| ((q as u64) << k) | (k as u64 & ((1 << k) - 1))).collect();
            for &v in &values {
                w.write_rice(v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(r.read_rice(k).unwrap(), v, "k={k}");
            }
            // Only zero padding from finish() may remain.
            r.align_byte();
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn eof_is_error() {
        let bytes = BitWriter::new().finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn rice_truncated_run_is_eof() {
        // A stream that ends inside a unary run must error, not loop.
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_rice(4), Err(Error::UnexpectedEof));
    }

    #[test]
    fn align_byte_writer_reader_agree() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bits(0xAB, 8);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 131 % 251) as u8).collect();
        let mut w = BitWriter::new();
        w.write_bits(0b1_0110, 5);
        w.align_byte();
        w.write_bytes(&payload);
        w.write_bits(0x3FF, 10);
        w.align_byte();
        w.write_bytes(&payload[..7]);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(5).unwrap(), 0b1_0110);
        r.align_byte();
        let mut back = vec![0u8; payload.len()];
        r.read_bytes(&mut back).unwrap();
        assert_eq!(back, payload);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
        r.align_byte();
        let mut tail = vec![0u8; 7];
        r.read_bytes(&mut tail).unwrap();
        assert_eq!(tail, payload[..7]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn read_bytes_past_end_is_eof() {
        let mut w = BitWriter::new();
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0u8; 4];
        assert_eq!(r.read_bytes(&mut out), Err(Error::UnexpectedEof));
    }

    #[test]
    fn bulk_bytes_equal_bitwise_writes() {
        // write_bytes must produce the same stream as eight write_bits(…, 8)
        // calls — the bulk path is a fast path, not a format change.
        let payload: Vec<u8> = (0..257u32).map(|i| (i % 256) as u8).collect();
        let mut a = BitWriter::new();
        a.write_bits(0x5, 3);
        a.align_byte();
        a.write_bytes(&payload);
        let mut b = BitWriter::new();
        b.write_bits(0x5, 3);
        b.align_byte();
        for &byte in &payload {
            b.write_bits(byte as u64, 8);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn peek_consume_matches_read_after_word_refill() {
        // Peeking must agree with the word-refill stale-bit invariant, and
        // past the end of the stream the unavailable bits read as zero.
        let mut w = BitWriter::new();
        for i in 0..64u64 {
            w.write_bits(i, 6);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..64u64 {
            let (bits, avail) = r.peek_bits(15);
            assert!(avail >= 6);
            assert_eq!(bits & 0x3F, i);
            r.consume_bits(6);
        }
        let (bits, avail) = r.peek_bits(15);
        assert_eq!((bits, avail), (0, 0));
    }

    #[test]
    fn wide_reads_at_every_phase() {
        // A 57-bit read must succeed at any bit phase, in particular at
        // byte-aligned positions where a refill that counts `nbits | 56`
        // bits (instead of exactly) tops out at 56 and spuriously EOFs.
        // This is the GRIB2 header shape: 8 bits, then 57 + 7.
        for lead in 0..16u32 {
            let mut w = BitWriter::new();
            w.write_bits(0x5A5A & ((1 << lead) - 1), lead);
            w.write_bits(0x00FF_F0F0_ABCD_1234 & ((1u64 << 57) - 1), 57);
            w.write_bits(0x55, 7);
            w.write_bits(0xDEAD_BEEF, 32);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(lead).unwrap(), (0x5A5A & ((1 << lead) - 1)) as u64);
            assert_eq!(
                r.read_bits(57).unwrap(),
                0x00FF_F0F0_ABCD_1234 & ((1u64 << 57) - 1),
                "lead={lead}"
            );
            assert_eq!(r.read_bits(7).unwrap(), 0x55);
            assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 11);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn exhaustion_detection() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(!r.is_exhausted());
        r.read_bits(8).unwrap();
        assert!(r.is_exhausted());
    }
}
