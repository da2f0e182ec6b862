//! A DEFLATE-like compressed container over the LZ77 token stream.
//!
//! The framing is custom (we only need self-interoperability), but the
//! coding machinery is DEFLATE's: dynamic canonical-Huffman blocks over a
//! literal/length alphabet plus a distance alphabet with extra bits, and a
//! stored-block fallback for incompressible stretches.
//!
//! Stream layout:
//!
//! ```text
//! u64 LE  uncompressed length
//! blocks: 1 bit final, 1 bit kind (0 = stored, 1 = huffman)
//!   stored : byte-align, u32 LE length, raw bytes
//!   huffman: 286×4-bit lit/len code lengths, 30×4-bit dist code lengths,
//!            tokens..., end-of-block symbol (256)
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{Decoder, Encoder};
use crate::lz77::{self, Effort, Token};
use crate::Error;

/// Compression effort level (mirrors zlib's fast/default/best).
pub type Level = Effort;

/// Literal/length alphabet size: 256 literals + EOB + 29 length codes.
const NLIT: usize = 286;
/// End-of-block symbol.
const EOB: usize = 256;
/// Distance alphabet size.
const NDIST: usize = 30;
/// Tokens per dynamic block.
const BLOCK_TOKENS: usize = 1 << 15;

/// DEFLATE length-code table: `(base, extra_bits)` for codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// DEFLATE distance-code table: `(base, extra_bits)` for codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4),
    (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8),
    (1025, 9), (1537, 9), (2049, 10), (3073, 10),
    (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// `LEN_CODE_OF[len]` = index into [`LEN_TABLE`] of the last base ≤ `len`,
/// for `len` in 3..=258. Replaces a per-token binary search in the hot
/// encode loops.
const LEN_CODE_OF: [u8; 259] = {
    let mut t = [0u8; 259];
    let mut len = 3usize;
    while len <= 258 {
        let mut idx = 0usize;
        while idx + 1 < LEN_TABLE.len() && LEN_TABLE[idx + 1].0 as usize <= len {
            idx += 1;
        }
        t[len] = idx as u8;
        len += 1;
    }
    t
};

/// Distance-code lookup split the zlib way: slots 0..256 cover `dist - 1`
/// for distances ≤ 256; slots 256..512 cover `(dist - 1) >> 7` for larger
/// distances (every code ≥ 16 spans whole 128-aligned ranges, so the
/// shifted index is unambiguous).
const DIST_CODE_OF: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut s = 0usize;
    while s < 512 {
        // Representative distance for the slot: the smallest one mapping
        // to it. High slots cover [k·128 + 1, (k+1)·128] and every code
        // ≥ 16 spans whole such ranges, so one probe covers the slot.
        let d = if s < 256 { s + 1 } else { ((s - 256) << 7) + 1 };
        let mut idx = 0usize;
        while idx + 1 < DIST_TABLE.len() && DIST_TABLE[idx + 1].0 as usize <= d {
            idx += 1;
        }
        t[s] = idx as u8;
        s += 1;
    }
    t
};

/// Map a match length (3..=258) to `(code_index, extra_value, extra_bits)`.
#[inline]
fn length_code(len: u16) -> (usize, u16, u8) {
    debug_assert!((3..=258).contains(&len));
    let idx = LEN_CODE_OF[len as usize] as usize;
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, len - base, extra)
}

/// Map a distance (1..=32768) to `(code_index, extra_value, extra_bits)`.
#[inline]
fn dist_code(dist: u16) -> (usize, u16, u8) {
    debug_assert!(dist >= 1);
    let d = dist as usize - 1;
    let idx = if d < 256 { DIST_CODE_OF[d] } else { DIST_CODE_OF[256 + (d >> 7)] } as usize;
    let (base, extra) = DIST_TABLE[idx];
    (idx, dist - base, extra)
}

/// Compress `data` at the given effort level.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let _s = cc_obs::span("deflate.encode");
    let tokens = lz77::tokenize(data, level);
    let mut w = BitWriter::new();
    // Length header, byte-aligned by construction.
    w.write_bits(data.len() as u64 & 0xFFFF_FFFF, 32);
    w.write_bits((data.len() as u64) >> 32, 32);

    if tokens.is_empty() {
        // Zero-length payload still needs one (final, stored, empty) block.
        w.write_bit(true);
        w.write_bit(false);
        w.align_byte();
        w.write_bits(0, 32);
        return w.finish();
    }

    // Chunk tokens into blocks; remember the byte extent of each chunk so a
    // stored fallback can copy the exact range.
    let mut start_byte = 0usize;
    let mut t0 = 0usize;
    while t0 < tokens.len() {
        let t1 = (t0 + BLOCK_TOKENS).min(tokens.len());
        let chunk = &tokens[t0..t1];
        let nbytes: usize = chunk
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => *len as usize,
            })
            .sum();
        let is_final = t1 == tokens.len();
        write_block(&mut w, chunk, &data[start_byte..start_byte + nbytes], is_final);
        start_byte += nbytes;
        t0 = t1;
    }
    w.finish()
}

fn write_block(w: &mut BitWriter, tokens: &[Token], raw: &[u8], is_final: bool) {
    // Gather symbol frequencies.
    let mut lit_freq = [0u64; NLIT];
    let mut dist_freq = [0u64; NDIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_code(len).0] += 1;
                dist_freq[dist_code(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;

    let lit_enc = Encoder::from_freqs(&lit_freq, crate::huffman::MAX_CODE_LEN);
    let dist_enc = Encoder::from_freqs(&dist_freq, crate::huffman::MAX_CODE_LEN);

    // Estimate the dynamic-block cost and compare with stored. Every
    // token's bit cost is its symbol's code length plus the code's fixed
    // extra-bit count, so summing over the (tiny) alphabets instead of the
    // token stream gives the same total. The EOB count added above folds
    // its code length in too.
    let header_bits = 2 + (NLIT + NDIST) * 4;
    let mut body_bits = 0u64;
    for (sym, &f) in lit_freq.iter().enumerate() {
        if f > 0 {
            let extra = if sym > EOB { LEN_TABLE[sym - 257].1 as u32 } else { 0 };
            body_bits += f * (lit_enc.symbol_len(sym) + extra) as u64;
        }
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        if f > 0 {
            body_bits += f * (dist_enc.symbol_len(sym) + DIST_TABLE[sym].1 as u32) as u64;
        }
    }
    let dynamic_bits = header_bits as u64 + body_bits;
    let stored_bits = 2 + 8 + 32 + raw.len() as u64 * 8; // worst-case align

    w.write_bit(is_final);
    if stored_bits < dynamic_bits {
        w.write_bit(false); // stored
        w.align_byte();
        w.write_bits(raw.len() as u64, 32);
        w.write_bytes(raw);
        return;
    }
    w.write_bit(true); // huffman
    for &l in lit_enc.lengths() {
        w.write_bits(l as u64, 4);
    }
    for &l in dist_enc.lengths() {
        w.write_bits(l as u64, 4);
    }
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_enc.write_symbol(w, b as usize),
            Token::Match { len, dist } => {
                // Pack length code + extra + distance code + extra into one
                // LSB-first write: ≤ 15 + 5 + 15 + 13 = 48 bits, the same
                // bit sequence four separate writes would produce.
                let (lc, lv, le) = length_code(len);
                let (dc, dv, de) = dist_code(dist);
                let (lcode, llen) = lit_enc.code(lc);
                let (dcode, dlen) = dist_enc.code(dc);
                let mut bits = lcode as u64;
                let mut n = llen;
                bits |= (lv as u64) << n;
                n += le as u32;
                bits |= (dcode as u64) << n;
                n += dlen;
                bits |= (dv as u64) << n;
                n += de as u32;
                w.write_bits(bits, n);
            }
        }
    }
    lit_enc.write_symbol(w, EOB);
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    decompress_with_cap(data, usize::MAX)
}

/// Like [`decompress`], but rejects any stream whose declared output
/// length exceeds `max_out` *before* allocating. Callers that know the
/// exact size a section must decode to (the archive reader, for one)
/// pass it here so a damaged length field can never cost an oversized
/// allocation, independent of the generic expansion heuristics below.
pub fn decompress_capped(data: &[u8], max_out: usize) -> Result<Vec<u8>, Error> {
    decompress_with_cap(data, max_out)
}

fn decompress_with_cap(data: &[u8], max_out: usize) -> Result<Vec<u8>, Error> {
    let _s = cc_obs::span("deflate.decode");
    let mut r = BitReader::new(data);
    let lo = r.read_bits(32)?;
    let hi = r.read_bits(32)?;
    let total = (lo | (hi << 32)) as usize;
    // Refuse absurd headers before allocating: a Huffman match token costs
    // at least one bit and emits at most 258 bytes, so no honest stream
    // expands beyond 258 bytes per input bit (2064 per byte).
    if total > data.len().saturating_mul(2064) {
        return Err(Error::Corrupt("declared length exceeds maximum expansion"));
    }
    if total > max_out {
        return Err(Error::Corrupt("declared length exceeds caller cap"));
    }
    // Pre-allocation from the (still untrusted) header is capped at 16x
    // the input; growth past that only follows actually-decoded content.
    let cap = data.len().saturating_mul(16);
    if total > cap {
        cc_obs::counter_inc("lossless.alloc_cap_hits");
    }
    let mut out: Vec<u8> = Vec::with_capacity(total.min(cap));

    loop {
        let is_final = r.read_bit()?;
        let is_huffman = r.read_bit()?;
        if !is_huffman {
            r.align_byte();
            let len = r.read_bits(32)? as usize;
            if out.len() + len > total {
                return Err(Error::Corrupt("stored block overruns declared length"));
            }
            // Check availability before the bulk resize so a damaged
            // length can't trigger an oversized allocation.
            if len > data.len().saturating_sub(r.bits_consumed() / 8) {
                return Err(Error::UnexpectedEof);
            }
            let start = out.len();
            out.resize(start + len, 0);
            r.read_bytes(&mut out[start..])?;
        } else {
            let mut lit_lengths = [0u32; NLIT];
            for l in lit_lengths.iter_mut() {
                *l = r.read_bits(4)? as u32;
            }
            let mut dist_lengths = [0u32; NDIST];
            for l in dist_lengths.iter_mut() {
                *l = r.read_bits(4)? as u32;
            }
            let lit_dec = Decoder::from_lengths(&lit_lengths)?;
            let dist_dec = Decoder::from_lengths(&dist_lengths)?;
            inflate_block(&mut r, &lit_dec, &dist_dec, &mut out, total)?;
        }
        if is_final {
            break;
        }
    }
    if out.len() != total {
        return Err(Error::Corrupt("declared length mismatch"));
    }
    Ok(out)
}

/// Bits one token can span: a 15-bit length code, 5 extra bits, a
/// 15-bit distance code and 13 extra bits.
const TOKEN_BITS: u32 = 48;

/// Decode one dynamic block's token stream up to its end-of-block
/// symbol, appending to `out` (never past `total` bytes).
///
/// Each token is decoded from a single [`TOKEN_BITS`]-bit peek. Before the
/// end of the input the peek always holds a whole token; in the last few
/// bytes the length-versus-available-bits checks catch a token cut short.
fn inflate_block(
    r: &mut BitReader<'_>,
    lit_dec: &Decoder,
    dist_dec: &Decoder,
    out: &mut Vec<u8>,
    total: usize,
) -> Result<(), Error> {
    // The token loop runs on a local copy of the reader so the bit buffer
    // stays in registers (about 5% on literal-heavy blocks).
    let mut br = r.clone();
    let res = inflate_tokens(&mut br, lit_dec, dist_dec, out, total);
    *r = br;
    res
}

#[inline(always)]
fn inflate_tokens(
    br: &mut BitReader<'_>,
    lit_dec: &Decoder,
    dist_dec: &Decoder,
    out: &mut Vec<u8>,
    total: usize,
) -> Result<(), Error> {
    loop {
        let (bits, avail) = br.peek_bits(TOKEN_BITS);
        let (sym, mut n) = lit_dec.decode_bits(bits, avail)?;
        if sym < 256 {
            if out.len() >= total {
                return Err(Error::Corrupt("literal overruns declared length"));
            }
            out.push(sym as u8);
            // Literals come in runs: take a second one from the same peek.
            // Anything else (or an error) is left for the next iteration.
            if let Ok((sym2, n2)) = lit_dec.decode_bits(bits >> n, avail - n) {
                if sym2 < 256 && out.len() < total {
                    out.push(sym2 as u8);
                    n += n2;
                }
            }
            br.consume_bits(n);
            continue;
        }
        if sym == EOB {
            br.consume_bits(n);
            return Ok(());
        }
        let li = sym - 257;
        if li >= LEN_TABLE.len() {
            return Err(Error::Corrupt("invalid length code"));
        }
        let (base, extra) = LEN_TABLE[li];
        let extra = extra as u32;
        let mut used = n + extra;
        if used > avail {
            return Err(Error::UnexpectedEof);
        }
        let len = base as usize + ((bits >> n) & ((1u64 << extra) - 1)) as usize;
        let (dsym, dn) = dist_dec.decode_bits(bits >> used, avail - used)?;
        if dsym >= DIST_TABLE.len() {
            return Err(Error::Corrupt("invalid distance code"));
        }
        let (dbase, dextra) = DIST_TABLE[dsym];
        let dextra = dextra as u32;
        if used + dn + dextra > avail {
            return Err(Error::UnexpectedEof);
        }
        let dist = dbase as usize + ((bits >> (used + dn)) & ((1u64 << dextra) - 1)) as usize;
        used += dn + dextra;
        if dist == 0 || dist > out.len() {
            return Err(Error::Corrupt("distance exceeds output"));
        }
        if out.len() + len > total {
            return Err(Error::Corrupt("match overruns declared length"));
        }
        br.consume_bits(used);
        // An overlapping match (dist < len) repeats the last `dist` bytes.
        // `out[start..]` stays periodic with period `dist`, so copying its
        // whole current length at a time doubles the run each step.
        let start = out.len() - dist;
        let mut left = len;
        while left > 0 {
            let chunk = left.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            left -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let z = compress(data, Level::Default);
        let back = decompress(&z).unwrap();
        assert_eq!(data, &back[..]);
        z.len()
    }

    #[test]
    fn empty_input() {
        assert!(roundtrip(b"") > 0);
    }

    #[test]
    fn short_inputs() {
        roundtrip(b"a");
        roundtrip(b"climate");
        roundtrip(&[0u8; 3]);
    }

    #[test]
    fn text_compresses() {
        let data = "the community earth system model ".repeat(200);
        let n = roundtrip(data.as_bytes());
        assert!(n < data.len() / 4, "{n} vs {}", data.len());
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        let mut state = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let n = roundtrip(&data);
        // Stored fallback bounds expansion to a tiny framing overhead.
        assert!(n < data.len() + data.len() / 100 + 64, "{n} vs {}", data.len());
    }

    #[test]
    fn all_levels_roundtrip() {
        let data = b"abcabcabcabc_the_rest_is_different_xyzxyzxyz".repeat(50);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = compress(&data, level);
            assert_eq!(decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn multi_block_input() {
        // Force several blocks (> BLOCK_TOKENS tokens of literals).
        let mut state = 7u64;
        let data: Vec<u8> = (0..200_000)
            .map(|i| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((state >> 40) as u8).wrapping_add((i / 1000) as u8)
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn zeros_compress_hugely() {
        let data = vec![0u8; 100_000];
        let n = roundtrip(&data);
        assert!(n < 1000, "zeros compressed to {n}");
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"hello world hello world hello world".repeat(10);
        let z = compress(&data, Level::Default);
        for cut in [0usize, 4, 8, z.len() / 2, z.len() - 1] {
            let r = decompress(&z[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_header_errors() {
        let mut z = compress(b"some data to compress", Level::Default);
        // Implausible length.
        for b in z.iter_mut().take(8) {
            *b = 0xFF;
        }
        assert!(decompress(&z).is_err());
    }

    #[test]
    fn length_code_table_is_exhaustive() {
        for len in 3..=258u16 {
            let (code, extra_v, extra_b) = length_code(len);
            assert!((257..286).contains(&code));
            let (base, eb) = LEN_TABLE[code - 257];
            assert_eq!(eb, extra_b);
            assert_eq!(base + extra_v, len);
            assert!(extra_v < (1 << extra_b.max(1)) || extra_b == 0 && extra_v == 0);
        }
    }

    #[test]
    fn dist_code_table_is_exhaustive() {
        for dist in 1..=32768u16 {
            let (code, extra_v, extra_b) = dist_code(dist);
            assert!(code < 30);
            let (base, eb) = DIST_TABLE[code];
            assert_eq!(eb, extra_b);
            assert_eq!(base as u32 + extra_v as u32, dist as u32);
        }
    }
}
