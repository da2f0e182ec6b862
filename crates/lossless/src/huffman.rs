//! Canonical Huffman coding with length-limited codes.
//!
//! Code lengths are derived from symbol frequencies with the package-merge
//! algorithm (optimal under a maximum-length constraint), then assigned
//! canonically so only the length vector needs to be transmitted.
//!
//! Decoding is two-level, zlib-style. A [`ROOT_BITS`]-bit root table
//! resolves every code of up to ten bits in one lookup; each root prefix
//! shared by longer codes links to a subtable indexed by the next
//! `longest − 10` bits. Ten bits covers almost every literal the deflate
//! blocks here emit, and the root is 1,024 entries where a flat
//! [`MAX_CODE_LEN`]-bit table would be 32,768 — a table that is rebuilt
//! for every block.

use crate::bitio::{BitReader, BitWriter};
use crate::Error;

/// Maximum code length; 15 matches DEFLATE and keeps every subtable at
/// most 32 entries.
pub const MAX_CODE_LEN: u32 = 15;

/// Compute length-limited Huffman code lengths for `freqs` (zero frequency →
/// zero length, i.e. symbol absent). Lengths never exceed `max_len`.
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; freqs.len()];
    match active.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs a 1-bit code to be decodable.
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= active.len(),
        "alphabet of {} symbols cannot fit in {max_len}-bit codes",
        active.len()
    );

    // Package-merge. Every level is the leaves merged with the pairwise
    // sums of the level below, in weight order with a leaf first on equal
    // weight. The leaves are sorted once (stable, so equal weights keep
    // symbol order); the pair sums of a sorted level never decrease, so
    // each level is one linear merge and equals the stable sort of
    // "leaves, then pairs" that defines the tie order. Only the weights of
    // the level below and, per level, which slots hold a leaf are kept.
    let n = active.len();
    let mut order = active;
    order.sort_by_key(|&i| freqs[i]);
    let leaves: Vec<u64> = order.iter().map(|&i| freqs[i]).collect();
    let levels = max_len as usize;
    let stride = 2 * n;
    let mut is_leaf = vec![0u8; levels * stride];
    let mut prev = vec![0u64; stride];
    let mut cur = vec![0u64; stride];
    prev[..n].copy_from_slice(&leaves);
    is_leaf[..n].fill(1);
    let mut prev_len = n;
    for flags in is_leaf.chunks_exact_mut(stride).skip(1) {
        let pairs = prev_len / 2;
        let pair = |j: usize| prev[2 * j] + prev[2 * j + 1];
        let (mut i, mut j, mut k) = (0, 0, 0);
        // Branch-light merge: the comparison selects the value and
        // advances exactly one cursor.
        while i < n && j < pairs {
            let (lw, pw) = (leaves[i], pair(j));
            let take_leaf = lw <= pw;
            cur[k] = if take_leaf { lw } else { pw };
            flags[k] = take_leaf as u8;
            i += take_leaf as usize;
            j += !take_leaf as usize;
            k += 1;
        }
        for &lw in &leaves[i..] {
            cur[k] = lw;
            flags[k] = 1;
            k += 1;
        }
        // Pair slots keep the 0 flag they were allocated with.
        for j in j..pairs {
            cur[k] = pair(j);
            k += 1;
        }
        std::mem::swap(&mut prev, &mut cur);
        prev_len = k;
    }

    // Take the cheapest 2(n-1) packages of the top level. The pairs among
    // any taken prefix are that level's first pairs, so they expand to a
    // prefix of the level below, twice their count long; the leaves among
    // it are the first sorted leaves, each gaining one bit. `taken[c]`
    // counts the levels whose prefix holds exactly c leaves.
    let mut taken = vec![0u32; n + 1];
    let mut prefix = 2 * (n - 1);
    for flags in is_leaf.chunks_exact(stride).rev() {
        let c: usize = flags[..prefix].iter().map(|&f| f as usize).sum();
        taken[c] += 1;
        prefix = 2 * (prefix - c);
    }
    // Sorted leaf i is taken at every level whose count exceeds i.
    let mut len = 0u32;
    for (i, &sym) in order.iter().enumerate().rev() {
        len += taken[i + 1];
        lengths[sym] = len;
    }
    debug_assert!(lengths.iter().all(|&l| l <= max_len));
    lengths
}

/// Assign canonical codes to `lengths`. Returns `codes[i]` = bit-reversed
/// code ready for LSB-first writing (length `lengths[i]`).
pub fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c.reverse_bits() >> (32 - l)
            }
        })
        .collect()
}

/// Encoder: canonical codes + lengths for an alphabet.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lengths: Vec<u32>,
}

impl Encoder {
    /// Build an encoder from symbol frequencies.
    pub fn from_freqs(freqs: &[u64], max_len: u32) -> Self {
        let lengths = code_lengths(freqs, max_len);
        let codes = canonical_codes(&lengths);
        Encoder { codes, lengths }
    }

    /// Build from explicit code lengths (as read from a stream header).
    pub fn from_lengths(lengths: &[u32]) -> Self {
        let codes = canonical_codes(lengths);
        Encoder { codes, lengths: lengths.to_vec() }
    }

    /// The code lengths (what a container format serializes).
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Emit `symbol`'s code. Panics if the symbol has no code.
    pub fn write_symbol(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lengths[symbol];
        debug_assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol] as u64, len);
    }

    /// Length in bits of `symbol`'s code (0 if absent).
    pub fn symbol_len(&self, symbol: usize) -> u32 {
        self.lengths[symbol]
    }

    /// The `(code, length)` pair for `symbol`, with the code already
    /// bit-reversed for LSB-first writing. Lets callers pack a symbol
    /// together with its extra bits into a single bit-write.
    #[inline]
    pub fn code(&self, symbol: usize) -> (u32, u32) {
        (self.codes[symbol], self.lengths[symbol])
    }
}

/// Bits resolved by the root table. Every code of up to this length
/// decodes with one lookup; longer codes take a second lookup in a
/// per-prefix subtable.
pub const ROOT_BITS: u32 = 10;
const ROOT_SIZE: usize = 1 << ROOT_BITS;
const ROOT_MASK: usize = ROOT_SIZE - 1;

/// Packed table entry: `payload << 16 | LINK? | len`. A symbol entry holds
/// the symbol and its full code length (1..=15); a root link entry holds
/// the subtable's offset and its index width (1..=5). Zero is invalid.
const LEN_MASK: u32 = 0xF;
const LINK: u32 = 0x10;

/// Two-level table decoder for canonical codes.
#[derive(Debug)]
pub struct Decoder {
    /// Indexed by the next [`ROOT_BITS`] stream bits (LSB-first).
    root: [u32; ROOT_SIZE],
    /// Subtables for codes longer than [`ROOT_BITS`], one per root prefix
    /// that such codes share, indexed by the bits after the root's.
    sub: Vec<u32>,
    max: u32,
}

impl Decoder {
    /// Build a decoder from code lengths. Returns an error for
    /// over-subscribed (invalid) codes; incomplete codes are accepted and
    /// undefined entries decode to an error at read time.
    pub fn from_lengths(lengths: &[u32]) -> Result<Self, Error> {
        let max = lengths.iter().copied().max().unwrap_or(0);
        let mut dec = Decoder { root: [0; ROOT_SIZE], sub: Vec::new(), max };
        if max == 0 {
            return Ok(dec);
        }
        if max > MAX_CODE_LEN {
            return Err(Error::Corrupt("code length exceeds maximum"));
        }
        if lengths.len() > 1 << 16 {
            return Err(Error::Corrupt("Huffman alphabet too large"));
        }
        // Kraft check for over-subscription.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(Error::Corrupt("over-subscribed Huffman code"));
        }
        let codes = canonical_codes(lengths);
        if max > ROOT_BITS {
            // Size each subtable by the longest code under its root prefix.
            // Codes are bit-reversed, so the prefix is the code's low bits.
            let mut sub_bits = [0u8; ROOT_SIZE];
            for (&len, &code) in lengths.iter().zip(&codes) {
                if len > ROOT_BITS {
                    let p = code as usize & ROOT_MASK;
                    sub_bits[p] = sub_bits[p].max((len - ROOT_BITS) as u8);
                }
            }
            // At most 1024 subtables of ≤ 32 entries: offsets fit 16 bits.
            let mut size = 0u32;
            for (p, &bits) in sub_bits.iter().enumerate() {
                if bits > 0 {
                    dec.root[p] = size << 16 | LINK | bits as u32;
                    size += 1 << bits;
                }
            }
            dec.sub = vec![0; size as usize];
        }
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 {
                continue;
            }
            let entry = (sym as u32) << 16 | len;
            // The code occupies every slot whose low bits equal it.
            let (table, mut idx, step) = if len <= ROOT_BITS {
                (&mut dec.root[..], code as usize, 1usize << len)
            } else {
                let link = dec.root[code as usize & ROOT_MASK];
                let off = (link >> 16) as usize;
                let subtable = &mut dec.sub[off..off + (1 << (link & LEN_MASK))];
                (
                    subtable,
                    (code >> ROOT_BITS) as usize,
                    1 << (len - ROOT_BITS),
                )
            };
            while idx < table.len() {
                table[idx] = entry;
                idx += step;
            }
        }
        Ok(dec)
    }

    /// Decode the code at the front of `bits`, the next stream bits
    /// LSB-first of which `avail` are real (the rest read as zero past the
    /// end of the stream). Returns the symbol and its code length without
    /// consuming anything. A code longer than `avail` matched the zero
    /// padding, so it is a truncated stream, not a symbol.
    #[inline]
    pub(crate) fn decode_bits(&self, bits: u64, avail: u32) -> Result<(usize, u32), Error> {
        let mut e = self.root[bits as usize & ROOT_MASK];
        if e & LINK != 0 {
            let idx = (bits >> ROOT_BITS) as usize & ((1 << (e & LEN_MASK)) - 1);
            e = self.sub[(e >> 16) as usize + idx];
        }
        let len = e & LEN_MASK;
        if len == 0 {
            let what = if self.max == 0 {
                "empty Huffman alphabet"
            } else {
                "invalid Huffman code"
            };
            return Err(Error::Corrupt(what));
        }
        if len > avail {
            return Err(Error::UnexpectedEof);
        }
        Ok(((e >> 16) as usize, len))
    }

    /// Decode one symbol.
    #[inline]
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<usize, Error> {
        let (bits, avail) = r.peek_bits(MAX_CODE_LEN);
        let (sym, len) = self.decode_bits(bits, avail)?;
        r.consume_bits(len);
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    fn roundtrip(freqs: &[u64], message: &[usize]) {
        let enc = Encoder::from_freqs(freqs, MAX_CODE_LEN);
        let mut w = BitWriter::new();
        for &s in message {
            enc.write_symbol(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.read_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn simple_alphabet_roundtrip() {
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let msg: Vec<usize> = (0..6).cycle().take(100).collect();
        roundtrip(&freqs, &msg);
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = [0u64, 100, 0];
        roundtrip(&freqs, &[1, 1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_respect_length_limit() {
        // Fibonacci-like frequencies force long codes in unlimited Huffman.
        let mut freqs = vec![0u64; 24];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l <= 15 && l > 0));
        // Kraft equality for a complete code.
        let kraft: f64 = lengths.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft {kraft}");
    }

    #[test]
    fn package_merge_is_optimal_when_unconstrained() {
        // For frequencies 1,1,2,4: optimal lengths 3,3,2,1 (cost 14 bits).
        let lengths = code_lengths(&[1, 1, 2, 4], 15);
        let cost: u64 = [1u64, 1, 2, 4]
            .iter()
            .zip(&lengths)
            .map(|(f, &l)| f * l as u64)
            .sum();
        assert_eq!(cost, 14);
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three 1-bit codes cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn zero_freq_symbols_get_no_code() {
        let lengths = code_lengths(&[5, 0, 3, 0], 15);
        assert_eq!(lengths[1], 0);
        assert_eq!(lengths[3], 0);
        assert!(lengths[0] > 0 && lengths[2] > 0);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = code_lengths(&[10, 9, 8, 7, 6, 5, 4, 3, 2, 1], 15);
        let codes = canonical_codes(&lengths);
        // Reverse back to MSB-first and check prefix-freeness pairwise.
        let msb: Vec<(u32, u32)> = lengths
            .iter()
            .zip(&codes)
            .filter(|(&l, _)| l > 0)
            .map(|(&l, &c)| (l, c.reverse_bits() >> (32 - l)))
            .collect();
        for (i, &(li, ci)) in msb.iter().enumerate() {
            for (j, &(lj, cj)) in msb.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, long) = if li <= lj { ((li, ci), (lj, cj)) } else { ((lj, cj), (li, ci)) };
                assert!(
                    long.1 >> (long.0 - short.0) != short.1,
                    "code {i} prefixes {j}"
                );
            }
        }
    }

    #[test]
    fn large_random_alphabet_roundtrip() {
        // Deterministic pseudo-random frequencies.
        let mut state = 0x12345678u64;
        let mut freqs = vec![0u64; 300];
        for f in freqs.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *f = state >> 50; // some zeros likely
        }
        freqs[0] = 1; // ensure at least one active symbol
        let active: Vec<usize> = (0..300).filter(|&i| freqs[i] > 0).collect();
        let msg: Vec<usize> = active.iter().cycle().take(5000).copied().collect();
        roundtrip(&freqs, &msg);
    }
}
