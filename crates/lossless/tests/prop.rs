//! Property tests for the lossless substrate.

use cc_lossless::bitio::{BitReader, BitWriter};
use cc_lossless::huffman::{code_lengths, Decoder, Encoder, MAX_CODE_LEN};
use cc_lossless::lz77::{expand, tokenize, Effort};
use cc_lossless::{compress, decompress, shuffle, unshuffle, Level};
use proptest::prelude::*;

/// Test-only reference: canonical Huffman decoding one bit at a time, the
/// textbook way. It shares nothing with [`Decoder`]'s tables, so the two
/// agreeing symbol for symbol (and failing at the same symbol) pins the
/// table decoder, including its subtables and end-of-stream handling.
struct ReferenceDecoder {
    /// Number of codes of each length 0..=15.
    count: [i64; 16],
    /// Symbols ordered by (code length, symbol): canonical code order.
    symbols: Vec<usize>,
}

impl ReferenceDecoder {
    /// `None` for an over-subscribed length vector.
    fn new(lengths: &[u32]) -> Option<Self> {
        let mut count = [0i64; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        // Codes left unused at each length; negative = over-subscribed.
        let mut left = 1i64;
        for &c in &count[1..] {
            left = 2 * left - c;
            if left < 0 {
                return None;
            }
        }
        let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| lengths[s]);
        Some(ReferenceDecoder { count, symbols })
    }

    /// Read code bits first-to-last until they name a symbol; `None` when
    /// the stream ends first or no code of up to 15 bits matches.
    fn read_symbol(&self, r: &mut BitReader<'_>) -> Option<usize> {
        let (mut code, mut first, mut index) = (0i64, 0i64, 0i64);
        for len in 1..=MAX_CODE_LEN as usize {
            code |= r.read_bit().ok()? as i64;
            let count = self.count[len];
            if code - first < count {
                return Some(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        None
    }
}

/// Decode `stream` with both decoders until either stops: same verdict on
/// the length vector, then the same symbols at the same bit positions and
/// a failure at the same symbol.
fn agrees_with_reference(lengths: &[u32], stream: &[u8]) {
    let (dec, reference) = match (Decoder::from_lengths(lengths), ReferenceDecoder::new(lengths)) {
        (Err(_), None) => return,
        (Ok(dec), Some(reference)) => (dec, reference),
        (dec, reference) => panic!(
            "lengths {lengths:?}: table decoder built = {}, reference built = {}",
            dec.is_ok(),
            reference.is_some()
        ),
    };
    let mut fast = BitReader::new(stream);
    let mut slow = BitReader::new(stream);
    for i in 0.. {
        match (dec.read_symbol(&mut fast).ok(), reference.read_symbol(&mut slow)) {
            (None, None) => return,
            (a, b) => {
                assert_eq!(a, b, "symbol {i} differs for lengths {lengths:?}");
                assert_eq!(fast.bits_consumed(), slow.bits_consumed(), "symbol {i} length");
            }
        }
    }
}

/// Complete, length-limited code lengths with a heavily skewed
/// distribution: frequencies `2^e` drive the rare symbols to 11–15 bits.
fn skewed_lengths(exps: &[u32]) -> Vec<u32> {
    let freqs: Vec<u64> = exps.iter().map(|&e| if e == 0 { 0 } else { 1u64 << e }).collect();
    code_lengths(&freqs, MAX_CODE_LEN)
}

/// Test-only oracle: package-merge as first written. Every level clones
/// the leaf list, appends the pairs of the level below and stable-sorts by
/// weight; the lengths come from walking the taken packages with a stack.
/// [`code_lengths`] must return exactly this vector, tie order included.
fn code_lengths_by_sorting(freqs: &[u64], max_len: u32) -> Vec<u32> {
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; freqs.len()];
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    #[derive(Clone, Copy)]
    enum Node {
        Leaf(u32),
        Pair(u32, u32),
    }
    let leaf_items: Vec<(u64, Node)> = active
        .iter()
        .enumerate()
        .map(|(j, &i)| (freqs[i], Node::Leaf(j as u32)))
        .collect();
    let mut levels: Vec<Vec<(u64, Node)>> = Vec::new();
    for _ in 0..max_len {
        let mut merged = leaf_items.clone();
        if let Some(prev) = levels.last() {
            for (k, pair) in prev.chunks_exact(2).enumerate() {
                merged.push((pair[0].0 + pair[1].0, Node::Pair(2 * k as u32, 2 * k as u32 + 1)));
            }
        }
        merged.sort_by_key(|p| p.0);
        levels.push(merged);
    }
    let top = levels.len() - 1;
    let take = 2 * (active.len() - 1);
    let mut stack: Vec<(usize, u32)> = (0..take).map(|i| (top, i as u32)).collect();
    while let Some((level, idx)) = stack.pop() {
        match levels[level][idx as usize].1 {
            Node::Leaf(j) => lengths[active[j as usize]] += 1,
            Node::Pair(a, b) => {
                stack.push((level - 1, a));
                stack.push((level - 1, b));
            }
        }
    }
    lengths
}

/// Frequency vectors that stress package-merge's tie order, shaped from
/// random draws `raw`: random (0), all-equal (1), drawn from a handful of
/// values (2), power-of-two skewed (3), and one or two active symbols
/// among zeros (4).
fn shaped_freqs(shape: u8, raw: &[u64]) -> Vec<u64> {
    let n = raw.len();
    match shape {
        0 => raw.to_vec(),
        1 => vec![raw[0] % 1_000 + 1; n],
        2 => raw.iter().map(|&v| [0, 1, 2, 3, 5, 8][(v % 6) as usize]).collect(),
        3 => raw.iter().map(|&v| if v % 40 == 0 { 0 } else { 1u64 << (v % 40) }).collect(),
        _ => {
            let mut freqs = vec![0u64; n];
            freqs[(raw[0] % n as u64) as usize] = raw[0] % 100 + 1;
            freqs[(raw[n - 1] % n as u64) as usize] += raw[n - 1] % 100;
            freqs
        }
    }
}

/// A message over the symbols `lengths` codes, encoded and cut to `cut`.
fn encoded_prefix(
    lengths: &[u32],
    picks: &[prop::sample::Index],
    cut: prop::sample::Index,
) -> Vec<u8> {
    let active: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    let enc = Encoder::from_lengths(lengths);
    let mut w = BitWriter::new();
    if !active.is_empty() {
        for ix in picks {
            enc.write_symbol(&mut w, active[ix.index(active.len())]);
        }
    }
    let mut bytes = w.finish();
    bytes.truncate(cut.index(bytes.len() + 1));
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn deflate_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let z = compress(&data, Level::Default);
        prop_assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..64),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let z = compress(&data, Level::Best);
        prop_assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decompress(&data);
    }

    #[test]
    fn truncation_never_panics(data in prop::collection::vec(any::<u8>(), 1..2048), cut in any::<prop::sample::Index>()) {
        let z = compress(&data, Level::Fast);
        let cut = cut.index(z.len());
        let _ = decompress(&z[..cut]);
    }

    #[test]
    fn shuffle_is_inverse(data in prop::collection::vec(any::<u8>(), 0..4096), esize in 1usize..12) {
        prop_assert_eq!(unshuffle(&shuffle(&data, esize), esize), data);
    }

    #[test]
    fn lz77_roundtrip_all_efforts(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            let tokens = tokenize(&data, effort);
            prop_assert_eq!(expand(&tokens, data.len()), data.clone());
        }
    }

    #[test]
    fn bitio_roundtrip(values in prop::collection::vec((any::<u64>(), 1u32..57), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v & ((1u64 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            prop_assert_eq!(r.read_bits(n).unwrap(), v & ((1u64 << n) - 1));
        }
    }

    #[test]
    fn rice_roundtrip(values in prop::collection::vec(any::<u64>(), 0..200), k in 0u32..20) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_rice(v, k);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.read_rice(k).unwrap(), v);
        }
    }

    #[test]
    fn huffman_lengths_satisfy_kraft(freqs in prop::collection::vec(0u64..1_000_000, 2..300)) {
        let lengths = code_lengths(&freqs, MAX_CODE_LEN);
        let active = freqs.iter().filter(|&&f| f > 0).count();
        if active >= 2 {
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            prop_assert!(kraft <= 1.0 + 1e-9, "kraft {}", kraft);
            // Optimal prefix code on ≥2 symbols is complete.
            prop_assert!(kraft >= 1.0 - 1e-9, "incomplete code: {}", kraft);
        }
    }

    #[test]
    fn huffman_coder_roundtrip(
        freqs in prop::collection::vec(0u64..10_000, 2..64),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..500),
    ) {
        let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        prop_assume!(!active.is_empty());
        let enc = Encoder::from_freqs(&freqs, MAX_CODE_LEN);
        let msg: Vec<usize> = picks.iter().map(|ix| active[ix.index(active.len())]).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write_symbol(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            prop_assert_eq!(dec.read_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn f32_path_roundtrip(data in prop::collection::vec(any::<f32>(), 0..2000)) {
        // Bit-exact for every representable float, including NaN payloads.
        let z = cc_lossless::compress_f32_shuffled(&data, Level::Default);
        let back = cc_lossless::decompress_f32_shuffled(&z).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn huffman_matches_reference_on_random_lengths(
        lengths in prop::collection::vec(0u32..16, 1..300),
        stream in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Mostly over-subscribed vectors: construction must agree.
        agrees_with_reference(&lengths, &stream);
    }

    #[test]
    fn huffman_matches_reference_on_long_codes(
        raw in prop::collection::vec(0u32..8, 2..300),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..400),
        cut in any::<prop::sample::Index>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Lengths 9..=15 only: sparse (incomplete) codes where most
        // symbols take the subtable path and most bit patterns are invalid.
        let lengths: Vec<u32> = raw.iter().map(|&l| if l == 0 { 0 } else { l + 8 }).collect();
        agrees_with_reference(&lengths, &encoded_prefix(&lengths, &picks, cut));
        agrees_with_reference(&lengths, &garbage);
    }

    #[test]
    fn huffman_matches_reference_on_skewed_complete_codes(
        exps in prop::collection::vec(0u32..40, 2..300),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..400),
        cut in any::<prop::sample::Index>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let lengths = skewed_lengths(&exps);
        agrees_with_reference(&lengths, &encoded_prefix(&lengths, &picks, cut));
        agrees_with_reference(&lengths, &garbage);
    }

    #[test]
    fn huffman_matches_reference_on_incomplete_codes(
        exps in prop::collection::vec(0u32..40, 3..300),
        drop in prop::collection::vec(any::<prop::sample::Index>(), 1..8),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..400),
        cut in any::<prop::sample::Index>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A complete code with a few symbols removed leaves holes at
        // every level, root and subtable alike.
        let mut lengths = skewed_lengths(&exps);
        let n = lengths.len();
        for ix in &drop {
            lengths[ix.index(n)] = 0;
        }
        agrees_with_reference(&lengths, &encoded_prefix(&lengths, &picks, cut));
        agrees_with_reference(&lengths, &garbage);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn code_lengths_match_sorting_oracle(
        shape in 0u8..5,
        raw in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let freqs = shaped_freqs(shape, &raw);
        let active = freqs.iter().filter(|&&f| f > 0).count();
        // ceil(log2(active)): the shortest limit that fits the alphabet.
        let shortest = (usize::BITS - active.saturating_sub(1).leading_zeros()).max(1);
        for max_len in shortest..=MAX_CODE_LEN {
            prop_assert_eq!(
                code_lengths(&freqs, max_len),
                code_lengths_by_sorting(&freqs, max_len),
                "max_len {}", max_len
            );
        }
    }
}
