//! Delta-frame residual coding.
//!
//! A delta frame predicts each element from the **reconstructed**
//! previous frame. Three blob modes exist behind a one-byte tag:
//!
//! ```text
//! mode 0 (quantized): [0x00][f64 effective-bound bits][deflate(body)]
//!     body = [u32 n_escapes][u32 code_len][codes: code_len][escapes: 4·n_escapes]
//!     exact equation: body.len() == 8 + code_len + 4·n_escapes
//! mode 1 (exact):     [0x01][deflate(shuffle(raw f32 LE bytes))]
//! mode 2 (xor):       [0x02][deflate(shuffle(x.bits ^ prev.bits LE bytes))]
//! ```
//!
//! Mode 0 quantizes `q = round((x − prev')/2e)` against the previous
//! reconstruction `prev'`, mirroring the decoder exactly, and escapes to
//! the raw bits whenever the reconstruction would miss the bound (or the
//! value is non-finite, or `|q|` exceeds the SZ token cap). Codes are the
//! SZ token convention: `0` = escape, else `zigzag(q) + 1` as LEB128.
//! Mode 1 is the degenerate fallback when no effective bound exists for
//! the frame (constant field under a relative bound). Mode 2 carries no
//! bound at all: XOR against the previous reconstruction is exactly
//! invertible, so the original bits round-trip even under a lossy
//! keyframe codec.
//!
//! Every decode allocation is capped before it happens: the body cap is
//! the exact worst case for `n` elements (`8 + 5n` code bytes `+ 4n`
//! escape bytes), enforced by [`cc_lossless::decompress_capped`].

use cc_codecs::varint::{push_varint, read_varint, unzigzag, zigzag};
use cc_lossless::{shuffle, Level};

use crate::ArchiveError;

/// Blob mode tags.
pub const MODE_QUANTIZED: u8 = 0;
pub const MODE_EXACT: u8 = 1;
pub const MODE_XOR: u8 = 2;

/// Largest admissible quantization-code magnitude (same cap as SZ).
const QMAX: i64 = 1 << 30;

/// Encode `frame` as an exact blob (mode 1): shuffled raw bits.
pub fn encode_exact(frame: &[f32]) -> Vec<u8> {
    let bytes: Vec<u8> = frame.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut blob = vec![MODE_EXACT];
    blob.extend_from_slice(&cc_lossless::compress(&shuffle(&bytes, 4), Level::Default));
    blob
}

/// Encode `frame` against `prev` as a lossless XOR blob (mode 2).
/// Reconstruction is bit-exact.
pub fn encode_xor(frame: &[f32], prev: &[f32]) -> Vec<u8> {
    debug_assert_eq!(frame.len(), prev.len());
    let bytes: Vec<u8> = frame
        .iter()
        .zip(prev)
        .flat_map(|(x, p)| (x.to_bits() ^ p.to_bits()).to_le_bytes())
        .collect();
    let mut blob = vec![MODE_XOR];
    blob.extend_from_slice(&cc_lossless::compress(&shuffle(&bytes, 4), Level::Default));
    blob
}

/// Encode `frame` against the reconstructed previous frame under an
/// effective absolute bound `e` (mode 0). Returns the blob and the
/// reconstruction the decoder will produce — the caller threads it into
/// the next frame so quantization error never accumulates. Falls back to
/// mode 1 when `e` is `None`.
pub fn encode_bounded(frame: &[f32], prev: &[f32], e: Option<f64>) -> (Vec<u8>, Vec<f32>) {
    debug_assert_eq!(frame.len(), prev.len());
    let Some(e) = e else {
        return (encode_exact(frame), frame.to_vec());
    };
    let twoe = 2.0 * e;
    let mut codes = Vec::new();
    let mut escapes: Vec<u8> = Vec::new();
    let mut n_escapes = 0u32;
    let mut recon = Vec::with_capacity(frame.len());
    for (&x, &p) in frame.iter().zip(prev) {
        let xd = x as f64;
        let pd = p as f64;
        let q = ((xd - pd) / twoe).round();
        let mut escaped = true;
        if x.is_finite() && q.is_finite() && (q.abs() as i64) <= QMAX {
            let r = (pd + q * twoe) as f32;
            if (r as f64 - xd).abs() <= e {
                push_varint(&mut codes, zigzag(q as i64) + 1);
                recon.push(r);
                escaped = false;
            }
        }
        if escaped {
            codes.push(0);
            escapes.extend_from_slice(&x.to_bits().to_le_bytes());
            n_escapes += 1;
            recon.push(x);
        }
    }
    let mut body = Vec::with_capacity(8 + codes.len() + escapes.len());
    body.extend_from_slice(&n_escapes.to_le_bytes());
    body.extend_from_slice(&(codes.len() as u32).to_le_bytes());
    body.extend_from_slice(&codes);
    body.extend_from_slice(&escapes);
    let mut blob = vec![MODE_QUANTIZED];
    blob.extend_from_slice(&e.to_bits().to_le_bytes());
    blob.extend_from_slice(&cc_lossless::compress(&body, Level::Default));
    (blob, recon)
}

/// Decode a delta blob against the reconstructed parent frame into a new
/// frame. Convenience over [`decode_into`] for callers that keep the
/// parent.
pub fn decode(blob: &[u8], prev: &[f32], allow_quantized: bool) -> Result<Vec<f32>, ArchiveError> {
    let mut recon = prev.to_vec();
    decode_into(blob, &mut recon, allow_quantized)?;
    Ok(recon)
}

/// Decode a delta blob in place: `recon` holds the reconstructed parent
/// frame on entry and this frame on success (its length is the element
/// count). On error its contents are unspecified. `allow_quantized`
/// reflects the variable's declared delta mode: bounded variables accept
/// modes 0 and 1, XOR variables accept modes 2 and 1 — anything else is
/// corrupt. Total over untrusted bytes.
pub fn decode_into(
    blob: &[u8],
    recon: &mut [f32],
    allow_quantized: bool,
) -> Result<(), ArchiveError> {
    let _s = cc_obs::span("archive.delta.decode");
    let (&mode, rest) = blob
        .split_first()
        .ok_or(ArchiveError::Corrupt("empty delta frame"))?;
    match mode {
        MODE_QUANTIZED if allow_quantized => decode_quantized(rest, recon),
        MODE_EXACT => decode_raw(rest, recon, |word, _| word),
        MODE_XOR if !allow_quantized => decode_raw(rest, recon, |word, parent| word ^ parent),
        _ => Err(ArchiveError::Corrupt("delta frame mode contradicts index")),
    }
}

/// Shared mode-1/2 payload: deflate(shuffle(4n bytes)) → n u32 words,
/// each combined with the parent's bits by `apply(word, parent_bits)`.
fn decode_raw(
    rest: &[u8],
    recon: &mut [f32],
    apply: impl Fn(u32, u32) -> u32,
) -> Result<(), ArchiveError> {
    let n = recon.len();
    let raw_len = n
        .checked_mul(4)
        .ok_or(ArchiveError::Corrupt("delta frame element count overflows"))?;
    let shuffled = cc_lossless::decompress_capped(rest, raw_len)?;
    if shuffled.len() != raw_len {
        return Err(ArchiveError::Corrupt("delta frame payload length mismatch"));
    }
    // Byte plane k of the shuffled payload holds byte k of every word.
    let (b0, planes) = shuffled.split_at(n);
    let (b1, planes) = planes.split_at(n);
    let (b2, b3) = planes.split_at(n);
    for (i, p) in recon.iter_mut().enumerate() {
        let word = u32::from_le_bytes([b0[i], b1[i], b2[i], b3[i]]);
        *p = f32::from_bits(apply(word, p.to_bits()));
    }
    Ok(())
}

fn decode_quantized(rest: &[u8], recon: &mut [f32]) -> Result<(), ArchiveError> {
    let n = recon.len();
    if rest.len() < 8 {
        return Err(ArchiveError::Corrupt("delta frame shorter than bound header"));
    }
    let e = f64::from_bits(u64::from_le_bytes(rest[..8].try_into().unwrap()));
    if !e.is_finite() || e <= 0.0 {
        return Err(ArchiveError::Corrupt("delta frame bound not positive finite"));
    }
    let twoe = 2.0 * e;
    // Worst case: 5-byte token per element plus a 4-byte escape each.
    let cap = 8usize
        .checked_add(n.checked_mul(9).ok_or(ArchiveError::Corrupt("delta frame cap overflows"))?)
        .ok_or(ArchiveError::Corrupt("delta frame cap overflows"))?;
    let body = cc_lossless::decompress_capped(&rest[8..], cap)?;
    if body.len() < 8 {
        return Err(ArchiveError::Corrupt("delta frame body shorter than counts"));
    }
    let n_escapes = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let code_len = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
    if n_escapes > n {
        return Err(ArchiveError::Corrupt("delta frame declares too many escapes"));
    }
    // Exact section-length equation: counts + codes + escapes, nothing else.
    let expect = 8usize
        .checked_add(code_len)
        .and_then(|v| v.checked_add(n_escapes * 4))
        .ok_or(ArchiveError::Corrupt("delta frame section lengths overflow"))?;
    if expect != body.len() {
        return Err(ArchiveError::Corrupt("delta frame section lengths disagree"));
    }
    let codes = &body[8..8 + code_len];
    let esc_bytes = &body[8 + code_len..];
    let mut pos = 0usize;
    let mut esc = 0usize;
    for p in recon.iter_mut() {
        let tok = read_varint(codes, &mut pos).map_err(ArchiveError::Codec)?;
        if tok == 0 {
            if esc >= n_escapes {
                return Err(ArchiveError::Corrupt("delta frame escape overrun"));
            }
            let b = &esc_bytes[esc * 4..esc * 4 + 4];
            *p = f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            esc += 1;
        } else {
            let q = unzigzag(tok - 1);
            if q.abs() > QMAX {
                return Err(ArchiveError::Corrupt("delta frame code out of range"));
            }
            *p = (*p as f64 + q as f64 * twoe) as f32;
        }
    }
    // Canonical consumption: every code byte and every escape spoken for.
    if pos != codes.len() || esc != n_escapes {
        return Err(ArchiveError::Corrupt("delta frame trailing sections"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, t: f32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = i as f32 / n as f32;
                240.0 + 30.0 * (6.3 * x + 0.01 * t).sin() + 0.3 * t
            })
            .collect()
    }

    #[test]
    fn bounded_roundtrip_meets_bound() {
        let prev = wave(4096, 0.0);
        let cur = wave(4096, 1.0);
        let (blob, recon) = encode_bounded(&cur, &prev, Some(1e-3));
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(back, recon, "decoder must mirror encoder reconstruction");
        for (x, r) in cur.iter().zip(&back) {
            assert!((*x as f64 - *r as f64).abs() <= 1e-3);
        }
        assert!(blob.len() < cur.len(), "delta should beat one byte per element");
    }

    #[test]
    fn bounded_escapes_nonfinite() {
        let prev = wave(64, 0.0);
        let mut cur = wave(64, 1.0);
        cur[7] = f32::NAN;
        cur[11] = f32::INFINITY;
        cur[13] = 1e30; // enormous residual: token cap escape
        let (blob, recon) = encode_bounded(&cur, &prev, Some(1e-3));
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            recon.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(back[7].is_nan());
        assert_eq!(back[11], f32::INFINITY);
        assert_eq!(back[13], 1e30);
    }

    #[test]
    fn xor_roundtrip_is_exact() {
        let prev = wave(4096, 0.0);
        let mut cur = wave(4096, 1.0);
        cur[5] = f32::NAN;
        let blob = encode_xor(&cur, &prev);
        let back = decode(&blob, &prev, false).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cur.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exact_roundtrip() {
        let cur = wave(1024, 3.0);
        let blob = encode_exact(&cur);
        let prev = vec![0.0f32; 1024];
        let back = decode(&blob, &prev, true).unwrap();
        assert_eq!(back, cur);
    }

    #[test]
    fn mode_must_match_index_declaration() {
        let prev = wave(128, 0.0);
        let cur = wave(128, 1.0);
        let (quant, _) = encode_bounded(&cur, &prev, Some(1e-2));
        assert!(decode(&quant, &prev, false).is_err(), "xor var must reject quantized blob");
        let xor = encode_xor(&cur, &prev);
        assert!(decode(&xor, &prev, true).is_err(), "bounded var must reject xor blob");
    }

    #[test]
    fn decode_is_total_on_garbage() {
        let prev = wave(256, 0.0);
        for blob in [vec![], vec![0u8], vec![0u8; 9], vec![3u8; 40], vec![0xFFu8; 64]] {
            let _ = decode(&blob, &prev, true);
            let _ = decode(&blob, &prev, false);
        }
    }
}
