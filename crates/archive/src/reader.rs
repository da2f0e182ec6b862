//! Random-access archive reading.
//!
//! `open` reads the 16-byte footer and the index section — nothing else.
//! Every fetch then reads exactly the byte ranges of one keyframe chain.
//! The reader counts the bytes it requests from its source so tests (and
//! the byte-accounting acceptance gate) can pin the "never the whole
//! file" property: `bytes_read ≤ chain bytes + index bytes ≪ file size`.

use cc_codecs::chunked::decompress_chunked;
use cc_codecs::Variant;

use crate::index::{self, ArchiveIndex, FrameKind};
use crate::source::SliceSource;
use crate::{delta, ArchiveError, DeltaMode, FOOTER_LEN, FOOTER_MAGIC, MAGIC};

/// Archive reader over any [`SliceSource`].
pub struct ArchiveReader<S> {
    src: S,
    index: ArchiveIndex,
    bytes_read: u64,
    workers: usize,
}

impl<S: SliceSource> ArchiveReader<S> {
    /// Validate the footer, parse the index, and return a reader. Total
    /// over untrusted bytes: damaged input yields a typed error.
    pub fn open(mut src: S) -> Result<Self, ArchiveError> {
        let _s = cc_obs::span("archive.open");
        let file_len = src.len();
        let min = (MAGIC.len() + FOOTER_LEN) as u64;
        if file_len < min {
            return Err(ArchiveError::Corrupt("file shorter than magic + footer"));
        }
        let mut bytes_read = 0u64;
        let magic = src.read_at(0, MAGIC.len())?;
        bytes_read += MAGIC.len() as u64;
        if magic != MAGIC {
            return Err(ArchiveError::Corrupt("bad archive magic"));
        }
        let footer = src.read_at(file_len - FOOTER_LEN as u64, FOOTER_LEN)?;
        bytes_read += FOOTER_LEN as u64;
        if &footer[8..] != FOOTER_MAGIC {
            return Err(ArchiveError::Corrupt("bad footer magic"));
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().unwrap());
        // The index must sit between the magic and the footer.
        if index_offset < MAGIC.len() as u64 || index_offset > file_len - FOOTER_LEN as u64 {
            return Err(ArchiveError::Corrupt("index offset outside file"));
        }
        let index_len = (file_len - FOOTER_LEN as u64 - index_offset) as usize;
        let index_bytes = src.read_at(index_offset, index_len)?;
        bytes_read += index_len as u64;
        let index = index::decode(&index_bytes, index_offset, file_len)?;
        Ok(ArchiveReader { src, index, bytes_read, workers: 1 })
    }

    /// Set the worker count for chunked keyframe decode (output does not
    /// depend on it).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The validated index.
    pub fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    /// Bytes requested from the source so far (footer + index + every
    /// frame blob fetched).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reconstruct the full field of `var` at timestep `t` by walking its
    /// keyframe chain — the only frame blobs read.
    pub fn fetch_frame(&mut self, var: &str, t: usize) -> Result<Vec<f32>, ArchiveError> {
        let _s = cc_obs::span("archive.fetch_frame");
        let entry = self.index.var(var)?.clone();
        let chain = entry.chain(t)?;
        let codec = Variant::by_name(&entry.codec)
            .ok_or(ArchiveError::Corrupt("unknown keyframe codec"))?
            .codec();
        let allow_quantized = matches!(entry.delta, DeltaMode::Bounded(_));
        // One reconstruction buffer for the whole chain: each delta
        // replays in place over its parent.
        let mut recon: Option<Vec<f32>> = None;
        for i in chain {
            let f = entry.frames[i];
            let blob = self.read_frame(f.offset, f.len)?;
            match f.kind {
                FrameKind::Key => {
                    let key =
                        decompress_chunked(codec.as_ref(), &blob, entry.layout, self.workers)?;
                    recon = Some(key);
                }
                FrameKind::Delta => {
                    let prev = recon
                        .as_mut()
                        .ok_or(ArchiveError::Corrupt("chain starts with delta"))?;
                    delta::decode_into(&blob, prev, allow_quantized)?;
                }
            }
        }
        recon.ok_or(ArchiveError::Corrupt("empty keyframe chain"))
    }

    /// Fetch one horizontal level of `var` at timestep `t` — the random
    /// access primitive served over the wire.
    pub fn fetch_slice(&mut self, var: &str, t: usize, lev: usize) -> Result<Vec<f32>, ArchiveError> {
        let _s = cc_obs::span("archive.fetch_slice");
        let layout = self.index.var(var)?.layout;
        if lev >= layout.nlev {
            return Err(ArchiveError::BadRequest("level out of range"));
        }
        let frame = self.fetch_frame(var, t)?;
        Ok(frame[lev * layout.npts..(lev + 1) * layout.npts].to_vec())
    }

    /// Sequential full decode of one variable: every timestep, in order,
    /// reading each frame exactly once.
    pub fn decode_variable(&mut self, var: &str) -> Result<Vec<Vec<f32>>, ArchiveError> {
        let _s = cc_obs::span("archive.decode_variable");
        let entry = self.index.var(var)?.clone();
        let codec = Variant::by_name(&entry.codec)
            .ok_or(ArchiveError::Corrupt("unknown keyframe codec"))?
            .codec();
        let allow_quantized = matches!(entry.delta, DeltaMode::Bounded(_));
        let mut out: Vec<Vec<f32>> = Vec::with_capacity(entry.frames.len());
        for f in &entry.frames {
            let blob = self.read_frame(f.offset, f.len)?;
            let recon = match f.kind {
                FrameKind::Key => {
                    decompress_chunked(codec.as_ref(), &blob, entry.layout, self.workers)?
                }
                FrameKind::Delta => {
                    // `parent` < own index is guaranteed by index validation,
                    // so the parent reconstruction is already in `out`.
                    let mut recon = out[f.parent as usize].clone();
                    delta::decode_into(&blob, &mut recon, allow_quantized)?;
                    recon
                }
            };
            out.push(recon);
        }
        Ok(out)
    }

    fn read_frame(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, ArchiveError> {
        let len = usize::try_from(len).map_err(|_| ArchiveError::Corrupt("frame too large"))?;
        let blob = self.src.read_at(offset, len)?;
        self.bytes_read += len as u64;
        Ok(blob)
    }
}
