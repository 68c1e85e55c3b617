//! Compact binary encoding for model payloads (artifact format v3).
//!
//! JSON inflates dense f32/f64 weight arrays several-fold (a serialized f32
//! widens to its shortest-roundtrip f64 text, ~18 bytes against 4 on disk)
//! and makes warm-load parse-bounded. This module is the replacement: a
//! little-endian byte stream with *aligned raw pod sections* for numeric
//! payloads, written by [`BinWriter`] and read back by [`BinReader`].
//!
//! The reader is storage-polymorphic ([`BytesSource`]): over heap bytes it
//! copies arrays out; over a memory-mapped file it hands back
//! [`PodVec`]s that **borrow the mapping zero-copy** — model weights are
//! then paged in lazily by the kernel on first prediction, and the load
//! step itself touches only headers.
//!
//! ## Stream grammar
//!
//! Scalars are unaligned little-endian (`u8`/`u16`/`u32`/`u64`/`f32`/
//! `f64`); strings are `u32` length + UTF-8 bytes; small integer lists are
//! `u32` length + packed `u32`s (always copied). Pod sections are framed as
//! `tag: u8, len: u64, pad to 8-byte alignment, len × T raw bytes` — the
//! pad is recomputed by the reader from its own position, and the
//! *absolute* file offset stays 8-aligned because every v3 container
//! section starts 8-aligned.

pub mod codec;
pub mod pod;
pub mod quantize;

pub use pod::{MapAdvice, MmapFile, Pod, PodVec};

use std::sync::Arc;

use crate::error::{MlError, Result};

/// Alignment guaranteed for pod section data, both relative to the stream
/// start and (because containers place sections on 8-byte boundaries)
/// absolute in the file.
pub const POD_ALIGN: usize = 8;

fn corrupt(what: impl std::fmt::Display) -> MlError {
    MlError::Invalid(format!("corrupt binary payload: {what}"))
}

/// Append-only little-endian stream writer.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f32`, little-endian.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64`, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a small `u32` list inline (`u32` count + packed values).
    /// Always copied on read; use [`BinWriter::put_pod_slice`] for arrays
    /// worth borrowing from the map.
    pub fn put_u32s_inline(&mut self, vals: &[u32]) {
        self.put_u32(vals.len() as u32);
        for &v in vals {
            self.put_u32(v);
        }
    }

    /// Pads with zero bytes until the stream length is a multiple of
    /// [`POD_ALIGN`].
    pub fn align(&mut self) {
        while !self.buf.len().is_multiple_of(POD_ALIGN) {
            self.buf.push(0);
        }
    }

    /// Writes an aligned raw pod section: type tag, element count, padding
    /// to [`POD_ALIGN`], then the elements as raw little-endian bytes.
    pub fn put_pod_slice<T: Pod>(&mut self, vals: &[T]) {
        self.put_u8(T::TAG);
        self.put_u64(vals.len() as u64);
        self.align();
        if pod::NATIVE_IS_LE {
            // Safety: T is Pod (no padding, any bit pattern valid), so its
            // memory representation on an LE target *is* the wire format.
            let bytes = unsafe {
                std::slice::from_raw_parts(vals.as_ptr() as *const u8, std::mem::size_of_val(vals))
            };
            self.buf.extend_from_slice(bytes);
        } else {
            for &v in vals {
                let le = v.to_le();
                // Safety: as above, one element at a time.
                let bytes =
                    unsafe { std::slice::from_raw_parts(&le as *const T as *const u8, T::WIDTH) };
                self.buf.extend_from_slice(bytes);
            }
        }
    }
}

/// Where a reader's bytes live: an owned heap buffer or a shared read-only
/// file mapping. Cloning shares the underlying storage.
#[derive(Debug, Clone)]
pub enum BytesSource {
    /// Heap-owned file contents (the parse-and-copy load path).
    Heap(Arc<Vec<u8>>),
    /// A mapped file (the zero-copy load path).
    Mapped(Arc<MmapFile>),
}

impl BytesSource {
    /// The full underlying byte range.
    pub fn bytes(&self) -> &[u8] {
        match self {
            BytesSource::Heap(v) => v,
            BytesSource::Mapped(m) => m.bytes(),
        }
    }
}

/// Little-endian stream reader over a window of a [`BytesSource`].
#[derive(Debug)]
pub struct BinReader {
    src: BytesSource,
    /// Absolute window bounds into `src`.
    start: usize,
    end: usize,
    /// Absolute cursor, `start <= pos <= end`.
    pos: usize,
}

impl BinReader {
    /// Reader over `len` bytes starting at absolute offset `start`.
    ///
    /// For pod sections to be borrowable zero-copy, `start` must be
    /// [`POD_ALIGN`]-aligned (v3 containers guarantee this); a misaligned
    /// window still reads correctly but copies.
    pub fn over(src: BytesSource, start: usize, len: usize) -> Result<BinReader> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= src.bytes().len())
            .ok_or_else(|| corrupt("section out of file bounds"))?;
        Ok(BinReader {
            src,
            start,
            end,
            pos: start,
        })
    }

    /// Reader over an entire heap buffer.
    pub fn over_heap(bytes: Vec<u8>) -> BinReader {
        let len = bytes.len();
        BinReader::over(BytesSource::Heap(Arc::new(bytes)), 0, len)
            .expect("whole-buffer window is always in bounds")
    }

    /// Bytes left in the window.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Errors unless the window was consumed exactly.
    pub fn expect_end(&self) -> Result<()> {
        if self.pos == self.end {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing byte(s)", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<usize> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "needed {n} byte(s), only {} left",
                self.remaining()
            )));
        }
        let at = self.pos;
        self.pos += n;
        Ok(at)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let at = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.src.bytes()[at..at + N]);
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a bool (rejecting anything but 0/1).
    pub fn read_bool(&mut self) -> Result<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` written by [`BinWriter::put_usize`].
    pub fn read_usize(&mut self) -> Result<usize> {
        usize::try_from(self.read_u64()?).map_err(|_| corrupt("usize overflow"))
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String> {
        let len = self.read_u32()? as usize;
        let at = self.take(len)?;
        std::str::from_utf8(&self.src.bytes()[at..at + len])
            .map(str::to_string)
            .map_err(|_| corrupt("non-UTF-8 string"))
    }

    /// Reads an inline `u32` list written by [`BinWriter::put_u32s_inline`].
    pub fn read_u32s_inline(&mut self) -> Result<Vec<u32>> {
        let len = self.read_u32()? as usize;
        if len > self.remaining() / 4 {
            return Err(corrupt(format!(
                "inline u32 list of {len} overruns section"
            )));
        }
        (0..len).map(|_| self.read_u32()).collect()
    }

    /// Skips to the next [`POD_ALIGN`] boundary (relative to the window
    /// start, mirroring [`BinWriter::align`]).
    fn align(&mut self) -> Result<()> {
        let rel = self.pos - self.start;
        let pad = (POD_ALIGN - rel % POD_ALIGN) % POD_ALIGN;
        self.take(pad)?;
        Ok(())
    }

    /// Reads a pod section written by [`BinWriter::put_pod_slice`].
    ///
    /// Over a mapped source on a little-endian target this **borrows** the
    /// mapping (no copy, no page touch until first use); over heap bytes it
    /// copies into an owned vector.
    pub fn read_pod_vec<T: Pod>(&mut self) -> Result<PodVec<T>> {
        let tag = self.read_u8()?;
        if tag != T::TAG {
            return Err(corrupt(format!(
                "pod section tag {tag} does not match element type tag {}",
                T::TAG
            )));
        }
        let len = usize::try_from(self.read_u64()?).map_err(|_| corrupt("pod length overflow"))?;
        self.align()?;
        let byte_len = len
            .checked_mul(T::WIDTH)
            .ok_or_else(|| corrupt("pod length overflow"))?;
        let at = self.take(byte_len)?;
        if let BytesSource::Mapped(map) = &self.src {
            if let Some(v) = PodVec::from_mapped(Arc::clone(map), at, len) {
                return Ok(v);
            }
            // Fall through (misaligned window or big-endian target): copy.
        }
        let mut out: Vec<T> = Vec::with_capacity(len);
        // Safety: the source range is `byte_len` bytes long (validated by
        // `take`), the destination has `len` capacity, and byte-wise copy
        // into a Pod type is valid for any bit pattern.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.src.bytes().as_ptr().add(at),
                out.as_mut_ptr() as *mut u8,
                byte_len,
            );
            out.set_len(len);
        }
        if !pod::NATIVE_IS_LE {
            for v in &mut out {
                *v = T::from_le(*v);
            }
        }
        Ok(out.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_string_roundtrip() {
        let mut w = BinWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65500);
        w.put_u32(123456);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-0.25);
        w.put_f64(std::f64::consts::PI);
        w.put_str("héllo");
        w.put_u32s_inline(&[3, 1, 4, 1, 5]);
        let mut r = BinReader::over_heap(w.finish());
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u16().unwrap(), 65500);
        assert_eq!(r.read_u32().unwrap(), 123456);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.read_f32().unwrap(), -0.25);
        assert_eq!(r.read_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.read_str().unwrap(), "héllo");
        assert_eq!(r.read_u32s_inline().unwrap(), vec![3, 1, 4, 1, 5]);
        r.expect_end().unwrap();
    }

    #[test]
    fn pod_sections_roundtrip_and_align() {
        let mut w = BinWriter::new();
        w.put_u8(1); // deliberately misalign
        let floats: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let doubles: Vec<f64> = (0..5).map(|i| -(i as f64)).collect();
        w.put_pod_slice(&floats);
        w.put_u8(9);
        w.put_pod_slice(&doubles);
        w.put_pod_slice::<u32>(&[]);
        let mut r = BinReader::over_heap(w.finish());
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_pod_vec::<f32>().unwrap().as_slice(), &floats[..]);
        assert_eq!(r.read_u8().unwrap(), 9);
        assert_eq!(r.read_pod_vec::<f64>().unwrap().as_slice(), &doubles[..]);
        assert!(r.read_pod_vec::<u32>().unwrap().is_empty());
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_tag_truncation_and_trailing_fail_cleanly() {
        let mut w = BinWriter::new();
        w.put_pod_slice::<f32>(&[1.0, 2.0]);
        let bytes = w.finish();
        // Wrong element type.
        let mut r = BinReader::over_heap(bytes.clone());
        assert!(r.read_pod_vec::<f64>().is_err());
        // Truncated payload.
        let mut r = BinReader::over_heap(bytes[..bytes.len() - 3].to_vec());
        assert!(r.read_pod_vec::<f32>().is_err());
        // Trailing garbage detected by expect_end.
        let mut extended = bytes.clone();
        extended.push(0xFF);
        let mut r = BinReader::over_heap(extended);
        r.read_pod_vec::<f32>().unwrap();
        assert!(r.expect_end().is_err());
        // Window larger than the file is rejected up front.
        assert!(BinReader::over(BytesSource::Heap(Arc::new(bytes)), 8, 4096).is_err());
    }

    #[test]
    fn mapped_reader_borrows_zero_copy() {
        let mut w = BinWriter::new();
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 1.5).collect();
        w.put_str("header");
        w.put_pod_slice(&vals);
        let dir = std::env::temp_dir().join(format!("hamlet-binenc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.bin");
        std::fs::write(&path, w.finish()).unwrap();

        let map = MmapFile::open(&path).unwrap();
        let len = map.len();
        let mut r = BinReader::over(BytesSource::Mapped(map), 0, len).unwrap();
        assert_eq!(r.read_str().unwrap(), "header");
        let v = r.read_pod_vec::<f64>().unwrap();
        assert_eq!(v.as_slice(), &vals[..]);
        assert!(v.is_mapped(), "mapped source must borrow, not copy");
        r.expect_end().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
