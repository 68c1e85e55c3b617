//! Plain-old-data storage that can be owned on the heap or borrowed from a
//! memory-mapped artifact file.
//!
//! The format-v3 artifact container stores numeric model payloads (ANN
//! weights, SVM support vectors, …) as aligned raw little-endian sections.
//! [`PodVec`] is the in-memory side of that contract: model structs hold
//! their weight arrays behind it, and the mmap load path hands out `PodVec`s
//! that *borrow* the mapped file instead of copying — so warm-loading a
//! large model is page-fault-bounded, not parse-bounded, and N versions of
//! a model mapped from disk share physical pages with the page cache.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::Arc;

/// Marker for fixed-width numeric types that may be reinterpreted from raw
/// little-endian bytes.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding, no invalid bit patterns,
/// and an alignment that divides [`Pod::WIDTH`]. All implementations live in
/// this module; the trait is sealed by convention (do not implement it
/// outside `binenc`).
pub unsafe trait Pod: Copy + PartialEq + fmt::Debug + 'static {
    /// Size of one element in bytes.
    const WIDTH: usize;
    /// One-byte type tag written ahead of every pod section, so a reader
    /// decoding with the wrong element type fails loudly instead of
    /// reinterpreting garbage.
    const TAG: u8;
    /// Byte-swaps to/from little-endian (identity on LE targets).
    fn to_le(self) -> Self;
    /// Inverse of [`Pod::to_le`] (same operation; both directions swap).
    fn from_le(v: Self) -> Self;
}

macro_rules! impl_pod_int {
    ($($t:ty => $tag:expr),* $(,)?) => {$(
        unsafe impl Pod for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const TAG: u8 = $tag;
            #[inline]
            fn to_le(self) -> Self {
                self.to_le()
            }
            #[inline]
            fn from_le(v: Self) -> Self {
                <$t>::from_le(v)
            }
        }
    )*};
}
impl_pod_int!(u16 => 1, u32 => 2, u64 => 3);

unsafe impl Pod for i8 {
    const WIDTH: usize = 1;
    const TAG: u8 = 6;
    #[inline]
    fn to_le(self) -> Self {
        self
    }
    #[inline]
    fn from_le(v: Self) -> Self {
        v
    }
}

unsafe impl Pod for f32 {
    const WIDTH: usize = 4;
    const TAG: u8 = 4;
    #[inline]
    fn to_le(self) -> Self {
        f32::from_bits(self.to_bits().to_le())
    }
    #[inline]
    fn from_le(v: Self) -> Self {
        f32::from_bits(u32::from_le(v.to_bits()))
    }
}

unsafe impl Pod for f64 {
    const WIDTH: usize = 8;
    const TAG: u8 = 5;
    #[inline]
    fn to_le(self) -> Self {
        f64::from_bits(self.to_bits().to_le())
    }
    #[inline]
    fn from_le(v: Self) -> Self {
        f64::from_bits(u64::from_le(v.to_bits()))
    }
}

/// Whether mapped bytes can be reinterpreted in place (the on-disk format is
/// little-endian; big-endian targets must copy-and-swap).
pub(crate) const NATIVE_IS_LE: bool = cfg!(target_endian = "little");

// ---- read-only memory mapping (no external crates; offline build) ----

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x2;
    pub const MADV_WILLNEED: c_int = 3;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
}

/// Paging advice a mapped artifact can hand the kernel (see
/// [`MmapFile::advise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapAdvice {
    /// Pages will be needed soon: prefetch asynchronously. Issued when a
    /// model version is promoted to serve traffic.
    WillNeed,
    /// Pages are not expected to be needed: the kernel may drop them (a
    /// read-only file-backed mapping simply refaults from disk if touched
    /// again). Issued when a version is demoted back to a lazy slot.
    DontNeed,
}

/// A whole file mapped read-only into the address space.
///
/// Shared via `Arc` between every [`PodVec`] borrowed out of it, so the
/// mapping lives exactly as long as the last slice that references it.
pub struct MmapFile {
    ptr: *const u8,
    len: usize,
}

// Safety: the mapping is read-only (PROT_READ, MAP_PRIVATE) and never
// mutated after construction; concurrent reads from any thread are fine.
unsafe impl Send for MmapFile {}
unsafe impl Sync for MmapFile {}

impl MmapFile {
    /// Maps `path` read-only. Fails on empty files (zero-length mappings are
    /// invalid) and on non-unix targets.
    pub fn open(path: &Path) -> std::io::Result<Arc<MmapFile>> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
            })?;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            // The fd may be closed once the mapping exists; the mapping
            // keeps the pages alive.
            Ok(Arc::new(MmapFile {
                ptr: ptr as *const u8,
                len,
            }))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "mmap loading is only supported on unix targets",
            ))
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // Safety: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true: open rejects empty files).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hands the kernel paging advice for the whole mapping (`madvise`).
    /// Purely a hint: failure (or a non-unix target) is reported as `false`
    /// and never affects correctness — the pages refault from the backing
    /// file on demand either way.
    pub fn advise(&self, advice: MapAdvice) -> bool {
        #[cfg(unix)]
        {
            let flag = match advice {
                MapAdvice::WillNeed => sys::MADV_WILLNEED,
                MapAdvice::DontNeed => sys::MADV_DONTNEED,
            };
            // Safety: ptr/len describe a live mapping owned by self; both
            // advice values are valid for read-only file-backed mappings.
            unsafe { sys::madvise(self.ptr as *mut std::os::raw::c_void, self.len, flag) == 0 }
        }
        #[cfg(not(unix))]
        {
            let _ = advice;
            false
        }
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        // Safety: ptr/len came from a successful mmap and are unmapped once.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

impl fmt::Debug for MmapFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MmapFile").field("len", &self.len).finish()
    }
}

enum Storage<T: Pod> {
    Owned(Vec<T>),
    /// `offset`/`len` are in *elements of T* relative to the mapping base;
    /// construction validated bounds and alignment.
    Mapped {
        map: Arc<MmapFile>,
        byte_offset: usize,
        len: usize,
    },
}

/// A numeric array that is either heap-owned or a zero-copy view into a
/// memory-mapped artifact.
///
/// Behaves like `Vec<T>` for every read path (`Deref<Target = [T]>`);
/// mutable access (`DerefMut`) transparently converts a mapped view into an
/// owned copy first, so training code is oblivious to the storage mode.
/// Cloning a mapped vector clones an `Arc`, not the data.
pub struct PodVec<T: Pod> {
    storage: Storage<T>,
}

impl<T: Pod> PodVec<T> {
    /// An owned, empty vector.
    pub fn new() -> Self {
        Vec::new().into()
    }

    /// Zero-copy view of `len` elements at `byte_offset` into the mapping.
    ///
    /// Returns `None` (caller falls back to copying) when the range is out
    /// of bounds, the offset is misaligned for `T`, or the target is
    /// big-endian (mapped bytes are little-endian and cannot be
    /// reinterpreted in place).
    pub fn from_mapped(map: Arc<MmapFile>, byte_offset: usize, len: usize) -> Option<Self> {
        let byte_len = len.checked_mul(T::WIDTH)?;
        let end = byte_offset.checked_add(byte_len)?;
        if !NATIVE_IS_LE || end > map.len() {
            return None;
        }
        let addr = map.bytes().as_ptr() as usize + byte_offset;
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(PodVec {
            storage: Storage::Mapped {
                map,
                byte_offset,
                len,
            },
        })
    }

    /// Read-only view of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.storage {
            Storage::Owned(v) => v,
            Storage::Mapped {
                map,
                byte_offset,
                len,
            } => {
                // Safety: bounds and alignment were validated in
                // `from_mapped`; the mapping is immutable and kept alive by
                // the Arc; T is Pod so any bit pattern is valid.
                unsafe {
                    std::slice::from_raw_parts(
                        map.bytes().as_ptr().add(*byte_offset) as *const T,
                        *len,
                    )
                }
            }
        }
    }

    /// Whether this vector borrows a mapped file (true only on the v3 mmap
    /// load path).
    pub fn is_mapped(&self) -> bool {
        matches!(self.storage, Storage::Mapped { .. })
    }

    /// Mutable access, converting a mapped view into an owned copy first.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Storage::Mapped { .. } = self.storage {
            self.storage = Storage::Owned(self.as_slice().to_vec());
        }
        match &mut self.storage {
            Storage::Owned(v) => v,
            Storage::Mapped { .. } => unreachable!("just converted to owned"),
        }
    }
}

impl<T: Pod> From<Vec<T>> for PodVec<T> {
    fn from(v: Vec<T>) -> Self {
        PodVec {
            storage: Storage::Owned(v),
        }
    }
}

impl<T: Pod> FromIterator<T> for PodVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<'a, T: Pod> IntoIterator for &'a PodVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Pod> Deref for PodVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> DerefMut for PodVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.to_mut()
    }
}

impl<T: Pod> Clone for PodVec<T> {
    fn clone(&self) -> Self {
        match &self.storage {
            Storage::Owned(v) => v.clone().into(),
            Storage::Mapped {
                map,
                byte_offset,
                len,
            } => PodVec {
                storage: Storage::Mapped {
                    map: Arc::clone(map),
                    byte_offset: *byte_offset,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod> Default for PodVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> PartialEq for PodVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> fmt::Debug for PodVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_roundtrip_and_mutation() {
        let mut v: PodVec<f32> = vec![1.0f32, 2.0, 3.0].into();
        assert_eq!(v.len(), 3);
        assert!(!v.is_mapped());
        v[1] = 9.0;
        assert_eq!(v.as_slice(), &[1.0, 9.0, 3.0]);
        let w = v.clone();
        assert_eq!(w, v);
    }

    #[test]
    fn mapped_view_borrows_and_detaches_on_write() {
        let dir = std::env::temp_dir().join(format!("hamlet-pod-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.bin");
        let vals: Vec<u32> = (0..64).collect();
        let mut f = std::fs::File::create(&path).unwrap();
        for v in &vals {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        f.flush().unwrap();
        drop(f);

        let map = MmapFile::open(&path).unwrap();
        let mut pv = PodVec::<u32>::from_mapped(Arc::clone(&map), 0, 64).unwrap();
        assert!(pv.is_mapped());
        assert_eq!(pv.as_slice(), &vals[..]);
        // Cloning a mapped vec is an Arc clone, still mapped.
        let clone = pv.clone();
        assert!(clone.is_mapped());
        // Writing detaches into an owned copy without touching the clone.
        pv[0] = 999;
        assert!(!pv.is_mapped());
        assert_eq!(pv[0], 999);
        assert_eq!(clone[0], 0);

        // Out-of-bounds and misaligned views are rejected.
        assert!(PodVec::<u32>::from_mapped(Arc::clone(&map), 0, 65).is_none());
        assert!(PodVec::<u32>::from_mapped(Arc::clone(&map), 2, 4).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn madvise_hints_never_corrupt_the_mapping() {
        let dir = std::env::temp_dir().join(format!("hamlet-pod-adv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("advised.bin");
        let vals: Vec<u32> = (0..1024).collect();
        let mut f = std::fs::File::create(&path).unwrap();
        for v in &vals {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        drop(f);
        let map = MmapFile::open(&path).unwrap();
        let pv = PodVec::<u32>::from_mapped(Arc::clone(&map), 0, 1024).unwrap();
        assert!(map.advise(MapAdvice::WillNeed), "madvise WILLNEED");
        assert_eq!(pv.as_slice(), &vals[..]);
        // DONTNEED may drop the pages; reads refault from the file and see
        // the same bytes.
        assert!(map.advise(MapAdvice::DontNeed), "madvise DONTNEED");
        assert_eq!(pv.as_slice(), &vals[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_rejects_empty_and_missing_files() {
        let dir = std::env::temp_dir().join(format!("hamlet-pod-e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(MmapFile::open(&empty).is_err());
        assert!(MmapFile::open(&dir.join("missing.bin")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
