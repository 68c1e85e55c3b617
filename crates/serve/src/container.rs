//! The format-v3 sectioned binary container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HMLA"
//! 4       4     u32    container version (3 for this build)
//! 8       4     u32    section count
//! 12      4     zero padding
//! 16      24×N  section table: per section
//!                 [u8; 8]  tag (ASCII, zero-padded)
//!                 u64      absolute byte offset of the section
//!                 u64      section length in bytes
//! ...           section payloads, each starting on an 8-byte boundary
//! ```
//!
//! Section *offsets are 8-aligned by construction* — that is what lets the
//! payload streams inside (see `hamlet_ml::binenc`) guarantee absolute
//! alignment for their raw pod arrays, and therefore zero-copy borrows
//! from an mmap. The reader validates magic, version, table bounds and
//! per-section bounds before handing out windows, so a truncated or
//! corrupted file is a clean error, never a panic.
//!
//! ## Checksums
//!
//! The builder appends a `CRCS` section — one `(tag, crc32)` record per
//! payload section — so *silent* disk corruption (a flipped bit inside a
//! weight array that still parses) is caught at load time instead of
//! surfacing as wrong predictions. The section is self-describing and
//! optional: files written before checksums existed simply have no `CRCS`
//! entry and load as before ([`verify_checksums`] reports `false`), and
//! readers that predate it ignore the unknown tag. The CRC is the standard
//! reflected CRC-32 (IEEE 802.3), table-driven.

use hamlet_ml::binenc::{BinReader, BytesSource};

use crate::error::{Result, ServeError};

/// Container magic bytes ("HaMLet Artifact").
pub const MAGIC: [u8; 4] = *b"HMLA";

/// Container layout version written by this build.
pub const CONTAINER_VERSION: u32 = 3;

/// What loads and warm-load report for a JSON artifact of the retired
/// formats v1/v2.
pub(crate) const LEGACY_JSON_HINT: &str =
    "legacy JSON artifact (formats v1/v2 are no longer readable; retrain the model)";

/// Fixed header size before the section table.
const HEADER_LEN: usize = 16;

/// Bytes per section-table entry.
const ENTRY_LEN: usize = 24;

/// Section alignment (matches `hamlet_ml::binenc::POD_ALIGN`).
const SECTION_ALIGN: usize = 8;

/// Tag of the JSON metadata section (name, version, schema fingerprint,
/// contract topology with by-reference dictionaries).
pub const SEC_META: [u8; 8] = *b"META\0\0\0\0";

/// Tag of the deduplicated dictionary (string table) section.
pub const SEC_DICT: [u8; 8] = *b"DICT\0\0\0\0";

/// Tag of the binary model payload section.
pub const SEC_MODL: [u8; 8] = *b"MODL\0\0\0\0";

/// Tag of the quantization descriptor section (small JSON: tensor storage
/// encoding plus per-tensor element counts, byte sizes and dequantization
/// scales). Present only in artifacts whose model payload is quantized;
/// readers that predate it ignore the unknown tag.
pub const SEC_QNTS: [u8; 8] = *b"QNTS\0\0\0\0";

/// Tag of the cascade descriptor section (small JSON: the tier table —
/// per-tier family, encoding, weight bytes, threshold and calibrator
/// params). Present only in artifacts whose model payload is a tiered
/// cascade, so `artifact inspect` can report the tier structure without
/// decoding the model; readers that predate it ignore the unknown tag.
pub const SEC_CASC: [u8; 8] = *b"CASC\0\0\0\0";

/// Tag of the per-section checksum table (one 16-byte record per payload
/// section: 8-byte tag, 4-byte CRC-32, 4 bytes zero padding).
pub const SEC_CRCS: [u8; 8] = *b"CRCS\0\0\0\0";

/// Bytes per `CRCS` record.
const CRC_ENTRY_LEN: usize = 16;

/// Reflected CRC-32 (IEEE) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Standard CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One parsed section-table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section tag (ASCII, zero-padded).
    pub tag: [u8; 8],
    /// Absolute byte offset.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl SectionEntry {
    /// Tag as printable ASCII (for `artifact inspect`).
    pub fn tag_str(&self) -> String {
        self.tag
            .iter()
            .take_while(|&&b| b != 0)
            .map(|&b| char::from(b))
            .collect()
    }
}

fn corrupt(what: impl std::fmt::Display) -> ServeError {
    ServeError::Json(format!("corrupt v3 artifact: {what}"))
}

/// Whether a byte prefix looks like a v3 container (magic match only; the
/// version gate happens in [`parse_sections`]).
pub fn sniff_magic(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// Assembles a container from `(tag, payload)` pairs, padding every section
/// to start on an 8-byte boundary.
pub fn build(sections: &[([u8; 8], &[u8])]) -> Vec<u8> {
    build_versioned(CONTAINER_VERSION, sections)
}

/// [`build`] with an explicit container version (the artifact layer writes
/// its `format_version` here, so a struct carrying a future version
/// round-trips into a file this build then refuses to read). A `CRCS`
/// checksum section covering every payload section is appended
/// automatically.
pub fn build_versioned(version: u32, sections: &[([u8; 8], &[u8])]) -> Vec<u8> {
    let mut crcs = Vec::with_capacity(sections.len() * CRC_ENTRY_LEN);
    for (tag, payload) in sections {
        crcs.extend_from_slice(tag);
        crcs.extend_from_slice(&crc32(payload).to_le_bytes());
        crcs.extend_from_slice(&[0u8; 4]);
    }
    let mut all: Vec<([u8; 8], &[u8])> = sections.to_vec();
    all.push((SEC_CRCS, &crcs));
    build_raw(version, &all)
}

/// Lays out a container exactly as given (no implicit checksum section) —
/// the shared back end of [`build_versioned`], and what tests use to craft
/// legacy checksum-less files.
pub(crate) fn build_raw(version: u32, sections: &[([u8; 8], &[u8])]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut out = Vec::with_capacity(
        table_end
            + sections
                .iter()
                .map(|(_, p)| p.len() + SECTION_ALIGN)
                .sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    // Reserve the table; fill offsets as payloads are placed.
    out.resize(table_end, 0);
    for (i, (tag, payload)) in sections.iter().enumerate() {
        while out.len() % SECTION_ALIGN != 0 {
            out.push(0);
        }
        let offset = out.len();
        out.extend_from_slice(payload);
        let entry = HEADER_LEN + i * ENTRY_LEN;
        out[entry..entry + 8].copy_from_slice(tag);
        out[entry + 8..entry + 16].copy_from_slice(&(offset as u64).to_le_bytes());
        out[entry + 16..entry + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    out
}

/// Validates the 16-byte fixed header (magic, version gate) and returns
/// the declared section count plus the table's end offset. Shared by the
/// whole-buffer and file-seeking readers so there is exactly one copy of
/// the header grammar.
fn parse_header(header: &[u8]) -> Result<(usize, usize)> {
    if !sniff_magic(header) {
        // The retired JSON artifacts (formats v1/v2) start with `{`: name
        // them, so a legacy file is not mistaken for a damaged one.
        if header.first() == Some(&b'{') {
            return Err(ServeError::Json(LEGACY_JSON_HINT.into()));
        }
        return Err(corrupt("bad magic"));
    }
    if header.len() < HEADER_LEN {
        return Err(corrupt("truncated header"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != CONTAINER_VERSION {
        return Err(ServeError::Format {
            found: version,
            supported: CONTAINER_VERSION,
        });
    }
    let count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    let table_end = HEADER_LEN
        .checked_add(
            count
                .checked_mul(ENTRY_LEN)
                .ok_or_else(|| corrupt("section count"))?,
        )
        .ok_or_else(|| corrupt("section count"))?;
    Ok((count, table_end))
}

/// Decodes and fully validates one 24-byte table entry. `table` holds the
/// raw table bytes (starting right after the fixed header); bounds and
/// alignment are checked against `table_end`/`file_len` so the seeking
/// reader rejects exactly what the whole-buffer reader rejects.
fn parse_entry(table: &[u8], i: usize, table_end: usize, file_len: usize) -> Result<SectionEntry> {
    let at = i * ENTRY_LEN;
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&table[at..at + 8]);
    let offset = u64::from_le_bytes(table[at + 8..at + 16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(table[at + 16..at + 24].try_into().expect("8 bytes"));
    let (offset, len) = (
        usize::try_from(offset).map_err(|_| corrupt("section offset overflow"))?,
        usize::try_from(len).map_err(|_| corrupt("section length overflow"))?,
    );
    let entry = SectionEntry { tag, offset, len };
    let end = offset
        .checked_add(len)
        .ok_or_else(|| corrupt("section bounds overflow"))?;
    if offset < table_end || end > file_len {
        return Err(corrupt(format!(
            "section `{}` [{offset}, {end}) out of file bounds (file is {file_len} bytes)",
            entry.tag_str()
        )));
    }
    if !offset.is_multiple_of(SECTION_ALIGN) {
        return Err(corrupt(format!(
            "section `{}` offset {offset} not {SECTION_ALIGN}-aligned",
            entry.tag_str()
        )));
    }
    Ok(entry)
}

/// Parses and validates the header plus section table of `bytes`.
///
/// A wrong container version is a [`ServeError::Format`] (so callers can
/// surface "this build reads 3, found N"); everything else that disagrees
/// with the layout is a corruption error.
pub fn parse_sections(bytes: &[u8]) -> Result<Vec<SectionEntry>> {
    let (count, table_end) = parse_header(bytes)?;
    if table_end > bytes.len() {
        return Err(corrupt(format!(
            "section table of {count} entries overruns file"
        )));
    }
    (0..count)
        .map(|i| parse_entry(&bytes[HEADER_LEN..table_end], i, table_end, bytes.len()))
        .collect()
}

/// Verifies every section covered by the `CRCS` table (if present) against
/// its stored CRC-32, except sections whose tag is listed in `skip`.
/// Returns `Ok(true)` when checksums were present and all checked sections
/// matched, `Ok(false)` for a legacy container without a `CRCS` section,
/// and a corruption error naming the damaged section otherwise.
///
/// `skip` exists for the mmap load path: checksumming a section reads
/// every one of its bytes, and faulting in a multi-hundred-MB weight
/// payload at load time would undo exactly the page-fault-bounded loading
/// mmap exists for — so mmap loads verify the small structural sections
/// and leave `MODL` to be faulted lazily (heap loads, the default, verify
/// everything).
pub fn verify_checksums(bytes: &[u8], entries: &[SectionEntry], skip: &[[u8; 8]]) -> Result<bool> {
    let Some(table) = entries.iter().find(|e| e.tag == SEC_CRCS) else {
        return Ok(false);
    };
    let records = &bytes[table.offset..table.offset + table.len];
    if !records.len().is_multiple_of(CRC_ENTRY_LEN) {
        return Err(corrupt(format!(
            "CRCS section length {} is not a multiple of {CRC_ENTRY_LEN}",
            records.len()
        )));
    }
    for record in records.chunks_exact(CRC_ENTRY_LEN) {
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&record[..8]);
        if skip.contains(&tag) {
            continue;
        }
        let stored = u32::from_le_bytes(record[8..12].try_into().expect("4 bytes"));
        let entry = find(entries, tag)?;
        let computed = crc32(&bytes[entry.offset..entry.offset + entry.len]);
        if computed != stored {
            return Err(corrupt(format!(
                "section `{}` checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
                entry.tag_str()
            )));
        }
    }
    Ok(true)
}

/// Finds a section by tag.
pub fn find(entries: &[SectionEntry], tag: [u8; 8]) -> Result<SectionEntry> {
    entries
        .iter()
        .find(|e| e.tag == tag)
        .copied()
        .ok_or_else(|| {
            corrupt(format!(
                "missing `{}` section",
                SectionEntry {
                    tag,
                    offset: 0,
                    len: 0
                }
                .tag_str()
            ))
        })
}

/// A [`BinReader`] over one section of a shared source.
pub fn section_reader(src: &BytesSource, entry: SectionEntry) -> Result<BinReader> {
    BinReader::over(src.clone(), entry.offset, entry.len)
        .map_err(|e| corrupt(format!("section `{}`: {e}", entry.tag_str())))
}

/// Reads just the header, section table, and one section's bytes from a
/// file — without reading the rest. This is what makes header-only artifact
/// inspection cheap on v3: a multi-megabyte ANN artifact yields its `META`
/// section in two small reads.
pub fn read_one_section(path: &std::path::Path, tag: [u8; 8]) -> Result<Vec<u8>> {
    use std::io::{Read, Seek, SeekFrom};
    let ctx = |e| ServeError::io(format!("reading {}", path.display()), e);
    let mut file = std::fs::File::open(path).map_err(ctx)?;
    let file_len = usize::try_from(file.metadata().map_err(ctx)?.len())
        .map_err(|_| corrupt("file too large"))?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).map_err(ctx)?;
    let (count, table_end) = parse_header(&header)?;
    if table_end > file_len {
        return Err(corrupt(format!(
            "section table of {count} entries overruns file"
        )));
    }
    let mut table = vec![0u8; table_end - HEADER_LEN];
    file.read_exact(&mut table).map_err(ctx)?;
    // Same entry decoding + validation as `parse_sections`, entry by entry
    // against the real file length.
    for i in 0..count {
        let entry = parse_entry(&table, i, table_end, file_len)?;
        if entry.tag != tag {
            continue;
        }
        file.seek(SeekFrom::Start(entry.offset as u64))
            .map_err(ctx)?;
        let mut out = vec![0u8; entry.len];
        file.read_exact(&mut out).map_err(ctx)?;
        return Ok(out);
    }
    Err(corrupt(format!(
        "missing `{}` section",
        SectionEntry {
            tag,
            offset: 0,
            len: 0
        }
        .tag_str()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip_with_alignment() {
        let bytes = build(&[
            (SEC_META, b"{\"k\":1}".as_slice()),
            (SEC_DICT, b"abc".as_slice()),
            (SEC_MODL, &[1u8, 2, 3, 4, 5]),
        ]);
        let entries = parse_sections(&bytes).unwrap();
        assert_eq!(entries.len(), 4, "three payload sections + CRCS");
        for e in &entries {
            assert_eq!(
                e.offset % SECTION_ALIGN,
                0,
                "section {} misaligned",
                e.tag_str()
            );
        }
        let meta = find(&entries, SEC_META).unwrap();
        assert_eq!(&bytes[meta.offset..meta.offset + meta.len], b"{\"k\":1}");
        let modl = find(&entries, SEC_MODL).unwrap();
        assert_eq!(
            &bytes[modl.offset..modl.offset + modl.len],
            &[1, 2, 3, 4, 5]
        );
        assert!(find(&entries, *b"NOPE\0\0\0\0").is_err());
    }

    #[test]
    fn corrupt_headers_fail_cleanly() {
        let good = build(&[(SEC_META, b"x".as_slice())]);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(parse_sections(&bad).is_err());
        // Future container version → Format error carrying the version.
        let mut future = good.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        match parse_sections(&future) {
            Err(ServeError::Format { found, supported }) => {
                assert_eq!(found, 9);
                assert_eq!(supported, CONTAINER_VERSION);
            }
            other => panic!("expected Format error, got {other:?}"),
        }
        // Truncated: section table claims more entries than the file holds.
        let mut trunc = good.clone();
        trunc.truncate(HEADER_LEN + 4);
        assert!(parse_sections(&trunc).is_err());
        // Section length pointing past EOF.
        let mut overrun = good.clone();
        let at = HEADER_LEN + 16;
        overrun[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_sections(&overrun).is_err());
        // Empty and sub-header files.
        assert!(parse_sections(&[]).is_err());
        assert!(parse_sections(&good[..7]).is_err());
    }

    #[test]
    fn checksums_catch_single_bit_payload_corruption() {
        let bytes = build(&[
            (SEC_META, b"{\"k\":1}".as_slice()),
            (SEC_MODL, &[9u8; 4096]),
        ]);
        let entries = parse_sections(&bytes).unwrap();
        assert!(
            verify_checksums(&bytes, &entries, &[]).unwrap(),
            "all crcs match"
        );

        // Flip one bit inside the MODL payload: parsing still succeeds
        // (the table is intact) but verification names the section.
        let modl = find(&entries, SEC_MODL).unwrap();
        let mut flipped = bytes.clone();
        flipped[modl.offset + modl.len / 2] ^= 0x01;
        let entries = parse_sections(&flipped).unwrap();
        let err = verify_checksums(&flipped, &entries, &[])
            .unwrap_err()
            .to_string();
        assert!(err.contains("MODL"), "{err}");
        assert!(err.contains("checksum"), "{err}");

        // Corrupting the CRCS table itself is also caught.
        let crcs = find(&entries, SEC_CRCS).unwrap();
        let mut bad_table = bytes.clone();
        bad_table[crcs.offset + 9] ^= 0xFF; // a stored crc byte
        let entries = parse_sections(&bad_table).unwrap();
        assert!(verify_checksums(&bad_table, &entries, &[]).is_err());
    }

    #[test]
    fn legacy_containers_without_crcs_still_verify_as_absent() {
        let legacy = build_raw(CONTAINER_VERSION, &[(SEC_META, b"old".as_slice())]);
        let entries = parse_sections(&legacy).unwrap();
        assert_eq!(entries.len(), 1, "no implicit CRCS in the raw layout");
        assert!(!verify_checksums(&legacy, &entries, &[]).unwrap());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn read_one_section_touches_only_headers() {
        let dir = std::env::temp_dir().join(format!("hamlet-cont-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.bin");
        let big = vec![7u8; 100_000];
        std::fs::write(
            &path,
            build(&[(SEC_MODL, &big[..]), (SEC_META, b"meta!".as_slice())]),
        )
        .unwrap();
        assert_eq!(read_one_section(&path, SEC_META).unwrap(), b"meta!");
        assert!(read_one_section(&path, SEC_DICT).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
