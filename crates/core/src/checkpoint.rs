//! Crash-safe checkpoint plumbing.
//!
//! A long scan campaign survives being killed only if its checkpoint
//! file survives too. Three failure modes matter in practice and each
//! has a counter-measure here:
//!
//! * **Torn writes** — the process dies mid-`write(2)`. Checkpoints are
//!   written to a `<path>.tmp` sibling, **fsynced**, and renamed into
//!   place ([`write_atomic`]): the rename is atomic on POSIX
//!   filesystems and the fsync orders the data before it, so the
//!   destination either holds the old document or the complete new one,
//!   never a prefix — even across a power loss right after the rename.
//! * **Corruption at rest** — bit rot, filesystem bugs, a stray editor.
//!   The v2 checkpoint format ends with a CRC-32 trailer line covering
//!   every preceding byte ([`crc32`], [`seal`], [`verify_sealed`]); any
//!   flipped or truncated byte fails verification and the loader
//!   refuses the file instead of resuming from silently wrong state.
//! * **A corrupt primary with a good history** — every successful save
//!   first promotes the previous (verified) checkpoint to `<path>.bak`
//!   ([`bak_path`]), so [`crate::scanner::Scanner::recover`] can fall
//!   back to the last good generation.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table loads fold eight input
/// bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) of `bytes` — the
/// same polynomial as zip/gzip/PNG, so sealed checkpoints can be
/// cross-checked with standard tools. Table-driven, eight bytes per
/// step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The trailer prefix that marks the integrity line.
pub const CRC_PREFIX: &str = "# crc32: ";

/// Appends the CRC-32 trailer line to a checkpoint document. The CRC
/// covers every byte before the trailer, including the final newline of
/// the body.
pub fn seal(mut body: String) -> String {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("{CRC_PREFIX}{crc:08x}\n"));
    body
}

/// Splits a sealed document into its body and verifies the trailer.
/// Returns the body on success; an error describing the corruption
/// (missing trailer, malformed hex, mismatched CRC) otherwise.
pub fn verify_sealed(text: &str) -> Result<&str, String> {
    let trimmed = text.trim_end_matches('\n');
    let trailer_start = trimmed
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or("checkpoint has no CRC trailer (truncated?)")?;
    let trailer = &trimmed[trailer_start..];
    let hex = trailer
        .strip_prefix(CRC_PREFIX)
        .ok_or_else(|| format!("last line is not a CRC trailer: {trailer:?}"))?;
    let expected = u32::from_str_radix(hex.trim(), 16)
        .map_err(|e| format!("malformed CRC trailer {hex:?}: {e}"))?;
    let body = &text[..trailer_start];
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checkpoint CRC mismatch: trailer says {expected:08x}, content hashes to {actual:08x} \
             (corrupt or truncated file)"
        ));
    }
    Ok(body)
}

/// Writes `contents` to `path` atomically and durably: the bytes go to
/// the [`tmp_path`] sibling, which is **fsynced before** the rename —
/// POSIX rename atomicity only orders the directory entry, not the file
/// data, so without the fsync a power loss right after the rename could
/// leave the new name pointing at zero-length or partially-written
/// data. After the rename the parent directory is fsynced too (best
/// effort — not every filesystem supports directory handles) so the
/// rename itself survives the crash.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp-file sibling used for atomic writes.
pub fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, "tmp")
}

/// The last-good-generation backup sibling.
pub fn bak_path(path: &Path) -> PathBuf {
    sibling(path, "bak")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The bit-at-a-time definition the table-driven [`crc32`] must
    /// reproduce exactly.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Table and reference agree on random bytes from misaligned
        /// starts, at lengths spread log-uniformly over 0–64 KiB so the
        /// short tails the eight-byte loop leaves are hit too.
        #[test]
        fn table_crc32_matches_the_bitwise_reference(
            seed in any::<u64>(),
            len in 0usize..=65_536,
            shift in 0u32..17,
            skew in 0usize..8,
        ) {
            let len = len >> shift;
            let mut x = seed | 1;
            let bytes: Vec<u8> = (0..len + skew)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let slice = &bytes[skew..];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let body = "# ting scan checkpoint v2\nm\t1\t2\t10\t0\n";
        let sealed = seal(body.to_string());
        assert_eq!(verify_sealed(&sealed).unwrap(), body);
    }

    #[test]
    fn any_flipped_body_byte_fails_verification() {
        let body = "# ting scan checkpoint v2\nm\t1\t2\t10\t0\n";
        let sealed = seal(body.to_string());
        // Every byte of the body is covered by the CRC; a flip anywhere
        // in it must be caught. (Flips inside the trailer itself either
        // fail hex parsing / mismatch the CRC, or — e.g. a hex-case
        // flip — leave the verified body byte-identical, which is
        // harmless by construction.)
        for i in 0..body.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(corrupt) = String::from_utf8(bytes) {
                assert!(
                    verify_sealed(&corrupt).is_err(),
                    "body flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_fails_verification() {
        let sealed = seal("# ting scan checkpoint v2\nm\t1\t2\t10\t0\n".to_string());
        // Any truncation that loses more than the final newline must be
        // rejected (losing only the trailing '\n' leaves the document
        // complete: body and trailer both intact).
        for cut in 0..sealed.len() - 1 {
            assert!(
                verify_sealed(&sealed[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn sibling_paths_append_suffixes() {
        assert_eq!(
            tmp_path(Path::new("/a/b/scan.ckpt")),
            Path::new("/a/b/scan.ckpt.tmp")
        );
        assert_eq!(
            bak_path(Path::new("/a/b/scan.ckpt")),
            Path::new("/a/b/scan.ckpt.bak")
        );
    }
}
