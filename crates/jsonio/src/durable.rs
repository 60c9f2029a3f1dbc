//! Durable file I/O: atomic write-rename plus a checksummed envelope.
//!
//! The checkpoint subsystem (and every `--*-out` export flag) must never
//! leave a half-written file behind: a crash mid-write would otherwise
//! masquerade as a corrupt snapshot on the next run. Two layers provide
//! that guarantee:
//!
//! * [`write_atomic`] — write to a hidden temp sibling, `fsync` the file,
//!   `rename` over the destination, then `fsync` the directory so the
//!   rename itself is durable. A reader can observe the old contents or
//!   the new contents, never a torn mixture; a crash leaves at worst a
//!   stale `.….tmp` sibling, which writers overwrite and readers ignore.
//! * the **sealed envelope** — [`seal`] prefixes a body with a one-line
//!   header `<tag> sha256=<hex> len=<bytes>`; [`open_sealed`] validates
//!   the framing and length and returns the declared checksum alongside
//!   the body. Truncation (even by one byte) and tag/version mismatches
//!   are detected *before* the body is parsed; bit flips inside the body
//!   are caught by the caller comparing the declared checksum against a
//!   recomputed digest (the digest function stays with the caller, so
//!   this crate keeps zero dependencies).
//!
//! Every failure is a typed [`SealError`] or `io::Error` — no parse path
//! in this module panics on hostile input.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a sealed envelope failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// The file has no header line at all (empty file, or no newline).
    MissingHeader,
    /// The header line is present but not of the `<tag> sha256=<hex>
    /// len=<n>` shape.
    MalformedHeader,
    /// The header names a different tag (wrong file kind or version).
    TagMismatch {
        /// Tag the reader expected.
        expected: String,
        /// Tag the header declared.
        found: String,
    },
    /// The body length does not match the header's `len` field — a torn
    /// or truncated write.
    Truncated {
        /// Byte count the header declared.
        declared: usize,
        /// Byte count actually present after the header.
        actual: usize,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::MissingHeader => write!(f, "missing envelope header"),
            SealError::MalformedHeader => write!(f, "malformed envelope header"),
            SealError::TagMismatch { expected, found } => {
                write!(
                    f,
                    "envelope tag mismatch: expected {expected:?}, found {found:?}"
                )
            }
            SealError::Truncated { declared, actual } => write!(
                f,
                "envelope body truncated: header declares {declared} bytes, {actual} present"
            ),
        }
    }
}

impl std::error::Error for SealError {}

/// A successfully opened envelope: the declared checksum and the body.
/// The caller verifies `checksum` against its own digest of `body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Hex checksum the header declared for the body.
    pub checksum: String,
    /// The body text, byte-for-byte as sealed.
    pub body: String,
}

/// The temp sibling `write_atomic` stages into: `.<name>.tmp` in the
/// same directory, so the final `rename` never crosses a filesystem.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    path.with_file_name(format!(".{name}.tmp"))
}

/// Writes `contents` to `path` atomically: temp sibling + `fsync` +
/// `rename` + directory `fsync`. After a crash at any point, `path`
/// holds either its previous contents or `contents` in full.
///
/// # Errors
///
/// Propagates any I/O error from the create/write/sync/rename sequence;
/// on error the destination is untouched (a temp sibling may remain).
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = temp_sibling(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort `fsync` of `path`'s parent directory, making the rename
/// itself durable. Directory handles cannot be opened for syncing on
/// every platform; failures are ignored — the data file is already
/// synced, only the rename's durability is best-effort off Unix.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

/// Builds a sealed document: `<tag> sha256=<hex> len=<bytes>\n<body>`.
///
/// `tag` doubles as a format-version marker (e.g.
/// `malgraph-checkpoint/1`); bump it to invalidate old readers. The
/// checksum is computed by the caller over exactly `body`.
pub fn seal(tag: &str, checksum: &str, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + tag.len() + checksum.len() + 32);
    out.push_str(tag);
    out.push_str(" sha256=");
    out.push_str(checksum);
    out.push_str(" len=");
    out.push_str(&body.len().to_string());
    out.push('\n');
    out.push_str(body);
    out
}

/// Atomically writes a sealed document to `path`.
///
/// # Errors
///
/// Propagates I/O errors from [`write_atomic`].
pub fn write_sealed(path: &Path, tag: &str, checksum: &str, body: &str) -> io::Result<()> {
    write_atomic(path, seal(tag, checksum, body).as_bytes())
}

/// Opens a sealed document: validates the header shape, the tag, and
/// the declared body length, and returns the checksum + body for the
/// caller to verify.
///
/// # Errors
///
/// Returns a [`SealError`] describing exactly what failed; never
/// panics, whatever the input.
pub fn open_sealed(text: &str, tag: &str) -> Result<Sealed, SealError> {
    let Some((header, body)) = text.split_once('\n') else {
        return Err(SealError::MissingHeader);
    };
    let mut fields = header.split(' ');
    let found_tag = fields.next().unwrap_or("");
    if found_tag != tag {
        // Distinguish "different kind/version of file" from "not an
        // envelope at all": a tag always contains a '/' version marker.
        if found_tag.contains('/') {
            return Err(SealError::TagMismatch {
                expected: tag.to_string(),
                found: found_tag.to_string(),
            });
        }
        return Err(SealError::MalformedHeader);
    }
    let checksum = match fields.next().and_then(|f| f.strip_prefix("sha256=")) {
        Some(hex) if !hex.is_empty() && hex.bytes().all(|b| b.is_ascii_hexdigit()) => hex,
        _ => return Err(SealError::MalformedHeader),
    };
    let declared = match fields.next().and_then(|f| f.strip_prefix("len=")) {
        Some(n) => match n.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Err(SealError::MalformedHeader),
        },
        None => return Err(SealError::MalformedHeader),
    };
    if fields.next().is_some() {
        return Err(SealError::MalformedHeader);
    }
    if body.len() != declared {
        return Err(SealError::Truncated {
            declared,
            actual: body.len(),
        });
    }
    Ok(Sealed {
        checksum: checksum.to_string(),
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips() {
        let sealed = seal("test-tag/1", "abc123", "hello\nworld");
        let opened = open_sealed(&sealed, "test-tag/1").unwrap();
        assert_eq!(opened.checksum, "abc123");
        assert_eq!(opened.body, "hello\nworld");
    }

    #[test]
    fn empty_body_round_trips() {
        let sealed = seal("t/1", "00", "");
        assert_eq!(open_sealed(&sealed, "t/1").unwrap().body, "");
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let sealed = seal("t/1", "abcd", "a body long enough to truncate");
        for cut in 0..sealed.len() {
            let result = open_sealed(&sealed[..cut], "t/1");
            assert!(result.is_err(), "cut at {cut} must not open");
        }
    }

    #[test]
    fn tag_and_header_mismatches_are_typed() {
        let sealed = seal("t/2", "abcd", "body");
        assert!(matches!(
            open_sealed(&sealed, "t/1"),
            Err(SealError::TagMismatch { .. })
        ));
        assert_eq!(open_sealed("", "t/1"), Err(SealError::MissingHeader));
        assert_eq!(open_sealed("junk", "t/1"), Err(SealError::MissingHeader));
        assert_eq!(
            open_sealed("junk\nbody", "t/1"),
            Err(SealError::MalformedHeader)
        );
        assert_eq!(
            open_sealed("t/1 sha256= len=4\nbody", "t/1"),
            Err(SealError::MalformedHeader),
            "empty checksum rejected"
        );
        assert_eq!(
            open_sealed("t/1 sha256=zz len=4\nbody", "t/1"),
            Err(SealError::MalformedHeader),
            "non-hex checksum rejected"
        );
        assert_eq!(
            open_sealed("t/1 sha256=ab len=nan\nbody", "t/1"),
            Err(SealError::MalformedHeader)
        );
        assert_eq!(
            open_sealed("t/1 sha256=ab len=4 extra\nbody", "t/1"),
            Err(SealError::MalformedHeader)
        );
    }

    #[test]
    fn length_mismatch_reports_both_counts() {
        let sealed = seal("t/1", "abcd", "12345678");
        let cut = &sealed[..sealed.len() - 3];
        assert_eq!(
            open_sealed(cut, "t/1"),
            Err(SealError::Truncated {
                declared: 8,
                actual: 5
            })
        );
    }

    #[test]
    fn write_atomic_replaces_and_cleans_its_temp() {
        let dir = std::env::temp_dir().join(format!("jsonio-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(
            !temp_sibling(&path).exists(),
            "temp sibling must be renamed away"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_sealed_then_read_back() {
        let dir = std::env::temp_dir().join(format!("jsonio-sealed-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        write_sealed(&path, "t/1", "cafe", "{\"k\": 1}").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let opened = open_sealed(&text, "t/1").unwrap();
        assert_eq!(opened.checksum, "cafe");
        assert_eq!(opened.body, "{\"k\": 1}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
