//! Write-ahead log: a durable journal of executed statements.
//!
//! The engine is in-memory, so "durability" is simulated: every statement a
//! case executes is appended to an in-memory pending buffer, and the buffer
//! is flushed to the WAL file at **commit boundaries** (whenever the session
//! is not inside an open transaction after the statement). A simulated crash
//! loses exactly the unsynced pending tail — the open-transaction suffix —
//! which is precisely what a real engine may lose.
//!
//! The journal is *verbatim*: statements are logged whether they succeeded
//! or failed, including `BEGIN`/`COMMIT`/`ROLLBACK` themselves. This is the
//! soundness-critical choice for the recovery oracle: failed statements can
//! leave partial catalog effects (multi-row `INSERT` errors mid-loop), and
//! session state set inside a rolled-back transaction survives the rollback,
//! so an Ok-only or committed-only log could not reproduce the live state
//! and would produce false divergences.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "LEGOWAL1"                      (8 bytes)
//! record := len:u32le crc:u32le sql:bytes   (len = sql byte length,
//!                                            crc  = CRC-32/IEEE of sql)
//! ```
//!
//! The format is pinned by golden fixtures under `tests/golden/wal/`; any
//! change requires regenerating them (and, for compatibility, a migration —
//! see the engine-snapshot v1→v2 precedent).

use crate::faults::Faults;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a LEGO WAL, version 1.
pub const WAL_MAGIC: [u8; 8] = *b"LEGOWAL1";

/// Bytes of `len` + `crc` preceding each record's payload.
pub const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload; longer lengths in a header are
/// treated as corruption by the reader.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the same
/// polynomial as zlib's `crc32`. Hand-rolled because the workspace vendors
/// its dependencies; bitwise is plenty fast for WAL-record sizes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encode one statement as a length-prefixed, checksummed WAL record.
pub fn encode_record(sql: &str) -> Vec<u8> {
    let bytes = sql.as_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Why a record failed to decode. The reader treats every variant the same
/// way — the log's valid prefix ends here — but tests distinguish them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Zero bytes remain: a clean end, not corruption.
    Clean,
    /// Fewer bytes remain than a header, or than the header's length claims.
    Truncated,
    /// The header's length field exceeds [`MAX_RECORD_LEN`].
    BadLength,
    /// The payload's CRC does not match the header.
    BadChecksum,
    /// The payload is not valid UTF-8.
    BadUtf8,
}

/// Decode the record at the start of `buf`. Returns the statement text and
/// the total bytes consumed (header + payload).
pub fn decode_record(buf: &[u8]) -> Result<(String, usize), DecodeError> {
    if buf.is_empty() {
        return Err(DecodeError::Clean);
    }
    if buf.len() < RECORD_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_RECORD_LEN {
        return Err(DecodeError::BadLength);
    }
    let len = len as usize;
    if buf.len() < RECORD_HEADER_LEN + len {
        return Err(DecodeError::Truncated);
    }
    let payload = &buf[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
    if crc32(payload) != crc {
        return Err(DecodeError::BadChecksum);
    }
    match std::str::from_utf8(payload) {
        Ok(sql) => Ok((sql.to_string(), RECORD_HEADER_LEN + len)),
        Err(_) => Err(DecodeError::BadUtf8),
    }
}

/// The write-ahead log attached to one [`crate::Dbms`] instance.
///
/// `append` buffers; `sync` makes the buffered records durable (writes their
/// bytes and moves them to the synced list). A simulated crash simply stops
/// using the instance: unsynced records were never written, so the file is
/// already the post-crash disk image.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Appended but not yet synced (lost on crash).
    pending: Vec<String>,
    /// Records the engine considers durable, in append order.
    synced: Vec<String>,
    /// Records whose bytes actually reached the file. Diverges from
    /// `synced` only under the injected torn-write fault.
    written: Vec<String>,
    /// `(offset, len)` of each written record within the file.
    written_spans: Vec<(u64, u64)>,
    /// Bytes written so far (magic + records).
    len: u64,
    /// First write error, if any; the log stops writing once set.
    io_error: Option<String>,
    /// Planted faults (test-only); only the torn write applies here.
    faults: Faults,
}

impl Wal {
    /// Create (or truncate) the WAL file at `path` and write the magic.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.flush()?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            pending: Vec::new(),
            synced: Vec::new(),
            written: Vec::new(),
            written_spans: Vec::new(),
            len: WAL_MAGIC.len() as u64,
            io_error: None,
            faults: Faults::default(),
        })
    }

    /// Plant faults in this log (test-only): with
    /// [`Faults::wal_drops_last_record`], every later sync loses its last
    /// record's bytes.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Buffer one executed statement. Not durable until [`Wal::sync`].
    pub fn append(&mut self, sql: &str) {
        self.pending.push(sql.to_string());
    }

    /// Flush the pending buffer: write each record's bytes and mark it
    /// synced. Under the injected torn-write fault
    /// ([`Faults::wal_drops_last_record`]), the final pending record is
    /// marked synced but its bytes are silently dropped — the lost-write
    /// bug shape the recovery oracle exists to catch.
    pub fn sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let drop_last = self.faults.wal_drops_last_record;
        let n = self.pending.len();
        for (i, sql) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let lose_bytes = drop_last && i + 1 == n;
            if !lose_bytes && self.io_error.is_none() {
                let rec = encode_record(&sql);
                match self.file.write_all(&rec).and_then(|_| self.file.flush()) {
                    Ok(()) => {
                        self.written_spans.push((self.len, rec.len() as u64));
                        self.len += rec.len() as u64;
                        self.written.push(sql.clone());
                    }
                    Err(e) => self.io_error = Some(e.to_string()),
                }
            }
            self.synced.push(sql);
        }
    }

    /// Simulate a crash: the unsynced pending tail is lost.
    pub fn crash(&mut self) {
        self.pending.clear();
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records the engine believes are durable.
    pub fn synced_records(&self) -> &[String] {
        &self.synced
    }

    /// Records whose bytes are actually in the file (differs from
    /// [`Wal::synced_records`] only under the injected fault).
    pub fn written_records(&self) -> &[String] {
        &self.written
    }

    /// `(offset, len)` of the last record physically written, if any — the
    /// span the torn-write variant truncates inside.
    pub fn last_written_span(&self) -> Option<(u64, u64)> {
        self.written_spans.last().copied()
    }

    /// Unsynced statements currently buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Bytes written so far (magic + records).
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// First write error, if the log hit one.
    pub fn io_error(&self) -> Option<&str> {
        self.io_error.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_layout_is_len_crc_payload() {
        let rec = encode_record("SELECT 1;");
        assert_eq!(&rec[..4], &(9u32).to_le_bytes());
        assert_eq!(&rec[4..8], &crc32(b"SELECT 1;").to_le_bytes());
        assert_eq!(&rec[8..], b"SELECT 1;");
        let (sql, used) = decode_record(&rec).unwrap();
        assert_eq!(sql, "SELECT 1;");
        assert_eq!(used, rec.len());
    }

    #[test]
    fn decode_rejects_length_beyond_cap() {
        let mut rec = encode_record("SELECT 1;");
        rec[..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert_eq!(decode_record(&rec), Err(DecodeError::BadLength));
    }
}
