//! Property-style tests pinning the WAL's durability contract:
//!
//! 1. **Roundtrip identity** — any sequence of statements synced through a
//!    [`Wal`] is recovered verbatim, in order, by [`recovery::read_wal`].
//! 2. **Checksum rejection** — flipping any single bit anywhere in an
//!    encoded record makes it undecodable (no silent corruption).
//! 3. **Torn tail** — truncating the log at *every* byte offset inside the
//!    last record always recovers exactly the longest valid prefix, with
//!    `torn` set iff the cut is not on a record boundary.
//!
//! The workspace vendors its dependencies (no proptest), so the properties
//! are exercised exhaustively over deterministic corpora instead of random
//! sampling — the input spaces here (byte offsets, bit positions) are small
//! enough to cover completely.

use lego_dbms::faults::Faults;
use lego_dbms::recovery::{read_wal, scan_wal};
use lego_dbms::wal::{decode_record, encode_record, Wal, WAL_MAGIC};
use std::path::PathBuf;

fn tmpfile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lego_wal_props_{tag}_{}.wal", std::process::id()))
}

/// A corpus spanning the shapes the engine journals: DDL, DML, transaction
/// control, failed statements, quoting, non-ASCII, and the empty-adjacent
/// short strings that stress the length prefix.
fn corpus() -> Vec<String> {
    vec![
        "CREATE TABLE t (a INT, b TEXT);".to_string(),
        "INSERT INTO t VALUES (1, 'x''y');".to_string(),
        "BEGIN;".to_string(),
        "UPDATE t SET b = 'naïve—☃' WHERE a = 1;".to_string(),
        "ROLLBACK;".to_string(),
        "SELECT * FROM missing_table;".to_string(),
        "DROP TABLE t;".to_string(),
        "SELECT 1;".to_string(),
    ]
}

#[test]
fn synced_statements_roundtrip_verbatim_through_the_file() {
    // Every prefix length of the corpus roundtrips — not just the full set.
    for n in 0..=corpus().len() {
        let path = tmpfile(&format!("roundtrip{n}"));
        let mut wal = Wal::create(&path).expect("create WAL");
        for sql in &corpus()[..n] {
            wal.append(sql);
        }
        wal.sync();
        assert_eq!(wal.synced_records(), &corpus()[..n]);
        assert_eq!(wal.written_records(), &corpus()[..n]);
        let log = read_wal(&path).expect("read WAL");
        assert_eq!(log.records, &corpus()[..n], "prefix of {n} records");
        assert!(!log.torn);
        assert_eq!(log.valid_len, wal.file_len());
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn unsynced_tail_is_lost_and_synced_prefix_survives() {
    let path = tmpfile("tail");
    let mut wal = Wal::create(&path).expect("create WAL");
    let all = corpus();
    let (durable, lost) = all.split_at(3);
    for sql in durable {
        wal.append(sql);
    }
    wal.sync();
    for sql in lost {
        wal.append(sql); // never synced: inside an open "transaction"
    }
    assert_eq!(wal.pending_len(), lost.len());
    wal.crash();
    assert_eq!(wal.pending_len(), 0);
    let log = read_wal(&path).expect("read WAL");
    assert_eq!(log.records, durable, "crash must lose exactly the unsynced tail");
    assert!(!log.torn);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_single_bit_flip_in_a_record_is_rejected() {
    let rec = encode_record("INSERT INTO t VALUES (42, 'payload');");
    let (original, _) = decode_record(&rec).expect("pristine record decodes");
    for byte in 0..rec.len() {
        for bit in 0..8 {
            let mut corrupt = rec.clone();
            corrupt[byte] ^= 1 << bit;
            let got = decode_record(&corrupt);
            assert!(
                got.is_err(),
                "flip of byte {byte} bit {bit} decoded as {got:?} (original: {original:?})"
            );
        }
    }
}

#[test]
fn corrupt_interior_record_ends_the_valid_prefix() {
    // A flipped payload bit in record 1 of 3 must not take down records 0 —
    // and must not let 2 be trusted either (its offset can no longer be
    // authenticated once the chain is broken).
    let mut buf = WAL_MAGIC.to_vec();
    let records = ["SELECT 1;", "SELECT 22;", "SELECT 333;"];
    let mut offsets = Vec::new();
    for r in &records {
        offsets.push(buf.len());
        buf.extend_from_slice(&encode_record(r));
    }
    let payload_byte = offsets[1] + 8; // first payload byte of record 1
    buf[payload_byte] ^= 0x01;
    let log = scan_wal(&buf);
    assert_eq!(log.records, vec!["SELECT 1;"]);
    assert!(log.torn);
    assert_eq!(log.valid_len, offsets[1] as u64);
}

#[test]
fn truncation_at_every_offset_recovers_the_longest_valid_prefix() {
    let records = corpus();
    let mut buf = WAL_MAGIC.to_vec();
    // Byte offset where each record ends (== where the next one starts).
    let mut boundaries = vec![buf.len()];
    for r in &records {
        buf.extend_from_slice(&encode_record(r));
        boundaries.push(buf.len());
    }
    for cut in 0..=buf.len() {
        let log = scan_wal(&buf[..cut]);
        if cut < WAL_MAGIC.len() {
            // No valid magic: nothing recoverable.
            assert!(log.records.is_empty(), "cut={cut}");
            assert_eq!(log.torn, cut > 0, "cut={cut}");
            continue;
        }
        // The longest valid prefix: every record whose boundary fits.
        let intact = boundaries.iter().filter(|&&b| b > WAL_MAGIC.len() && b <= cut).count();
        let on_boundary = boundaries.contains(&cut);
        assert_eq!(log.records, &records[..intact], "cut={cut}");
        assert_eq!(log.torn, !on_boundary, "cut={cut}");
        assert_eq!(log.valid_len, boundaries[intact] as u64, "cut={cut}");
    }
}

#[test]
fn torn_write_fault_diverges_synced_from_written() {
    let path = tmpfile("fault");
    let mut wal = Wal::create(&path).expect("create WAL");
    wal.append("CREATE TABLE t (a INT);");
    wal.sync();
    wal.set_faults(Faults { wal_drops_last_record: true, ..Faults::default() });
    wal.append("INSERT INTO t VALUES (1);");
    wal.append("INSERT INTO t VALUES (2);");
    wal.sync();
    // The engine believes all three are durable; the file holds only two.
    assert_eq!(wal.synced_records().len(), 3);
    assert_eq!(wal.written_records().len(), 2);
    let log = read_wal(&path).expect("read WAL");
    assert_eq!(log.records, wal.written_records());
    assert!(!log.torn, "a dropped record leaves a clean (shorter) log, not a torn one");
    let _ = std::fs::remove_file(&path);
}
