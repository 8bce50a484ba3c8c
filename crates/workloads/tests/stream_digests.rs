//! Cross-commit guard on the Table II access streams.
//!
//! The model digests pin whole runs, but they build the graph workloads only
//! at small footprints (`pr` at 16 MiB, `motif` not at all). This test pins
//! the streams themselves: for every Table II workload at two footprint
//! hints it hashes the footprint and the first [`PULLS`] tagged accesses
//! against the committed table `tests/data/stream_digests.txt`, one
//! `workload hint footprint digest` line each. The 256 MiB hint builds
//! paper-scale graphs (524,288 vertices), whose Zipf normalisation uses the
//! integral tail above 100,000 items.
//!
//! A change that alters a stream on purpose updates the table in the same
//! diff: on a mismatch the test prints the whole fresh table.

use palermo_oram::types::OramOp;
use palermo_workloads::{AccessStream, Workload};

/// Footprint hints of the table, in MiB.
const HINTS_MIB: [u64; 2] = [16, 256];
/// The one seed every stream is built with.
const SEED: u64 = 0x5EED_0027;
/// Accesses hashed per stream.
const PULLS: usize = 20_000;

/// FNV-1a over the bytes: a fixed, toolchain-independent 64-bit hash.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a stream's next `PULLS` tagged accesses: each hashes its
/// address (8 bytes, little-endian), its op (one byte, 0 for a read) and
/// its tenant (4 bytes, little-endian).
fn stream_digest(stream: &mut dyn AccessStream) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for _ in 0..PULLS {
        let t = stream.next_tagged();
        h = fnv1a(h, &t.entry.addr.0.to_le_bytes());
        h = fnv1a(h, &[u8::from(t.entry.op == OramOp::Write)]);
        h = fnv1a(h, &t.tenant.to_le_bytes());
    }
    h
}

fn fresh_table() -> String {
    let mut out = String::new();
    for mib in HINTS_MIB {
        for w in Workload::ALL {
            let mut stream = w.build(mib << 20, SEED);
            let footprint = stream.footprint_bytes();
            let digest = stream_digest(stream.as_mut());
            out.push_str(&format!("{w} {mib}MiB {footprint} {digest:016x}\n"));
        }
    }
    out
}

#[test]
fn digest_is_fnv1a() {
    // The published FNV-1a test vectors.
    assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn table_ii_streams_match_the_committed_digests() {
    let committed = include_str!("data/stream_digests.txt");
    let fresh = fresh_table();
    let committed_lines: Vec<&str> = committed.lines().filter(|l| !l.trim().is_empty()).collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let mismatched: Vec<String> = fresh_lines
        .iter()
        .zip(
            committed_lines
                .iter()
                .chain(std::iter::repeat(&"<missing>")),
        )
        .filter(|(f, c)| f != c)
        .map(|(f, c)| format!("  committed {c}\n  fresh     {f}"))
        .collect();
    assert!(
        mismatched.is_empty() && committed_lines.len() == fresh_lines.len(),
        "stream digests diverged from tests/data/stream_digests.txt \
         ({} of {} lines; committed table has {} lines):\n{}\n\
         If the stream change is intended, replace the table with:\n{fresh}",
        mismatched.len(),
        fresh_lines.len(),
        committed_lines.len(),
        mismatched.join("\n"),
    );
}
