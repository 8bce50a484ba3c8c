//! On-disk trace formats for [`TraceReplay`](crate::replay::TraceReplay).
//!
//! Two encodings are supported, auto-detected on load:
//!
//! * **Text** — one access per line, `R <addr>` or `W <addr>`, where the
//!   address is decimal or `0x`-prefixed hex. Blank lines and `#` comments
//!   are ignored. Human-editable; the natural interchange format for traces
//!   exported from other simulators (`perf mem`, DynamoRIO, champsim CSVs
//!   after a one-line awk pass).
//! * **Binary** — a `PTRC` magic, a format version byte, a little-endian
//!   `u64` entry count, then 9 bytes per access (1 op byte, 8 address
//!   bytes). Compact and O(1) to validate; the right choice for multi-
//!   million-access captures.
//!
//! Errors are reported as `String`s with enough position information to fix
//! the offending line/offset; callers that need a typed error wrap them
//! (see [`TraceReplay::from_file`](crate::replay::TraceReplay::from_file)).

use crate::trace::TraceEntry;
use palermo_oram::types::OramOp;
use std::path::Path;

/// Magic prefix of the binary trace encoding.
pub const BINARY_MAGIC: &[u8; 4] = b"PTRC";
/// Version byte of the binary trace encoding this module writes.
pub const BINARY_VERSION: u8 = 1;

/// Bytes per access record in the binary encoding (1 op + 8 address).
const BINARY_RECORD_BYTES: usize = 9;
/// Header length of the binary encoding (magic + version + count).
const BINARY_HEADER_BYTES: usize = 4 + 1 + 8;

/// Parses the text trace format.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_text(src: &str) -> Result<Vec<TraceEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", idx + 1);
        let mut parts = line.split_whitespace();
        let op = match parts.next() {
            Some(t) if t.eq_ignore_ascii_case("r") => OramOp::Read,
            Some(t) if t.eq_ignore_ascii_case("w") => OramOp::Write,
            _ => return Err(err("expected op 'R' or 'W'")),
        };
        let addr_token = parts.next().ok_or_else(|| err("missing address"))?;
        if parts.next().is_some() {
            return Err(err("trailing tokens after address"));
        }
        let addr = parse_addr(addr_token).ok_or_else(|| err("unparsable address"))?;
        entries.push(TraceEntry {
            addr: palermo_oram::types::PhysAddr::new(addr),
            op,
        });
    }
    Ok(entries)
}

fn parse_addr(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Renders entries in the text trace format (hex addresses, one per line).
pub fn render_text(entries: &[TraceEntry]) -> String {
    let mut out = String::with_capacity(entries.len() * 12);
    for e in entries {
        let op = match e.op {
            OramOp::Read => 'R',
            OramOp::Write => 'W',
        };
        out.push(op);
        out.push_str(&format!(" {:#x}\n", e.addr.0));
    }
    out
}

/// Encodes entries in the binary trace format.
pub fn encode_binary(entries: &[TraceEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BINARY_HEADER_BYTES + entries.len() * BINARY_RECORD_BYTES);
    out.extend_from_slice(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.push(match e.op {
            OramOp::Read => 0,
            OramOp::Write => 1,
        });
        out.extend_from_slice(&e.addr.0.to_le_bytes());
    }
    out
}

/// Decodes the binary trace format.
///
/// # Errors
///
/// Returns a message describing the structural defect (bad magic, truncated
/// header or body, unknown version or op byte).
pub fn decode_binary(bytes: &[u8]) -> Result<Vec<TraceEntry>, String> {
    if bytes.len() < BINARY_HEADER_BYTES {
        return Err(format!(
            "binary trace truncated: {} bytes is shorter than the {BINARY_HEADER_BYTES}-byte header",
            bytes.len()
        ));
    }
    if &bytes[..4] != BINARY_MAGIC {
        return Err("binary trace magic mismatch (expected \"PTRC\")".into());
    }
    if bytes[4] != BINARY_VERSION {
        return Err(format!(
            "unsupported binary trace version {} (this build reads version {BINARY_VERSION})",
            bytes[4]
        ));
    }
    let count = u64::from_le_bytes(std::array::from_fn(|i| bytes[5 + i]));
    let body = &bytes[BINARY_HEADER_BYTES..];
    let expected = (count as usize).checked_mul(BINARY_RECORD_BYTES);
    if expected != Some(body.len()) {
        return Err(format!(
            "binary trace body is {} bytes but the header promises {count} records ({} bytes)",
            body.len(),
            expected.map_or("overflowing".to_string(), |n| n.to_string()),
        ));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for (i, record) in body.chunks_exact(BINARY_RECORD_BYTES).enumerate() {
        let op = match record[0] {
            0 => OramOp::Read,
            1 => OramOp::Write,
            other => return Err(format!("record {i}: unknown op byte {other}")),
        };
        let addr = u64::from_le_bytes(std::array::from_fn(|i| record[1 + i]));
        entries.push(TraceEntry {
            addr: palermo_oram::types::PhysAddr::new(addr),
            op,
        });
    }
    Ok(entries)
}

/// Decodes a trace from raw bytes, auto-detecting the encoding: the binary
/// magic selects the binary reader, anything else must be UTF-8 text.
///
/// # Errors
///
/// Propagates the selected decoder's error; non-UTF-8 input without the
/// binary magic is reported as such.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceEntry>, String> {
    if bytes.len() >= 4 && &bytes[..4] == BINARY_MAGIC {
        decode_binary(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| format!("trace is neither binary (no PTRC magic) nor UTF-8 text: {e}"))?;
        parse_text(text)
    }
}

/// Loads a trace file, auto-detecting the encoding.
///
/// # Errors
///
/// Returns a message naming the path for I/O failures, or the decoder's
/// error for malformed content.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<TraceEntry>, String> {
    let path = path.as_ref();
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a trace file in the text encoding.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn save_text(path: impl AsRef<Path>, entries: &[TraceEntry]) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, render_text(entries))
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))
}

/// Writes a trace file in the binary encoding.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn save_binary(path: impl AsRef<Path>, entries: &[TraceEntry]) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, encode_binary(entries))
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEntry> {
        vec![
            TraceEntry::read(0),
            TraceEntry::write(0x1a40),
            TraceEntry::read(64),
            TraceEntry::write(u64::MAX - 63),
        ]
    }

    #[test]
    fn text_round_trips() {
        let entries = sample();
        let text = render_text(&entries);
        assert_eq!(parse_text(&text).unwrap(), entries);
    }

    #[test]
    fn text_accepts_comments_decimal_and_case() {
        let src = "# header comment\n\nr 128 # inline comment\nW 0x40\n  R 0X10\n";
        let entries = parse_text(src).unwrap();
        assert_eq!(
            entries,
            vec![
                TraceEntry::read(128),
                TraceEntry::write(0x40),
                TraceEntry::read(0x10),
            ]
        );
    }

    #[test]
    fn text_rejects_malformed_lines() {
        for (src, what) in [
            ("X 128", "op"),
            ("R", "address"),
            ("R zzz", "address"),
            ("R 1 2", "trailing"),
        ] {
            let err = parse_text(src).unwrap_err();
            assert!(err.contains("line 1"), "{src}: {err}");
            assert!(err.contains(what), "{src}: {err}");
        }
    }

    #[test]
    fn binary_round_trips() {
        let entries = sample();
        let bytes = encode_binary(&entries);
        assert_eq!(decode_binary(&bytes).unwrap(), entries);
        // Auto-detection picks the right decoder for both encodings.
        assert_eq!(decode(&bytes).unwrap(), entries);
        assert_eq!(decode(render_text(&entries).as_bytes()).unwrap(), entries);
    }

    #[test]
    fn binary_rejects_corruption() {
        let entries = sample();
        let good = encode_binary(&entries);
        assert!(decode_binary(&good[..4]).unwrap_err().contains("truncated"));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_binary(&bad_magic).unwrap_err().contains("magic"));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(decode_binary(&bad_version).unwrap_err().contains("version"));
        let mut truncated_body = good.clone();
        truncated_body.pop();
        assert!(decode_binary(&truncated_body)
            .unwrap_err()
            .contains("promises"));
        let mut bad_op = good;
        bad_op[BINARY_HEADER_BYTES] = 7;
        assert!(decode_binary(&bad_op).unwrap_err().contains("op byte"));
    }

    #[test]
    fn file_round_trip_both_encodings() {
        let entries = sample();
        let dir = std::env::temp_dir().join("palermo_format_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let bin_path = dir.join("t.ptrc");
        save_text(&text_path, &entries).unwrap();
        save_binary(&bin_path, &entries).unwrap();
        assert_eq!(load(&text_path).unwrap(), entries);
        assert_eq!(load(&bin_path).unwrap(), entries);
        assert!(load(dir.join("missing.trace"))
            .unwrap_err()
            .contains("read"));
    }
}
