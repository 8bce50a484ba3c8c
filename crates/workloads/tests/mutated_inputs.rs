//! Mutated-input properties at the text and byte boundaries: spec names
//! (`open:`/`shard:`/`mix:`/`replay:` grammar) and trace files (text and
//! binary). A mutant of valid input must never panic; it either parses to
//! something that round-trips or is refused with `None` or an error.
//! Accepted specs that build one stream must build or return a typed error.

use palermo_oram::types::OramOp;
use palermo_workloads::format::{decode, encode_binary, parse_text, render_text};
use palermo_workloads::{TraceEntry, WorkloadSpec};
use proptest::prelude::*;

/// Valid names spanning the whole spec grammar.
const SEEDS: &[&str] = &[
    "mcf",
    "pr",
    "replay:/tmp/capture.trace",
    "mix:rr:redis*2+llm+stream",
    "mix:zipf0.9:replay:a.trace+random",
    "mix:phase:redis*2+llm@500..+random@10..2000",
    "shard:2:hash:pr",
    "shard:4:tenant:mix:rr:mcf+redis",
    "shard:3:range:random",
    "open:poisson:0.05:random",
    "open:bursty:0.2:20000:60000+diurnal:0.01:0.5:100000:mix:rr:redis+llm",
    "open:diurnal:0.5:4:50000:mcf",
    "open:poisson:1e-300:shard:2:hash:mcf",
];

/// Characters the grammar gives meaning to, digits, and a few it never
/// emits (including multi-byte ones).
const ALPHABET: &[char] = &[
    ':', '+', '*', '@', '.', ',', '-', 'e', 'x', '0', '1', '2', '9', 'a', 'r', ' ', 'é', '∞',
];

/// Grammar tokens, valid and invalid, swapped in whole by [`mutate_name`].
const TOKENS: &[&str] = &[
    "mcf",
    "pr",
    "redis",
    "llm",
    "stream",
    "random",
    "mix",
    "rr",
    "phase",
    "zipf0.5",
    "zipf1",
    "shard",
    "hash",
    "range",
    "tenant",
    "open",
    "poisson",
    "bursty",
    "diurnal",
    "replay",
    "0",
    "1",
    "3",
    "64",
    "65",
    "0.5",
    "1e-3",
    "-1",
    "inf",
    "NaN",
    "4294967295",
    "65537",
    "500..",
    "10..20",
    "..",
    "",
];

/// Small footprint hint so graph workloads build quickly in debug.
const HINT: u64 = 1 << 20;

/// Applies one edit at a char boundary chosen by `pos`: delete, insert,
/// replace, duplicate the tail, or truncate.
fn mutate_str(s: &str, op: u8, pos: usize, pick: usize) -> String {
    let chars: Vec<char> = s.chars().collect();
    let i = pos % (chars.len() + 1);
    let c = ALPHABET[pick % ALPHABET.len()];
    let mut out = chars.clone();
    match op % 5 {
        0 if i < chars.len() => {
            out.remove(i);
        }
        1 => out.insert(i, c),
        2 if i < chars.len() => out[i] = c,
        3 => out.extend_from_slice(&chars[i..]),
        _ => out.truncate(i),
    }
    out.into_iter().collect()
}

/// Applies one grammar-aware edit to a spec name: a char edit, a token
/// replaced by one from [`TOKENS`], a token repeated in place, or the tail
/// after a delimiter spliced from another seed name.
fn mutate_name(s: &str, op: u8, pos: usize, pick: usize) -> String {
    // Tokens with the delimiter that follows each (empty for the last).
    let mut parts: Vec<(String, String)> = Vec::new();
    let mut token = String::new();
    for c in s.chars() {
        if matches!(c, ':' | '+' | '*' | '@') {
            parts.push((std::mem::take(&mut token), c.to_string()));
        } else {
            token.push(c);
        }
    }
    parts.push((token, String::new()));
    let i = pos % parts.len();
    match op % 4 {
        0 => return mutate_str(s, op / 4, pos, pick),
        1 => parts[i].0 = TOKENS[pick % TOKENS.len()].to_string(),
        2 => {
            let copy = parts[i].clone();
            parts.insert(i, copy);
        }
        _ => {
            let donor = SEEDS[pick % SEEDS.len()];
            let cut = donor
                .match_indices(':')
                .map(|(k, _)| k + 1)
                .nth(pos % 3)
                .unwrap_or(0);
            parts.truncate(i + 1);
            parts[i].1 = ":".to_string();
            parts.push((donor[cut..].to_string(), String::new()));
        }
    }
    parts.into_iter().map(|(t, d)| t + &d).collect()
}

/// Applies one edit to a byte string: flip a bit, delete, insert,
/// overwrite, or truncate.
fn mutate_bytes(b: &[u8], op: u8, pos: usize, byte: u8) -> Vec<u8> {
    let mut out = b.to_vec();
    let i = pos % (b.len() + 1);
    match op % 5 {
        0 if i < b.len() => out[i] ^= 1 << (byte % 8),
        1 if i < b.len() => {
            out.remove(i);
        }
        2 => out.insert(i, byte),
        3 if i < b.len() => out[i] = byte,
        _ => out.truncate(i),
    }
    out
}

fn entries(raw: &[(bool, u64)]) -> Vec<TraceEntry> {
    raw.iter()
        .map(|&(write, addr)| TraceEntry {
            addr: palermo_oram::types::PhysAddr::new(addr),
            op: if write { OramOp::Write } else { OramOp::Read },
        })
        .collect()
}

/// An accepted trace survives both encodings unchanged.
fn assert_trace_round_trips(decoded: &[TraceEntry]) {
    assert_eq!(decode(&encode_binary(decoded)).as_deref(), Ok(decoded));
    assert_eq!(parse_text(&render_text(decoded)).as_deref(), Ok(decoded));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn mutated_spec_names_parse_round_trip_and_build(
        seed in 0..SEEDS.len(),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut name = SEEDS[seed].to_string();
        for (op, pos, pick) in edits {
            name = mutate_name(&name, op, pos, pick);
        }
        if let Some(spec) = WorkloadSpec::from_name(&name) {
            prop_assert!(spec.validate().is_ok(), "{name}");
            prop_assert_eq!(WorkloadSpec::from_name(&spec.name()), Some(spec.clone()), "{}", name);
            if spec.sharded().is_none() && !spec.name().contains("replay:") {
                // Ok or a typed error; a panic or an abort fails the test.
                let _ = spec.build(HINT, 7).map(|s| s.footprint_bytes());
            }
        }
    }

    #[test]
    fn mutated_binary_traces_decode_or_error(
        raw in prop::collection::vec((any::<bool>(), any::<u64>()), 0..6),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = encode_binary(&entries(&raw));
        for (op, pos, byte) in edits {
            bytes = mutate_bytes(&bytes, op, pos, byte);
        }
        if let Ok(decoded) = decode(&bytes) {
            assert_trace_round_trips(&decoded);
        }
    }

    #[test]
    fn mutated_text_traces_parse_or_error(
        raw in prop::collection::vec((any::<bool>(), any::<u64>()), 0..6),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut text = render_text(&entries(&raw));
        for (op, pos, pick) in edits {
            text = mutate_str(&text, op, pos, pick);
        }
        if let Ok(decoded) = parse_text(&text) {
            assert_trace_round_trips(&decoded);
        }
        // The auto-detecting reader takes the same bytes the same way.
        prop_assert_eq!(decode(text.as_bytes()).is_ok(), parse_text(&text).is_ok());
    }
}
