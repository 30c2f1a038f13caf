//! The grid cache's on-disk codec: a [`GridEntry`] as a versioned TSV
//! document.
//!
//! Every `f64` goes through the shortest-roundtrip codec, so a reloaded
//! entry compares bit-equal to the measured one, and a document of any
//! other version is a cache miss (re-measured, never upgraded). The
//! round trip is pinned by
//! `experiment::tests::tsv_roundtrip_arbitrary_entries` (and the float
//! codec over arbitrary bit patterns by this module's tests), the
//! version check by
//! `experiment::tests::stale_cache_versions_are_rejected`. Cache file
//! names go through [`encode_component`].

// Counters and record counts pass through here on every cache load: a
// wrapping or truncating integer operation would corrupt a battery
// silently, so such operations must be written out as checked ones.
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use mosmodel::dataset::LayoutKind;
use vmcore::PmuCounters;

use crate::experiment::{GridEntry, RunRecord};
use crate::sampled::{BatteryMode, GateReport};

/// Cache format version; bump whenever the TSV schema changes so stale
/// files are re-measured instead of mis-parsed.
///
/// History: v2 squashed description tabs/newlines to spaces (lossy) and
/// had no end-of-document marker; v3 escapes the description instead and
/// appends a `# records N` footer so a file truncated at a line boundary
/// is detected rather than parsed as a shorter battery; v4 adds `# mode`
/// and `# gate` header lines so interval-sampled entries carry their
/// provenance (and can never be mistaken for full measurements).
const CACHE_VERSION: u32 = 4;

/// Renders an `f64` with Rust's `Display`, which emits the *shortest*
/// decimal string that parses back to the identical bit pattern: the
/// columns stay human-readable yet round-trip exactly (e.g. `cvR`).
pub(crate) fn fmt_f64_shortest(v: f64) -> String {
    format!("{v}")
}

/// Parses a float written by [`fmt_f64_shortest`]; returns `None` for
/// text `f64::from_str` rejects. `parse_f64_shortest(&fmt_f64_shortest(v))`
/// reproduces `v` bit-for-bit for every non-NaN `v`.
pub(crate) fn parse_f64_shortest(s: &str) -> Option<f64> {
    s.parse().ok()
}

/// Injective file-name encoding for cache path components. ASCII
/// alphanumerics, `-` and `.` pass through; every other byte (including
/// `_`, `/`, space and `%` itself) becomes `%XX`, so distinct names can
/// never share a file. The old `replace(['/', ' '], "_")` sanitization
/// mapped `a/b`, `a b` and `a_b` to one path, and colliding pairs then
/// silently overwrote each other's file.
pub(crate) fn encode_component(raw: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(raw.len());
    for byte in raw.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' => out.push(char::from(byte)),
            _ => {
                let _ = write!(out, "%{byte:02X}");
            }
        }
    }
    out
}

/// Inverse of [`encode_component`]: decodes `%XX` escapes back to their
/// bytes, so a cache file's pair is recoverable from its name. Returns
/// `None` for text no encoder output could have produced (truncated or
/// non-hex escapes, non-UTF-8 decoded bytes).
#[cfg(test)]
pub(crate) fn decode_component(encoded: &str) -> Option<String> {
    let mut out = Vec::with_capacity(encoded.len());
    let mut bytes = encoded.bytes();
    while let Some(byte) = bytes.next() {
        if byte == b'%' {
            let hex = [bytes.next()?, bytes.next()?];
            let hex = std::str::from_utf8(&hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
        } else {
            out.push(byte);
        }
    }
    String::from_utf8(out).ok()
}

/// Escapes a description for its single TSV column: backslash, tab,
/// newline, and carriage return become two-character escapes, so the
/// column never spills into the field or line structure and
/// [`unescape_field`] restores the original bytes exactly.
fn escape_field(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_field`]; `None` on a dangling backslash or an
/// unknown escape (corrupt or hand-edited cache file).
pub(crate) fn unescape_field(encoded: &str) -> Option<String> {
    let mut out = String::with_capacity(encoded.len());
    let mut chars = encoded.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Serializes an entry as a TSV document (stable, human-inspectable).
/// The first line is a version header and the last a record-count
/// footer; [`parse_entry`] rejects files written by any other version
/// and files whose body does not match the footer (truncated writes).
pub(crate) fn render_entry(entry: &GridEntry) -> String {
    let mut out = format!("# mosaic-cache v{CACHE_VERSION}\n");
    match entry.mode {
        BatteryMode::Full => out.push_str("# mode full\n"),
        BatteryMode::Sampled { window, period } => {
            out.push_str(&format!("# mode sampled {window} {period}\n"));
        }
    }
    match &entry.gate {
        None => out.push_str("# gate none\n"),
        Some(g) => out.push_str(&format!(
            "# gate {} {} {} {} {} {}\n",
            if g.accepted { "accepted" } else { "rejected" },
            g.window,
            g.period,
            // Shortest-roundtrip floats: the reloaded gate compares
            // bit-equal to the one that was evaluated.
            fmt_f64_shortest(g.bound),
            fmt_f64_shortest(g.max_rel_err),
            g.anchors,
        )),
    }
    out.push_str("kind\tR\tH\tM\tC\tinst\tpl1d\tpl2\tpl3\twl1d\twl2\twl3\tcvR\tdescription\n");
    for r in &entry.records {
        let c = &r.counters;
        out.push_str(&format!(
            "{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.kind,
            c.runtime_cycles,
            c.stlb_hits,
            c.stlb_misses,
            c.walk_cycles,
            c.instructions,
            c.program_l1d_loads,
            c.program_l2_loads,
            c.program_l3_loads,
            c.walker_l1d_loads,
            c.walker_l2_loads,
            c.walker_l3_loads,
            // Shortest-roundtrip codec: human-readable, yet the parsed
            // value reproduces the measured cv bit-for-bit.
            fmt_f64_shortest(r.cv_r),
            escape_field(&r.description),
        ));
    }
    out.push_str(&format!("# records {}\n", entry.records.len()));
    out
}

pub(crate) fn parse_entry(workload: &str, platform: &str, text: &str) -> Option<GridEntry> {
    let mut lines: Vec<&str> = text.lines().collect();
    // The footer must be the document's last line; a file cut anywhere
    // before it — even exactly at a record boundary — has no footer (or
    // a record line in its place) and is rejected as truncated.
    let expected_records = lines
        .pop()?
        .strip_prefix("# records ")?
        .parse::<usize>()
        .ok()?;
    let mut lines = lines.into_iter();
    let header = lines.next()?;
    let version = header
        .strip_prefix("# mosaic-cache v")?
        .trim()
        .parse::<u32>()
        .ok()?;
    // Any other version is a cache miss: the cache is regenerable.
    if version != CACHE_VERSION {
        return None;
    }
    let mode = parse_mode_line(lines.next()?)?;
    let gate = parse_gate_line(lines.next()?)?;
    // A sampled entry must carry the accepting gate evidence for its own
    // configuration; anything else would let an unvalidated (or
    // differently-validated) sampled grid masquerade as trustworthy.
    match (mode, &gate) {
        (BatteryMode::Sampled { window, period }, Some(g))
            if g.accepted && g.window == window && g.period == period => {}
        (BatteryMode::Sampled { .. }, _) => return None,
        (BatteryMode::Full, _) => {}
    }
    let _column_header = lines.next()?;
    let mut records = Vec::new();
    for line in lines {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 14 {
            return None;
        }
        let kind = match cols[0] {
            "All4K" => LayoutKind::All4K,
            "All2M" => LayoutKind::All2M,
            "All1G" => LayoutKind::All1G,
            "Mixed" => LayoutKind::Mixed,
            _ => return None,
        };
        let num = |i: usize| cols[i].parse::<u64>().ok();
        records.push(RunRecord {
            kind,
            counters: PmuCounters {
                runtime_cycles: num(1)?,
                stlb_hits: num(2)?,
                stlb_misses: num(3)?,
                walk_cycles: num(4)?,
                instructions: num(5)?,
                program_l1d_loads: num(6)?,
                program_l2_loads: num(7)?,
                program_l3_loads: num(8)?,
                walker_l1d_loads: num(9)?,
                walker_l2_loads: num(10)?,
                walker_l3_loads: num(11)?,
            },
            cv_r: parse_f64_shortest(cols[12])?,
            description: unescape_field(cols[13])?,
        });
    }
    if records.is_empty() || records.len() != expected_records {
        return None;
    }
    Some(GridEntry {
        workload: workload.to_string(),
        platform: platform.to_string(),
        records,
        mode,
        gate,
    })
}

/// Parses a v4 `# mode ...` header line.
fn parse_mode_line(line: &str) -> Option<BatteryMode> {
    let rest = line.strip_prefix("# mode ")?;
    if rest == "full" {
        return Some(BatteryMode::Full);
    }
    let mut parts = rest.split(' ');
    if parts.next()? != "sampled" {
        return None;
    }
    let window = parts.next()?.parse().ok()?;
    let period = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(BatteryMode::Sampled { window, period })
}

/// Parses a v4 `# gate ...` header line (`none`, or a full verdict).
fn parse_gate_line(line: &str) -> Option<Option<GateReport>> {
    let rest = line.strip_prefix("# gate ")?;
    if rest == "none" {
        return Some(None);
    }
    let mut parts = rest.split(' ');
    let accepted = match parts.next()? {
        "accepted" => true,
        "rejected" => false,
        _ => return None,
    };
    let window = parts.next()?.parse().ok()?;
    let period = parts.next()?.parse().ok()?;
    let bound = parse_f64_shortest(parts.next()?)?;
    let max_rel_err = parse_f64_shortest(parts.next()?)?;
    let anchors = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(Some(GateReport {
        window,
        period,
        bound,
        max_rel_err,
        anchors,
        accepted,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_encoding_is_injective_and_round_trips() {
        // The collision class the old `replace(['/', ' '], "_")`
        // sanitization created: all three mapped to `a_b`.
        let colliding = ["a/b", "a b", "a_b"];
        for (i, a) in colliding.iter().enumerate() {
            for b in colliding.iter().skip(i + 1) {
                assert_ne!(
                    encode_component(a),
                    encode_component(b),
                    "{a:?} and {b:?} must not share a file name"
                );
            }
        }
        // Encoding is stable (cache file names outlive a build) and
        // keeps safe characters readable.
        assert_eq!(encode_component("gups/8GB"), "gups%2F8GB");
        assert_eq!(encode_component("a_b"), "a%5Fb");
        assert_eq!(encode_component("a b"), "a%20b");
        assert_eq!(encode_component("Broadwell-1.2"), "Broadwell-1.2");
        assert_eq!(encode_component("100%"), "100%25");
        for raw in [
            "gups/8GB",
            "a_b",
            "a b",
            "100%",
            "Broadwell-1.2",
            "",
            "snake_case/with spaces/and%percent",
            "ünïcode/π",
        ] {
            let encoded = encode_component(raw);
            assert!(
                !encoded.contains('/') && !encoded.contains(' '),
                "{encoded:?} is not filesystem-safe"
            );
            assert_eq!(
                decode_component(&encoded).as_deref(),
                Some(raw),
                "{raw:?} -> {encoded:?} failed to decode back"
            );
        }
        // Text no encoder could have produced decodes to None, not junk.
        assert_eq!(decode_component("%"), None);
        assert_eq!(decode_component("%2"), None);
        assert_eq!(decode_component("%zz"), None);
        assert_eq!(decode_component("%FF"), None); // not UTF-8
    }

    #[test]
    fn shortest_roundtrip_codec_is_bit_exact() {
        let probes = [
            0.0,
            -0.0,
            1.0 / 3.0,
            0.047_281_953,
            1e-308,
            f64::MAX,
            std::f64::consts::PI,
        ];
        for v in probes {
            let s = fmt_f64_shortest(v);
            let back = parse_f64_shortest(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s} drifted");
        }
        assert!(parse_f64_shortest("not-a-float").is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The shortest codec keeps every non-NaN bit pattern, so every
        /// float the grid cache writes reloads bit-equal.
        #[test]
        fn shortest_codec_roundtrips_arbitrary_bit_patterns(bits in proptest::prelude::any::<u64>()) {
            let v = f64::from_bits(bits);
            if !v.is_nan() {
                let back = parse_f64_shortest(&fmt_f64_shortest(v)).map(f64::to_bits);
                proptest::prop_assert_eq!(back, Some(bits));
            }
        }
    }
}
