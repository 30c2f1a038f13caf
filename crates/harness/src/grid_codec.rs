//! The grid cache's on-disk codec: a [`GridEntry`] as a versioned TSV
//! document.
//!
//! Every `f64` goes through the shortest-roundtrip codec, so a reloaded
//! entry compares bit-equal to the measured one, and a document of any
//! other version is a cache miss (re-measured, never upgraded). The
//! round trip is pinned by
//! `experiment::tests::tsv_roundtrip_arbitrary_entries` (and the float
//! codec over arbitrary bit patterns by `mosmodel::persist`'s tests),
//! the version check by
//! `experiment::tests::stale_cache_versions_are_rejected`.

// Counters and record counts pass through here on every cache load: a
// wrapping or truncating integer operation would corrupt a battery
// silently, so such operations must be written out as checked ones.
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use mosmodel::dataset::LayoutKind;
use mosmodel::persist::{fmt_f64_shortest, parse_f64_shortest};
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
