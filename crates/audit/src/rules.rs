//! The audit rule set.
//!
//! Every rule is scoped by path: the invariants are *project-specific*
//! (which files hold the serving plane's locks, which run inside a
//! mosaicd request, which modules are on-disk codecs),
//! so the scope tables below are part of the rule definitions. A file
//! outside every scope produces no diagnostics no matter what it
//! contains.
//!
//! | rule | scope | forbids |
//! |---|---|---|
//! | `bit-exactness` | on-disk codec modules | lossy float format specs; floats without a bit-exact codec |
//! | `version-header` | on-disk codec modules | writers/parsers without a `# mosaic-... vN` header constant |
//! | `lock-discipline` | `service` + `obs` + the singleflight memo | guards live across fit/simulate/blocking I/O, lock-order inversions, re-acquisition |
//! | `arith-safety` | `service` + request path + codecs | truncating `as` casts; unchecked `*`/`+` on counter-named values |
//! | `wire-conformance` | cross-file (see [`crate::conformance`]) | protocol verbs missing a server arm, client method, CLI frontend, or README mention |
//! | `block-structure` | any file a rule above scans | unbalanced delimiters the semantic rules cannot see past |
//!
//! Determinism and panic-freedom are clippy's to enforce, not this
//! crate's: `crates/clippy.toml` bans randomly seeded hashers and clock
//! reads workspace-wide, and the crates and modules on the mosaicd
//! request path deny the `unwrap`/`expect`/indexing/`panic!` lints. The
//! rules here check what a type checker cannot. The persisted model
//! store only serves identical predictions if every `f64` survives its
//! text round-trip exactly. The semantic rules guard the two worst
//! shipped bug classes, a lock held across a model fit and a u64
//! overflow in the percentile rank computation, both invisible to a
//! flat token scan.

use crate::block::{DelimKind, Owner};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::FileView;

/// Stable ids of all scoped rules, in reporting order. (`suppression`,
/// the meta-rule for malformed `audit:allow` comments, is implicit.)
pub const RULE_IDS: [&str; 6] = [
    "bit-exactness",
    "version-header",
    "lock-discipline",
    "arith-safety",
    "wire-conformance",
    "block-structure",
];

/// The canonical lock acquisition order for the serving plane, by the
/// field name the guard is taken from. Holding a later lock while
/// acquiring an earlier one is an inversion finding. The order encodes
/// the code as audited: `pairs()` takes the CV memo before the
/// registry's `entries` shards, each a singleflight memo whose map is
/// its `slots` lock; the admission `queue` and the cache `inner`
/// mutexes are leaves acquired with nothing else held.
pub const LOCK_ORDER: [&str; 5] = ["cv_errors", "entries", "slots", "queue", "inner"];

/// Ceilings on *honored* `audit:allow` waivers per rule across one
/// workspace audit — the suppression-debt budget. `--deny` fails when a
/// rule's waiver count exceeds its ceiling, so debt cannot accrete
/// silently: raising a ceiling is a reviewed diff to this table.
pub const SUPPRESSION_BUDGET: [(&str, usize); 6] = [
    ("bit-exactness", 2),
    ("version-header", 2),
    ("lock-discipline", 3),
    ("arith-safety", 3),
    ("wire-conformance", 2),
    ("block-structure", 1),
];

/// Modules that define an on-disk text codec (format + parse).
const CODEC_MODULES: [&str; 2] = [
    "crates/mosmodel/src/persist.rs",
    "crates/harness/src/experiment.rs",
];

/// Modules outside `service`, `obs` and `recommend` whose integer math
/// runs inside a mosaicd request: a cold fit runs the battery fan-out
/// (`parallel.rs`) and the sampling gate (`sampled.rs`), and `recommend`
/// runs K-fold CV (`cv.rs`).
const REQUEST_PATH: [&str; 3] = [
    "crates/vmcore/src/parallel.rs",
    "crates/harness/src/sampled.rs",
    "crates/mosmodel/src/cv.rs",
];

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn is_codec(path: &str) -> bool {
    CODEC_MODULES.iter().any(|m| path.ends_with(m))
        || file_name(path).contains("persist")
        || file_name(path).contains("codec")
}

/// Where the serving plane's locks live: everything under `service` and
/// `obs`, plus `vmcore`'s `parallel.rs`, home of the singleflight memo
/// that the registry and the grid keep their entries in. The one lock
/// outside it, the preload allocator's runtime, never meets a request.
fn in_lock_scope(path: &str) -> bool {
    path.contains("crates/service/src/")
        || path.contains("crates/obs/src/")
        || path.ends_with("crates/vmcore/src/parallel.rs")
}

/// Integer math that request handling or a codec depends on: all of
/// `service` (including `metrics.rs`, home of the percentile-rank
/// overflow), `obs` and `recommend`, the [`REQUEST_PATH`] modules, and
/// every on-disk codec.
fn in_arith_scope(path: &str) -> bool {
    ["service", "obs", "recommend"]
        .iter()
        .any(|c| path.contains(&format!("crates/{c}/src/")))
        || REQUEST_PATH.iter().any(|m| path.ends_with(m))
        || is_codec(path)
}

/// Any file a rule above scans (codecs are in the arith scope).
fn in_any_scope(path: &str) -> bool {
    in_lock_scope(path) || in_arith_scope(path)
}

/// Runs every applicable rule over `view`, honors suppressions, and
/// appends suppression-misuse diagnostics.
pub fn check_file(view: &FileView<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if is_codec(&view.path) {
        bit_exactness(view, &mut diags);
        version_header(view, &mut diags);
    }
    if in_lock_scope(&view.path) {
        lock_discipline(view, &mut diags);
    }
    if in_arith_scope(&view.path) {
        arith_safety(view, &mut diags);
    }
    if in_any_scope(&view.path) {
        block_structure(view, &mut diags);
    }
    diags.retain(|d| !view.is_suppressed(d));
    diags.extend(view.suppression_errors.iter().cloned());
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    // A single string literal can repeat the same lossy spec; one
    // location gets one report.
    diags.dedup();
    diags
}

/// Keywords that can directly precede `*`, `+` or `as` without being
/// an operand (`&mut *guard`, `return *p`, `if *flag`).
const NON_OPERAND_KEYWORDS: [&str; 14] = [
    "mut", "let", "ref", "in", "return", "match", "if", "else", "move", "as", "break", "box",
    "dyn", "const",
];

/// The blessed bit-exact float codecs (hex-bit and shortest-roundtrip).
const FLOAT_CODECS: [&str; 6] = [
    "to_bits",
    "from_bits",
    "f64_hex",
    "parse_f64_hex",
    "fmt_f64_shortest",
    "parse_f64_shortest",
];

/// Rule 1 — lossy floats in on-disk codecs. The model store and grid
/// cache only reproduce in-memory predictions bit-for-bit if every
/// `f64` round-trips exactly; a `{:.3}`-style rendering quietly
/// truncates coefficients.
fn bit_exactness(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "bit-exactness";
    let mut mentions_float = None;
    let mut has_codec = false;
    for &idx in &view.code {
        let t = &view.tokens[idx];
        match t.kind {
            TokenKind::Ident if t.text == "f64" || t.text == "f32" => {
                mentions_float.get_or_insert(idx);
            }
            TokenKind::Ident if FLOAT_CODECS.contains(&t.text) => has_codec = true,
            TokenKind::Str => {
                for spec in lossy_specs(t.text) {
                    out.push(view.diag_at(
                        RULE,
                        idx,
                        format!(
                            "lossy float format `{{:{spec}}}` in an on-disk codec; persist \
                             floats with the hex-bit codec (`to_bits`) or the \
                             shortest-roundtrip codec (`fmt_f64_shortest`)"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    if let Some(idx) = mentions_float {
        if !has_codec {
            out.push(
                view.diag_at(
                    RULE,
                    idx,
                    "codec module handles floating-point values but references no bit-exact \
                 codec (`to_bits`/`from_bits` or `fmt_f64_shortest`/`parse_f64_shortest`)"
                        .to_string(),
                ),
            );
        }
    }
}

/// Extracts the lossy format specs (`e`/`E` exponent or `.` precision)
/// from a format-string literal's placeholders.
fn lossy_specs(literal: &str) -> Vec<String> {
    let mut found = Vec::new();
    let chars: Vec<char> = literal.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2; // escaped `{{`
                continue;
            }
            let close = (i + 1..chars.len()).find(|&j| chars[j] == '}');
            if let Some(close) = close {
                let inner: String = chars[i + 1..close].iter().collect();
                if let Some((_, spec)) = inner.split_once(':') {
                    let lossy = spec.contains('.')
                        || spec.ends_with('e')
                        || spec.ends_with('E')
                        || spec == "e"
                        || spec == "E";
                    if lossy {
                        found.push(spec.to_string());
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    found
}

/// Rule 2 — versioned on-disk formats. Every writer/parser must
/// reference a `# mosaic-... vN` header constant so stale files are
/// re-measured instead of mis-parsed (the grid cache and model store
/// both learned this the hard way; see `# mosaic-cache v2`).
fn version_header(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "version-header";
    let mut has_header_literal = false;
    let mut has_version_const = false;
    for &idx in &view.code {
        let t = &view.tokens[idx];
        match t.kind {
            TokenKind::Str if t.text.contains("# mosaic-") => has_header_literal = true,
            TokenKind::Ident if t.text.contains("VERSION") => has_version_const = true,
            _ => {}
        }
    }
    let missing = match (has_header_literal, has_version_const) {
        (true, true) => return,
        (false, true) => "a `\"# mosaic-... v\"` header string",
        (true, false) => "a `*VERSION` constant",
        (false, false) => "a `\"# mosaic-... v\"` header string and a `*VERSION` constant",
    };
    let anchor = view.code.first().copied();
    let (line, col) = anchor.map_or((1, 1), |i| (view.tokens[i].line, view.tokens[i].col));
    out.push(Diagnostic {
        rule: RULE,
        path: view.path.clone(),
        line,
        col,
        message: format!(
            "on-disk format module must version its header: missing {missing} \
             (readers must reject versions they were not written for)"
        ),
    });
}

/// Calls that block or burn unbounded CPU while a guard is live:
/// blocking I/O method names (identifiers starting with `fit_` or
/// `simulate_` are matched by prefix instead).
const BLOCKING_CALLS: [&str; 9] = [
    "read_to_string",
    "write_all",
    "read_line",
    "read_exact",
    "fill_buf",
    "flush",
    "accept",
    "connect",
    "sleep",
];

/// One live guard, as approximated from the token stream.
struct Guard<'v> {
    /// The field the lock was taken from (`entries` in
    /// `self.entries.read()`), or `None` when the receiver is not a
    /// plain identifier.
    recv: Option<&'v str>,
    /// Code position of the acquiring method identifier.
    acq: usize,
    /// Exclusive end of the guard's live range.
    end: usize,
}

/// Rule 3 — lock discipline on the serving plane. The head-of-line
/// outage class: a guard held across a model fit serializes every
/// request on that lock. Liveness is approximated by scope nesting: a
/// guard bound by `let` to the acquisition itself lives to the end of
/// its enclosing brace block (or an explicit `drop(guard)`); any other
/// guard is a temporary that lives to the end of its statement. Guards
/// returned by helper functions are invisible — see DESIGN §12 for what
/// this rule cannot see.
fn lock_discipline(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "lock-discipline";
    let n = view.code.len();
    let tok = |p: usize| &view.tokens[view.code[p]];
    let text = |p: usize| view.tokens[view.code[p]].text;
    let is_kind = |p: usize, k: TokenKind| tok(p).kind == k;

    // `<recv>.lock()` / `.read()` / `.write()` with an *empty* argument
    // list — `reader.read(&mut buf)` takes arguments and is I/O, not a
    // guard acquisition.
    let acquisition = |p: usize| -> Option<Option<&str>> {
        if !is_kind(p, TokenKind::Ident) || !matches!(text(p), "lock" | "read" | "write") {
            return None;
        }
        if p < 1 || text(p - 1) != "." {
            return None;
        }
        if p + 2 >= n || text(p + 1) != "(" || text(p + 2) != ")" {
            return None;
        }
        let recv = (p >= 2 && is_kind(p - 2, TokenKind::Ident)).then(|| text(p - 2));
        Some(recv)
    };

    // Does the statement end with the acquisition at `p`, unwrapped at
    // most by `.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)` or `?`?
    // Only then can a `let` hold the guard: in
    // `let v = m.slots.read().get(k).cloned();` it binds a value, and
    // the guard is a temporary that dies at the `;`.
    let yields_guard = |p: usize| -> bool {
        let mut q = p + 3;
        if q < n && text(q) == "?" {
            q += 1;
        } else if q + 2 < n
            && text(q) == "."
            && matches!(text(q + 1), "unwrap" | "expect" | "unwrap_or_else")
            && text(q + 2) == "("
        {
            // Past the paren block opened at `q + 2`.
            let call = view.blocks.enclosing.get(q + 3).copied().flatten();
            q = call.map_or(n, |b| view.blocks.block_end(b, n)) + 1;
        }
        q < n && text(q) == ";"
    };

    // Is the acquisition at `p` bound by a plain `let <name> =` that
    // holds the guard itself? Destructuring patterns
    // (`if let Some(x) = ...`) keep the guard a temporary of the
    // scrutinee.
    let let_binding = |p: usize| -> Option<&str> {
        if !yields_guard(p) {
            return None;
        }
        let lo = p.saturating_sub(64);
        let mut j = p;
        while j > lo {
            j -= 1;
            let t = tok(j);
            if t.kind == TokenKind::Punct && matches!(t.text, ";" | "{" | "}") {
                return None;
            }
            if t.kind == TokenKind::Ident && t.text == "let" {
                let mut k = j + 1;
                if k < n && text(k) == "mut" {
                    k += 1;
                }
                if k + 1 < n && is_kind(k, TokenKind::Ident) && text(k + 1) == "=" {
                    return Some(text(k));
                }
                return None;
            }
        }
        None
    };

    let mut guards: Vec<Guard<'_>> = Vec::new();
    for p in 0..n {
        let Some(recv) = acquisition(p) else { continue };
        let brace_end = view
            .blocks
            .enclosing_brace(p)
            .map_or(n, |b| view.blocks.block_end(b, n));
        let end = match let_binding(p) {
            Some(name) => {
                // Live to the end of the enclosing block, unless
                // explicitly dropped first.
                let dropped = (p + 3..brace_end).find(|&q| {
                    text(q) == "drop"
                        && q + 3 < n
                        && text(q + 1) == "("
                        && text(q + 2) == name
                        && text(q + 3) == ")"
                });
                dropped.unwrap_or(brace_end)
            }
            // A temporary guard dies with its statement (approximated
            // as the next `;`; an `if let` scrutinee's temporary really
            // does live through the consequent block).
            None => (p + 3..brace_end)
                .find(|&q| text(q) == ";")
                .unwrap_or(brace_end),
        };
        guards.push(Guard { recv, acq: p, end });
    }

    let order_of = |recv: Option<&str>| recv.and_then(|r| LOCK_ORDER.iter().position(|&o| o == r));
    for g in &guards {
        let held = g.recv.unwrap_or("_");
        for q in g.acq + 3..g.end {
            if is_kind(q, TokenKind::Ident)
                && q + 1 < n
                && text(q + 1) == "("
                && (q == 0 || text(q - 1) != "fn")
                && (text(q).starts_with("fit_")
                    || text(q).starts_with("simulate_")
                    || BLOCKING_CALLS.contains(&text(q)))
            {
                out.push(view.diag_at(
                    RULE,
                    view.code[q],
                    format!(
                        "`{}()` runs while the `{held}` guard (acquired line {}) is live; \
                         fits, simulations and blocking I/O must not run under a lock — \
                         scope the guard or `drop` it first",
                        text(q),
                        tok(g.acq).line,
                    ),
                ));
            }
            if let Some(other) = acquisition(q) {
                if other.is_some() && other == g.recv {
                    out.push(view.diag_at(
                        RULE,
                        view.code[q],
                        format!(
                            "re-acquiring lock `{held}` while its guard (line {}) is still \
                             live self-deadlocks a std mutex; drop the first guard before \
                             taking the lock again",
                            tok(g.acq).line,
                        ),
                    ));
                } else if let (Some(h), Some(a)) = (order_of(g.recv), order_of(other)) {
                    if a < h {
                        out.push(view.diag_at(
                            RULE,
                            view.code[q],
                            format!(
                                "acquiring lock `{}` while `{held}` (line {}) is held inverts \
                                 the canonical order [{}]; release `{held}` first or reorder \
                                 the acquisitions",
                                other.unwrap_or("_"),
                                tok(g.acq).line,
                                LOCK_ORDER.join(" < "),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Narrowing integer cast targets: casting *to* one of these silently
/// truncates.
const NARROW_INT_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Does this identifier name a counter-, length-, byte- or
/// microsecond-like quantity (the values whose overflow actually
/// corrupts measurements — the PR-3 bug class)?
fn counter_like(name: &str) -> bool {
    name.split('_').any(|w| {
        matches!(
            w,
            "count"
                | "counts"
                | "counter"
                | "counters"
                | "len"
                | "bytes"
                | "us"
                | "micros"
                | "cycles"
                | "total"
                | "totals"
                | "hits"
                | "misses"
                | "depth"
                | "rank"
                | "requests"
                | "drops"
                | "dropped"
                | "seen"
                | "sum"
                | "sums"
        )
    })
}

/// Does the statement around code position `p` widen or check its
/// arithmetic (`u128::from`, `checked_mul`, floats, ...)?
fn stmt_has_arith_escape(view: &FileView<'_>, p: usize) -> bool {
    let n = view.code.len();
    let text = |q: usize| view.tokens[view.code[q]].text;
    let is_boundary = |q: usize| {
        view.tokens[view.code[q]].kind == TokenKind::Punct && { matches!(text(q), ";" | "{" | "}") }
    };
    let escape = |q: usize| {
        let t = text(q);
        matches!(t, "u128" | "i128" | "f64" | "f32" | "from" | "try_from")
            || t.starts_with("checked_")
            || t.starts_with("saturating_")
            || t.starts_with("wrapping_")
    };
    let lo = p.saturating_sub(64);
    let mut j = p;
    while j > lo && !is_boundary(j - 1) {
        j -= 1;
        if escape(j) {
            return true;
        }
    }
    let hi = (p + 64).min(n);
    let mut k = p;
    while k + 1 < hi && !is_boundary(k + 1) {
        k += 1;
        if escape(k) {
            return true;
        }
    }
    false
}

/// Rule 4 — arithmetic safety on the request path and in codecs. The
/// percentile-rank bug class: `total * q` overflowed u64 once the histogram had
/// seen enough samples. Flags narrowing `as` casts and unchecked
/// `*`/`+` where an operand is counter-named, unless the statement
/// widens (`u128::from`) or checks (`checked_`/`saturating_`) the math.
fn arith_safety(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "arith-safety";
    let n = view.code.len();
    let tok = |p: usize| &view.tokens[view.code[p]];
    let text = |p: usize| view.tokens[view.code[p]].text;
    for p in 0..n {
        let t = tok(p);
        // `<expr> as u32` — a silent truncation.
        if t.kind == TokenKind::Ident && t.text == "as" && p > 0 && p + 1 < n {
            let prev = tok(p - 1);
            let casts_value = match prev.kind {
                TokenKind::Ident => !NON_OPERAND_KEYWORDS.contains(&prev.text),
                TokenKind::Number => true,
                TokenKind::Punct => matches!(prev.text, ")" | "]"),
                _ => false,
            };
            if casts_value && NARROW_INT_TARGETS.contains(&text(p + 1)) {
                out.push(view.diag_at(
                    RULE,
                    view.code[p],
                    format!(
                        "`as {}` silently truncates; use `{}::try_from(..)` and handle the \
                         error, or keep the wide type",
                        text(p + 1),
                        text(p + 1),
                    ),
                ));
            }
        }
        // `counter * x` / `x + counter` without widening or checking.
        if t.kind == TokenKind::Punct && matches!(t.text, "*" | "+") && p > 0 && p + 1 < n {
            let prev = tok(p - 1);
            let next = tok(p + 1);
            let binary = matches!(prev.kind, TokenKind::Ident | TokenKind::Number)
                && !NON_OPERAND_KEYWORDS.contains(&prev.text)
                || (prev.kind == TokenKind::Punct && matches!(prev.text, ")" | "]"));
            let has_operand = matches!(next.kind, TokenKind::Ident | TokenKind::Number)
                || (next.kind == TokenKind::Punct && next.text == "(");
            if !(binary && has_operand) {
                continue;
            }
            let named = (prev.kind == TokenKind::Ident && counter_like(prev.text))
                || (next.kind == TokenKind::Ident && counter_like(next.text));
            if named && !stmt_has_arith_escape(view, p) {
                out.push(view.diag_at(
                    RULE,
                    view.code[p],
                    format!(
                        "unchecked `{}` on a counter-like value can overflow (the percentile \
                         rank did, at u64::MAX/100 samples); widen via `u128::from(..)` or use \
                         `checked_{}`/`saturating_{}`",
                        t.text,
                        if t.text == "*" { "mul" } else { "add" },
                        if t.text == "*" { "mul" } else { "add" },
                    ),
                ));
            }
        }
    }
}

/// Rule 6 — unbalanced delimiters in a scoped file. The semantic rules
/// approximate liveness by scope nesting; past an unmatched delimiter
/// that approximation is meaningless, so the imbalance itself is the
/// finding (and arbitrary bytes stay a diagnostic, never a crash).
fn block_structure(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "block-structure";
    for &p in &view.blocks.unbalanced {
        if let Some(&idx) = view.code.get(p) {
            out.push(
                view.diag_at(
                    RULE,
                    idx,
                    "unmatched delimiter: block structure is unresolved from here, so the \
                 semantic rules (lock-discipline, arith-safety, wire-conformance) cannot \
                 see past it"
                        .to_string(),
                ),
            );
        }
    }
}

/// Re-exported so the conformance pass can anchor findings: is `p` the
/// body block of `fn <name>`? Used by [`crate::conformance`].
pub(crate) fn fn_body_named(view: &FileView<'_>, name: &str) -> Option<(usize, usize)> {
    let n = view.code.len();
    for (i, b) in view.blocks.blocks.iter().enumerate() {
        if b.kind != DelimKind::Brace || b.owner != Owner::Fn {
            continue;
        }
        let Some(name_p) = b.owner_name else { continue };
        if view.tokens[view.code[name_p]].text == name {
            return Some((b.open + 1, view.blocks.block_end(i, n)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let view = FileView::new(path, src, &RULE_IDS);
        check_file(&view)
    }

    fn rules_hit(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    /// Counter math that overflows u64: an `arith-safety` finding
    /// wherever that rule is scoped.
    const OVERFLOWING: &str = "fn f(total_count: u64, q: u64) -> u64 { total_count * q }\n";

    #[test]
    fn bit_exactness_needs_a_codec_and_no_lossy_specs() {
        let lossy = "const FORMAT_VERSION: u32 = 1;\nconst MAGIC: &str = \"# mosaic-m v\";\n\
                     fn save(v: f64) -> String { format!(\"{v:.3}\") }\n";
        let hits = run("crates/mosmodel/src/persist.rs", lossy);
        assert_eq!(rules_hit(&hits), vec!["bit-exactness", "bit-exactness"]);
        let exact = "fn save(v: f64) -> String { format!(\"{:016x}\", v.to_bits()) }\n\
                     const V: &str = \"# mosaic-x v1\";\nconst FORMAT_VERSION: u32 = 1;\n";
        assert_eq!(run("crates/mosmodel/src/persist.rs", exact), vec![]);
    }

    #[test]
    fn lossy_spec_extraction() {
        assert_eq!(
            lossy_specs("\"{:.3e} {:e} {} {:016x} {{:.9}} {:?}\""),
            vec![".3e", "e"]
        );
        assert_eq!(lossy_specs("\"{cv:.2}\""), vec![".2"]);
        assert_eq!(lossy_specs("\"plain {} and {:>8}\""), Vec::<String>::new());
    }

    #[test]
    fn version_header_requires_both_halves() {
        let missing = "fn render(x: u64) -> String { format!(\"{x}\") }\n";
        let hits = run("crates/harness/src/experiment.rs", missing);
        assert_eq!(rules_hit(&hits), vec!["version-header"]);
        let versioned = "const CACHE_VERSION: u32 = 2;\n\
                         fn render(x: u64) -> String { format!(\"# mosaic-cache v{CACHE_VERSION}\\n{x}\") }\n";
        assert_eq!(run("crates/harness/src/experiment.rs", versioned), vec![]);
    }

    #[test]
    fn suppressions_silence_and_misuse_reports() {
        let src = "// audit:allow(arith-safety) callers bound len below 2^16\n\
                   fn a(len: u64) -> u16 { len as u16 }\nfn b(len: u64) -> u16 { len as u16 }\n";
        let hits = run("crates/service/src/metrics.rs", src);
        // Line 2 suppressed, line 3 not.
        assert_eq!(rules_hit(&hits), vec!["arith-safety"]);
        assert_eq!(hits[0].line, 3);

        // A reasonless suppression is itself an error AND does not
        // silence anything.
        let bad = "// audit:allow(arith-safety)\nfn a(len: u64) -> u16 { len as u16 }\n";
        let hits = run("crates/service/src/metrics.rs", bad);
        assert_eq!(rules_hit(&hits), vec!["suppression", "arith-safety"]);
    }

    #[test]
    fn obs_crate_is_in_lock_and_arith_scope() {
        // The tracer and the metrics registers run inside every mosaicd
        // request, so a guard held across blocking I/O there stalls
        // every request...
        let locked = "fn f(r: &Ring) {\n    let ring = r.inner.lock();\n    flush(ring.len())\n}\n";
        assert_eq!(
            rules_hit(&run("crates/obs/src/lib.rs", locked)),
            vec!["lock-discipline"]
        );
        // ...and their counter math must not overflow.
        assert_eq!(
            rules_hit(&run("crates/obs/src/lib.rs", OVERFLOWING)),
            vec!["arith-safety"]
        );
        // Neither rule leaks to an out-of-scope crate.
        assert_eq!(run("crates/layouts/src/lib.rs", locked), vec![]);
        assert_eq!(run("crates/layouts/src/lib.rs", OVERFLOWING), vec![]);
    }

    #[test]
    fn battery_fan_out_is_in_arith_scope() {
        // Cold fits and `recommend` run the fan-out and K-fold CV on
        // mosaicd worker threads, so their counter math is request math.
        for path in ["crates/vmcore/src/parallel.rs", "crates/mosmodel/src/cv.rs"] {
            assert_eq!(
                rules_hit(&run(path, OVERFLOWING)),
                vec!["arith-safety"],
                "{path}"
            );
        }
        // The scope does not leak to the rest of vmcore, mosmodel or the
        // harness.
        assert_eq!(run("crates/vmcore/src/layout.rs", OVERFLOWING), vec![]);
        assert_eq!(run("crates/mosmodel/src/lasso.rs", OVERFLOWING), vec![]);
        assert_eq!(run("crates/harness/src/report.rs", OVERFLOWING), vec![]);
    }

    #[test]
    fn singleflight_memo_is_in_lock_scope() {
        // The registry and the grid keep their entries in the memo, so
        // a guard held across a run there serializes every request.
        let locked = "fn f(m: &M) -> u64 {\n    let slots = m.slots.write();\n    \
                      fit_all(slots.len())\n}\n";
        assert_eq!(
            rules_hit(&run("crates/vmcore/src/parallel.rs", locked)),
            vec!["lock-discipline"]
        );
        assert_eq!(run("crates/vmcore/src/layout.rs", locked), vec![]);
    }

    #[test]
    fn a_guard_used_inside_its_initializer_dies_at_the_semicolon() {
        // Only the cloned value is bound; the guard is a temporary of
        // the statement, so the fit below runs with no lock held.
        let temp = "fn f(m: &M, k: u64) -> u64 {\n    \
                    let v = m.slots.read().get(k).cloned();\n    fit_all(v)\n}\n";
        assert_eq!(run("crates/vmcore/src/parallel.rs", temp), vec![]);
        // Binding the guard itself, bare or unwrapped, keeps it live.
        for init in [
            "m.slots.read()",
            "m.slots.read().unwrap()",
            "m.slots.read().expect(\"poisoned\")",
            "m.slots.read().unwrap_or_else(PoisonError::into_inner)",
            "m.slots.read()?",
        ] {
            let held = format!(
                "fn f(m: &M) -> u64 {{\n    let slots = {init};\n    fit_all(slots.len())\n}}\n"
            );
            assert_eq!(
                rules_hit(&run("crates/vmcore/src/parallel.rs", &held)),
                vec!["lock-discipline"],
                "{init}"
            );
        }
    }

    #[test]
    fn sampling_gate_is_in_arith_scope() {
        // A sampled grid evaluates the gate during any cold battery
        // build a warm/predict request triggers, and its verdict is
        // persisted in the grid cache's header.
        assert_eq!(
            rules_hit(&run("crates/harness/src/sampled.rs", OVERFLOWING)),
            vec!["arith-safety"]
        );
    }

    #[test]
    fn recommend_crate_is_in_arith_scope() {
        // The engine runs inside the `recommend` verb's worker thread.
        for path in [
            "crates/recommend/src/explore.rs",
            "crates/recommend/src/engine.rs",
        ] {
            assert_eq!(
                rules_hit(&run(path, OVERFLOWING)),
                vec!["arith-safety"],
                "{path}"
            );
        }
    }

    #[test]
    fn tracer_and_exposition_modules_are_on_the_request_path() {
        for path in [
            "crates/service/src/trace.rs",
            "crates/service/src/prom.rs",
            "crates/service/src/metrics.rs",
        ] {
            assert_eq!(
                rules_hit(&run(path, OVERFLOWING)),
                vec!["arith-safety"],
                "{path}"
            );
        }
        // The wall-clock domain legitimately reads `Instant::now()`
        // there; the clock ban is clippy's, waived at each such site.
        let clocky = "fn stamp() -> Instant { Instant::now() }\n";
        assert_eq!(run("crates/service/src/trace.rs", clocky), vec![]);
    }

    #[test]
    fn test_code_is_exempt_everywhere() {
        let body = "fn helper(m: &M, len: u64) -> u32 {\n    \
                    let g = m.inner.lock();\n    fit_all(g);\n    len as u32\n}\n";
        let src = format!("fn real() {{}}\n#[cfg(test)]\nmod tests {{\n{body}}}\n");
        for path in ["crates/obs/src/lib.rs", "crates/service/src/server.rs"] {
            assert_eq!(run(path, &src), vec![], "{path}");
            // The same helper outside the test module is a finding.
            assert_eq!(
                rules_hit(&run(path, body)),
                vec!["lock-discipline", "arith-safety"],
                "{path}"
            );
        }
    }
}
