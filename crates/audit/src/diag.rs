//! Diagnostics: rustc-style text rendering and hand-rolled (std-only)
//! JSON and SARIF 2.1.0 output modes for machine consumption in CI.

use std::fmt;

/// One finding: a rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (`lock-discipline`, `arith-safety`, ...).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Renders the full report as a JSON document:
/// `{"count": N, "diagnostics": [{"rule": ..., "path": ..., ...}]}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"count\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
            json_string(d.rule),
            json_string(&d.path),
            d.line,
            d.col,
            json_string(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the report as a SARIF 2.1.0 document (one run, tool
/// `mosaic-audit`), the interchange format CI dashboards ingest. The
/// output is deterministic — same diagnostics, byte-identical document —
/// so it can be diffed and archived as a build artifact. `rules` is the
/// full rule table to advertise in `tool.driver.rules` (findings may
/// reference a subset).
pub fn render_sarif(diags: &[Diagnostic], rules: &[&str]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"mosaic-audit\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/mosaic/mosaic\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n            {{\"id\": {}}}", json_string(rule)));
    }
    if !rules.is_empty() {
        out.push_str("\n          ");
    }
    out.push_str("]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": {},\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": {}}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}\n          ]\n        }}",
            json_string(d.rule),
            json_string(&d.message),
            json_string(&d.path),
            d.line,
            d.col,
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_is_rustc_style() {
        let d = Diagnostic {
            rule: "bit-exactness",
            path: "crates/mosmodel/src/persist.rs".into(),
            line: 12,
            col: 9,
            message: "lossy float format `{:.3}` in an on-disk codec".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/mosmodel/src/persist.rs:12:9: error[bit-exactness]: \
             lossy float format `{:.3}` in an on-disk codec"
        );
    }

    #[test]
    fn sarif_is_valid_deterministic_and_complete() {
        let diags = vec![
            Diagnostic {
                rule: "lock-discipline",
                path: "crates/service/src/registry.rs".into(),
                line: 7,
                col: 13,
                message: "guard held across fit".into(),
            },
            Diagnostic {
                rule: "arith-safety",
                path: "crates/service/src/metrics.rs".into(),
                line: 3,
                col: 9,
                message: "unchecked `*` can overflow".into(),
            },
        ];
        let sarif = render_sarif(&diags, &["lock-discipline", "arith-safety"]);
        assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"mosaic-audit\""));
        assert!(sarif.contains("{\"id\": \"lock-discipline\"}"));
        assert!(sarif.contains("\"ruleId\": \"lock-discipline\""));
        assert!(sarif.contains("\"startLine\": 7, \"startColumn\": 13"));
        assert!(sarif.contains("\"uri\": \"crates/service/src/registry.rs\""));
        // Deterministic: a second render is byte-identical.
        assert_eq!(
            sarif,
            render_sarif(&diags, &["lock-discipline", "arith-safety"])
        );
        // Empty report still carries the rule table and an empty results
        // array.
        let empty = render_sarif(&[], &["bit-exactness"]);
        assert!(empty.contains("\"results\": []"));
        assert!(empty.contains("{\"id\": \"bit-exactness\"}"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            rule: "wire-conformance",
            path: "a/b.rs".into(),
            line: 1,
            col: 2,
            message: "say \"no\"\nto panics\t\u{1}".into(),
        }];
        let json = render_json(&diags);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains(r#"say \"no\"\nto panics\t\u0001"#));
        assert!(render_json(&[]).contains("\"count\": 0"));
    }
}
