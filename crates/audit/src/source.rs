//! Per-file analysis context: the token stream, a mask of test-only
//! code, and parsed `audit:allow` suppressions.
//!
//! Rules run over *production* tokens only: anything under a `#[test]`
//! or `#[cfg(test)]` attribute (including `mod tests { ... }`) is
//! masked out, because the invariants the audit enforces are about
//! shipped simulation and persistence code, not about assertions inside
//! tests.

use crate::block::BlockTree;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};

/// An `// audit:allow(<rule>[, <rule>]) <reason>` comment.
///
/// A suppression silences matching diagnostics on its own line and on
/// the immediately following line; the reason string is mandatory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// The rule ids being allowed.
    pub rules: Vec<String>,
    /// Line the comment starts on.
    pub line: usize,
}

/// Everything the rules need to know about one source file.
pub struct FileView<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The full token stream.
    pub tokens: Vec<Token<'a>>,
    /// `is_test[i]` — token `i` belongs to a `#[test]`/`#[cfg(test)]`
    /// item.
    pub is_test: Vec<bool>,
    /// Indices into `tokens` of production code (non-comment, non-test).
    pub code: Vec<usize>,
    /// Well-formed suppressions found in production comments.
    pub suppressions: Vec<Suppression>,
    /// Diagnostics for malformed suppressions (missing reason, unknown
    /// rule id). These are not themselves suppressible.
    pub suppression_errors: Vec<Diagnostic>,
    /// Block structure over `code` (shared by every semantic rule; the
    /// file is lexed and parsed exactly once).
    pub blocks: BlockTree,
}

impl<'a> FileView<'a> {
    /// Lexes `text` and computes the masks. `known_rules` validates
    /// `audit:allow` targets.
    pub fn new(path: &str, text: &'a str, known_rules: &[&str]) -> Self {
        let tokens = lex(text);
        let is_test = test_mask(&tokens);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !is_test[*i] && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            })
            .map(|(i, _)| i)
            .collect();
        let blocks = BlockTree::build(&tokens, &code);
        let mut view = FileView {
            path: path.replace('\\', "/"),
            tokens,
            is_test,
            code,
            suppressions: Vec::new(),
            suppression_errors: Vec::new(),
            blocks,
        };
        view.collect_suppressions(known_rules);
        view
    }

    /// Is `diag` silenced by a suppression (same line or the line
    /// before)?
    pub fn is_suppressed(&self, diag: &Diagnostic) -> bool {
        self.suppressions.iter().any(|s| {
            (s.line == diag.line || s.line + 1 == diag.line)
                && s.rules.iter().any(|r| r == diag.rule)
        })
    }

    /// Emits a diagnostic of `rule` anchored at token `idx`.
    pub fn diag_at(&self, rule: &'static str, idx: usize, message: String) -> Diagnostic {
        let t = &self.tokens[idx];
        Diagnostic {
            rule,
            path: self.path.clone(),
            line: t.line,
            col: t.col,
            message,
        }
    }

    fn collect_suppressions(&mut self, known_rules: &[&str]) {
        let mut suppressions = Vec::new();
        let mut errors = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if self.is_test[i]
                || !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            {
                continue;
            }
            // A suppression must be a plain comment whose body *starts*
            // with the directive. Doc comments (`///`, `//!`) merely
            // document the syntax and are never suppressions.
            let body = match t.kind {
                TokenKind::LineComment => {
                    let body = t.text.trim_start_matches('/');
                    if t.text.starts_with("///") || t.text.starts_with("//!") {
                        continue;
                    }
                    body
                }
                _ => {
                    if t.text.starts_with("/**") || t.text.starts_with("/*!") {
                        continue;
                    }
                    t.text.trim_start_matches('/').trim_start_matches('*')
                }
            };
            let body = body.trim_start();
            if !body.starts_with("audit:allow") {
                continue;
            }
            let pos = t.text.find("audit:allow").unwrap_or(0);
            let mut bad = |message: String| {
                errors.push(Diagnostic {
                    rule: "suppression",
                    path: self.path.clone(),
                    line: t.line,
                    col: t.col,
                    message,
                });
            };
            let after = &t.text[pos + "audit:allow".len()..];
            let Some(args) = after.strip_prefix('(') else {
                bad("malformed suppression: expected `audit:allow(<rule>) <reason>`".to_string());
                continue;
            };
            let Some(close) = args.find(')') else {
                bad("malformed suppression: missing `)`".to_string());
                continue;
            };
            let mut reason = args[close + 1..].trim();
            if t.kind == TokenKind::BlockComment {
                reason = reason.trim_end_matches("*/").trim();
            }
            let rules: Vec<String> = args[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                bad("suppression names no rule: `audit:allow(<rule>) <reason>`".to_string());
                continue;
            }
            let mut ok = true;
            for r in &rules {
                if !known_rules.contains(&r.as_str()) {
                    bad(format!(
                        "suppression names unknown rule {r:?} (known: {})",
                        known_rules.join(", ")
                    ));
                    ok = false;
                }
            }
            if reason.is_empty() {
                bad(format!(
                    "suppression of `{}` has no justification; write \
                     `audit:allow({}) <why this is sound>`",
                    rules.join(", "),
                    rules.join(", ")
                ));
                ok = false;
            }
            if ok {
                suppressions.push(Suppression {
                    rules,
                    line: t.line,
                });
            }
        }
        self.suppressions = suppressions;
        self.suppression_errors = errors;
    }
}

/// Marks every token belonging to an item annotated `#[test]` or
/// `#[cfg(test)]` (or any attribute mentioning `test`, except
/// `cfg_attr` which typically *excludes* tests, e.g.
/// `#[cfg_attr(not(test), ...)]`).
fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let is_comment = |t: &Token| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment);
    let next_code = |mut i: usize| {
        while i < tokens.len() && is_comment(&tokens[i]) {
            i += 1;
        }
        i
    };

    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens[i].kind != TokenKind::Punct {
            i += 1;
            continue;
        }
        let open = next_code(i + 1);
        // `#![...]` inner attributes configure the enclosing module, not
        // a following item — never a test marker.
        if open >= tokens.len() || tokens[open].text != "[" {
            i += 1;
            continue;
        }
        let (close, attr_is_test) = scan_attribute(tokens, open);
        if !attr_is_test {
            i = close + 1;
            continue;
        }
        // Swallow any further attributes between this one and the item.
        let mut k = next_code(close + 1);
        while k < tokens.len() && tokens[k].text == "#" {
            let o = next_code(k + 1);
            if o >= tokens.len() || tokens[o].text != "[" {
                break;
            }
            let (c, _) = scan_attribute(tokens, o);
            k = next_code(c + 1);
        }
        let end = scan_item_end(tokens, k);
        for flag in mask.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    mask
}

/// From the `[` at `open`, returns (index of the matching `]`, does the
/// attribute mark test code).
fn scan_attribute(tokens: &[Token<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_cfg_attr = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        match (t.kind, t.text) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            (TokenKind::Ident, "test") => saw_test = true,
            (TokenKind::Ident, "cfg_attr") => saw_cfg_attr = true,
            _ => {}
        }
        j += 1;
    }
    (j.min(tokens.len() - 1), saw_test && !saw_cfg_attr)
}

/// Finds the last token of the item starting at `start`: the first `;`
/// at bracket depth zero, or the `}` closing the item's first brace
/// block.
fn scan_item_end(tokens: &[Token<'_>], start: usize) -> usize {
    let mut depth = 0i64;
    let mut entered_brace = false;
    let mut m = start;
    while m < tokens.len() {
        let t = &tokens[m];
        if t.kind == TokenKind::Punct {
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    depth += 1;
                    entered_brace = true;
                }
                "}" => {
                    depth -= 1;
                    if entered_brace && depth <= 0 {
                        return m;
                    }
                }
                ";" if depth == 0 && !entered_brace => return m,
                _ => {}
            }
        }
        m += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: [&str; 2] = ["lock-discipline", "arith-safety"];

    fn view<'a>(text: &'a str) -> FileView<'a> {
        FileView::new("crates/x/src/lib.rs", text, &RULES)
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use super::*;\n    \
                   fn helper() { x.unwrap(); }\n}\nfn after() {}\n";
        let v = view(src);
        let masked: Vec<&str> = v
            .tokens
            .iter()
            .zip(&v.is_test)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text)
            .collect();
        assert!(masked.contains(&"unwrap"));
        assert!(masked.contains(&"tests"));
        assert!(!masked.contains(&"HashMap"));
        assert!(!masked.contains(&"after"));
    }

    #[test]
    fn test_fns_and_stacked_attributes_are_masked() {
        let src = "#[test]\n#[ignore = \"slow\"]\nfn t() { a.unwrap() }\nfn keep() {}\n";
        let v = view(src);
        let kept: Vec<&str> = v.code.iter().map(|&i| v.tokens[i].text).collect();
        assert!(!kept.contains(&"unwrap"));
        assert!(kept.contains(&"keep"));
    }

    #[test]
    fn cfg_attr_not_test_is_not_masked() {
        let src = "#[cfg_attr(not(test), deny(clippy::unwrap_used))]\nfn real() { go() }\n";
        let v = view(src);
        let kept: Vec<&str> = v.code.iter().map(|&i| v.tokens[i].text).collect();
        assert!(kept.contains(&"real"));
        assert!(kept.contains(&"go"));
    }

    #[test]
    fn inner_attributes_mask_nothing() {
        let src = "#![cfg(test)]\nfn real() {}\n";
        let v = view(src);
        let kept: Vec<&str> = v.code.iter().map(|&i| v.tokens[i].text).collect();
        assert!(kept.contains(&"real"));
    }

    #[test]
    fn suppressions_parse_and_match_next_line() {
        let src = "// audit:allow(lock-discipline) startup only\nlet m = fit_all(guard);\n";
        let v = view(src);
        assert_eq!(v.suppression_errors, vec![]);
        assert_eq!(v.suppressions.len(), 1);
        let d = Diagnostic {
            rule: "lock-discipline",
            path: v.path.clone(),
            line: 2,
            col: 9,
            message: String::new(),
        };
        assert!(v.is_suppressed(&d));
        let other = Diagnostic {
            rule: "arith-safety",
            ..d.clone()
        };
        assert!(!v.is_suppressed(&other));
        let far = Diagnostic { line: 3, ..d };
        assert!(!v.is_suppressed(&far));
    }

    #[test]
    fn reasonless_and_unknown_suppressions_are_rejected() {
        let v = view("// audit:allow(lock-discipline)\n// audit:allow(frobnicate) because\n");
        assert_eq!(v.suppressions, vec![]);
        assert_eq!(v.suppression_errors.len(), 2);
        assert!(v.suppression_errors[0].message.contains("justification"));
        assert!(v.suppression_errors[1].message.contains("unknown rule"));
    }

    #[test]
    fn block_comment_suppression_strips_trailing_delimiter() {
        let v = view("/* audit:allow(arith-safety) both factors are below 2^16 */\n");
        assert_eq!(v.suppression_errors, vec![]);
        assert_eq!(v.suppressions.len(), 1);
    }
}
