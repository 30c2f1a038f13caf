//! Workspace traversal: find the `.rs` sources the audit governs, lex
//! each exactly once, and run the per-file rules plus the cross-file
//! wire-conformance pass over the shared [`FileView`]s.
//!
//! The walk is deterministic (paths sorted at every level, so findings
//! never come out in random order) and
//! skips build output (`target/`), the offline dependency stand-ins
//! (`vendor/` mirrors external crates we do not own), version-control
//! internals, and the audit crate's own fixture tree (those files are
//! *deliberately* full of violations).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::conformance::check_conformance;
use crate::diag::Diagnostic;
use crate::rules::{check_file, RULE_IDS};
use crate::source::FileView;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Path suffixes (workspace-relative) never descended into.
const SKIP_SUFFIXES: [&str; 1] = ["crates/audit/tests/fixtures"];

/// The outcome of one full audit: the findings plus the bookkeeping the
/// `--summary` footer and the suppression-budget gate need.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All findings, sorted by `(path, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files the audit examined.
    pub files_scanned: usize,
    /// Honored `audit:allow` waivers per rule id, across every scanned
    /// file (a comment allowing two rules counts once for each).
    pub suppressions: BTreeMap<String, usize>,
}

/// Audits one file's text as if it lived at `rel_path` (workspace
/// relative, `/`-separated). Runs the per-file rules only — the
/// cross-file wire-conformance pass needs a whole workspace, so it
/// lives in [`audit_files`]. The fixture tests call this directly.
pub fn audit_file(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let view = FileView::new(rel_path, text, &RULE_IDS);
    check_file(&view)
}

/// Audits a set of `(rel_path, text)` sources as one workspace: each
/// file is lexed and block-parsed exactly once into a [`FileView`], the
/// per-file rules and the cross-file wire-conformance pass all share
/// those views, and `readme` (the workspace `README.md`, when present)
/// feeds the conformance matrix's docs column. Diagnostics come back
/// sorted by `(path, line, col, rule)`.
pub fn audit_files(files: &[(String, String)], readme: Option<&str>) -> AuditReport {
    let views: Vec<FileView<'_>> = files
        .iter()
        .map(|(path, text)| FileView::new(path, text, &RULE_IDS))
        .collect();
    let mut diags = Vec::new();
    let mut suppressions: BTreeMap<String, usize> = BTreeMap::new();
    for view in &views {
        diags.extend(check_file(view));
        for s in &view.suppressions {
            for rule in &s.rules {
                *suppressions.entry(rule.clone()).or_insert(0) += 1;
            }
        }
    }
    diags.extend(check_conformance(&views, readme));
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    diags.dedup();
    AuditReport {
        diagnostics: diags,
        files_scanned: views.len(),
        suppressions,
    }
}

/// Walks the workspace under `root` and audits every governed source
/// (plus `root/README.md` for the wire-conformance docs column).
///
/// # Errors
///
/// Propagates directory-read failures on the root itself; unreadable
/// files below it are skipped (the audit must not be DoS-able by a
/// dangling symlink).
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut paths = Vec::new();
    collect_sources(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let Ok(text) = fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel_str, text));
    }
    let readme = fs::read_to_string(root.join("README.md")).ok();
    Ok(audit_files(&files, readme.as_deref()))
}

fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name.as_str())
                || SKIP_SUFFIXES.iter().any(|s| rel_str.ends_with(s))
            {
                continue;
            }
            // Unreadable subdirectories are skipped, not fatal.
            let _ = collect_sources(root, &path, out);
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_invocations;

    #[test]
    fn skips_vendor_target_and_fixtures() {
        let dir = std::env::temp_dir().join(format!("mosaic-audit-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for sub in [
            "crates/service/src",
            "vendor/rand/src",
            "target/debug",
            "crates/audit/tests/fixtures/bad",
        ] {
            fs::create_dir_all(dir.join(sub)).unwrap();
        }
        let bad = "fn f(len: u64) -> u32 { len as u32 }\n";
        fs::write(dir.join("crates/service/src/lib.rs"), bad).unwrap();
        fs::write(dir.join("vendor/rand/src/lib.rs"), bad).unwrap();
        fs::write(dir.join("target/debug/gen.rs"), bad).unwrap();
        fs::write(dir.join("crates/audit/tests/fixtures/bad/x.rs"), bad).unwrap();

        let report = audit_workspace(&dir).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].path, "crates/service/src/lib.rs");
        assert_eq!(report.files_scanned, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_file_is_lexed_exactly_once_per_audit() {
        // A workspace whose files all participate in the cross-file
        // wire-conformance pass — if that pass re-read or re-lexed
        // anything, the invocation count would exceed the file count.
        let files: Vec<(String, String)> = [
            (
                "crates/service/src/protocol.rs",
                "pub fn parse_request(l: &str) -> u32 {\n\
                     match l.split(' ').next() { Some(\"predict\") => 1, _ => 0 }\n\
                 }\n",
            ),
            (
                "crates/service/src/server.rs",
                "fn dispatch(v: &str) -> bool { v == \"predict\" }\n",
            ),
            (
                "crates/service/src/client.rs",
                "impl Client { fn predict(&self) {} }\n",
            ),
            ("src/main.rs", "fn main() { run(\"predict\"); }\n"),
        ]
        .into_iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();

        let before = lex_invocations();
        let report = audit_files(&files, Some("mosaicd speaks `predict` over TCP"));
        let lexed = lex_invocations() - before;
        assert_eq!(
            lexed,
            files.len() as u64,
            "one lex per file, shared by all rules"
        );
        assert_eq!(report.diagnostics, vec![], "workspace should be clean");
        assert_eq!(report.files_scanned, files.len());
    }

    #[test]
    fn report_counts_honored_suppressions_per_rule() {
        let files = vec![
            (
                "crates/service/src/registry.rs".to_string(),
                "fn warm(r: &Registry) {\n    let entries = r.entries.write();\n    \
                 // audit:allow(lock-discipline) startup-only warm path, no requests yet\n    \
                 fit_all(entries);\n}\n"
                    .to_string(),
            ),
            (
                "crates/service/src/cache.rs".to_string(),
                "// audit:allow(lock-discipline, arith-safety) cold-path stats, bounded inputs\n\
                 fn touch() {}\n"
                    .to_string(),
            ),
        ];
        let report = audit_files(&files, None);
        assert_eq!(report.diagnostics, vec![], "{:?}", report.diagnostics);
        assert_eq!(report.suppressions.get("lock-discipline"), Some(&2));
        assert_eq!(report.suppressions.get("arith-safety"), Some(&1));
    }
}
