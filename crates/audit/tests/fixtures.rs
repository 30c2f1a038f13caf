//! Fixture suite: known-bad sources must produce exactly the expected
//! `(path, rule, line)` findings, known-good sources (including every
//! rule's justified `audit:allow` waiver) must audit clean, and the
//! engine must never panic on arbitrary input.
//!
//! The fixture trees mirror real workspace paths (`crates/service/src/…`)
//! because the rules are path-scoped: auditing a fixture under its
//! mirrored relative path exercises the same scope tables production
//! runs use. Each tree also carries a `README.md` and the protocol/
//! server/client/CLI files, so the trees are audited as whole
//! workspaces ([`audit::audit_files`]) and the cross-file
//! wire-conformance matrix runs over them too.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use audit::block::DelimKind;
use audit::source::FileView;
use audit::{audit_file, audit_files, RULE_IDS};
use proptest::prelude::*;

fn fixture_root(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree)
}

/// All `.rs` files under the tree as `(mirrored-relative-path, text)`.
fn fixture_files(tree: &str) -> Vec<(String, String)> {
    let root = fixture_root(tree);
    let mut stack = vec![root.clone()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("fixture tree readable") {
            let path = entry.expect("fixture entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under fixture root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = fs::read_to_string(&path).expect("fixture readable");
                files.push((rel, text));
            }
        }
    }
    files.sort();
    files
}

fn fixture_readme(tree: &str) -> Option<String> {
    fs::read_to_string(fixture_root(tree).join("README.md")).ok()
}

/// Audits the tree as one workspace (per-file rules + wire conformance).
fn findings(tree: &str) -> BTreeSet<(String, &'static str, usize)> {
    let files = fixture_files(tree);
    let readme = fixture_readme(tree);
    audit_files(&files, readme.as_deref())
        .diagnostics
        .into_iter()
        .map(|d| (d.path, d.rule, d.line))
        .collect()
}

#[test]
fn bad_fixtures_produce_exactly_the_expected_findings() {
    let expected: BTreeSet<(String, &'static str, usize)> = [
        // An unterminated block: the semantic rules cannot reason past
        // it, so the imbalance itself is the finding.
        ("crates/service/src/broken.rs", "block-structure", 3),
        // A guard live across a model fit, a lock-order inversion, and a
        // same-lock re-acquisition.
        ("crates/service/src/registry.rs", "lock-discipline", 5),
        ("crates/service/src/registry.rs", "lock-discipline", 6),
        ("crates/service/src/registry.rs", "lock-discipline", 12),
        // Unchecked counter math and truncating casts (two findings on
        // line 6: the `+` and the `as u32`).
        ("crates/service/src/metrics.rs", "arith-safety", 4),
        ("crates/service/src/metrics.rs", "arith-safety", 5),
        ("crates/service/src/metrics.rs", "arith-safety", 6),
        // The `frob` verb parses but shipped nowhere: four missing
        // matrix cells, all anchored at its parser arm.
        ("crates/service/src/protocol.rs", "wire-conformance", 7),
        // Lossy floats in a codec module: the module-level "no bit-exact
        // codec referenced" finding plus the `{v:.6}` format spec.
        ("crates/mosmodel/src/persist.rs", "bit-exactness", 6),
        ("crates/mosmodel/src/persist.rs", "bit-exactness", 7),
        // Unversioned on-disk format.
        ("crates/harness/src/experiment.rs", "version-header", 3),
        // Suppression misuse: no reason, unknown rule — and neither
        // malformed waiver silences its line's real finding.
        ("crates/vmcore/src/parallel.rs", "suppression", 1),
        ("crates/vmcore/src/parallel.rs", "arith-safety", 2),
        ("crates/vmcore/src/parallel.rs", "suppression", 3),
        ("crates/vmcore/src/parallel.rs", "arith-safety", 4),
    ]
    .into_iter()
    .map(|(p, r, l)| (p.to_string(), r, l))
    .collect();

    let got = findings("bad");
    assert_eq!(
        got,
        expected,
        "bad-fixture findings diverged\nmissing: {:?}\nunexpected: {:?}",
        expected.difference(&got).collect::<Vec<_>>(),
        got.difference(&expected).collect::<Vec<_>>(),
    );

    // Every scoped rule is demonstrated by at least one caught violation.
    let rules_caught: BTreeSet<&str> = got.iter().map(|(_, r, _)| *r).collect();
    for rule in RULE_IDS {
        assert!(rules_caught.contains(rule), "no bad fixture catches {rule}");
    }
}

/// The exact workspace-level finding count for the bad tree. CI runs
/// `mosaic audit --root crates/audit/tests/fixtures/bad --deny` and
/// greps the report footer for this number, so the two must move
/// together.
const BAD_TREE_TOTAL: usize = 19;

#[test]
fn bad_tree_workspace_audit_reports_the_pinned_total() {
    let root = fixture_root("bad");
    let report = audit::audit_workspace(&root).expect("bad tree readable");
    assert_eq!(
        report.diagnostics.len(),
        BAD_TREE_TOTAL,
        "bad-tree total drifted (update BAD_TREE_TOTAL and the CI grep): {:#?}",
        report.diagnostics
    );
}

#[test]
fn good_fixtures_audit_clean_and_exercise_every_suppression() {
    let files = fixture_files("good");
    assert!(!files.is_empty(), "good fixture tree is missing");

    for (rel, text) in &files {
        let diags = audit_file(rel, text);
        assert!(
            diags.is_empty(),
            "good fixture {rel} is not clean: {diags:?}"
        );
    }

    // The whole tree is also clean as a workspace — the cross-file
    // wire-conformance pass included (its `selftest` waiver is honored).
    let readme = fixture_readme("good");
    let report = audit_files(&files, readme.as_deref());
    assert_eq!(
        report.diagnostics,
        vec![],
        "good tree is not clean at workspace level"
    );

    // The clean runs above must be *earned*: each scoped rule has a good
    // fixture whose `audit:allow(<rule>)` waiver is what silences it.
    let all_text: String = files.iter().map(|(_, t)| t.as_str()).collect();
    for rule in RULE_IDS {
        assert!(
            all_text.contains(&format!("audit:allow({rule})")),
            "no good fixture demonstrates an honored audit:allow({rule})"
        );
        assert!(
            report.suppressions.get(rule).copied().unwrap_or(0) >= 1,
            "workspace report does not count the {rule} waiver"
        );
    }
}

#[test]
fn stripping_the_waivers_makes_the_good_fixtures_fail() {
    // The good fixtures really do contain violations — removing the
    // justified waivers must resurface each rule's finding, including
    // the cross-file wire-conformance one.
    let stripped: Vec<(String, String)> = fixture_files("good")
        .into_iter()
        .map(|(rel, text)| {
            let text: String = text
                .lines()
                .map(|l| {
                    if l.contains("audit:allow(") {
                        "// waiver removed\n".to_string()
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            (rel, text)
        })
        .collect();
    let readme = fixture_readme("good");
    let resurfaced: BTreeSet<&str> = audit_files(&stripped, readme.as_deref())
        .diagnostics
        .into_iter()
        .map(|d| d.rule)
        .collect();
    for rule in RULE_IDS {
        assert!(
            resurfaced.contains(rule),
            "stripping waivers did not resurface {rule}"
        );
    }
}

/// The acceptance test for wire conformance on the *real* workspace:
/// deleting a `Client::` method (or a CLI arm) for a shipped verb must
/// make the audit fail.
#[test]
fn deleting_a_client_method_or_cli_arm_breaks_real_wire_conformance() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &str| {
        (
            p.to_string(),
            fs::read_to_string(ws.join(p)).unwrap_or_else(|e| panic!("{p}: {e}")),
        )
    };
    let files = vec![
        read("crates/service/src/protocol.rs"),
        read("crates/service/src/server.rs"),
        read("crates/service/src/client.rs"),
        read("src/main.rs"),
    ];
    let readme = fs::read_to_string(ws.join("README.md")).expect("workspace README");

    let wire = |files: &[(String, String)]| -> Vec<String> {
        audit_files(files, Some(&readme))
            .diagnostics
            .into_iter()
            .filter(|d| d.rule == "wire-conformance")
            .map(|d| d.message)
            .collect()
    };

    // The shipped tree conforms.
    assert_eq!(wire(&files), Vec::<String>::new());

    // Excise every `recommend` mention from the client: the verb still
    // parses, so the matrix must report the missing client method.
    let mut no_client = files.clone();
    no_client[2].1 = no_client[2].1.replace("recommend", "redacted");
    let msgs = wire(&no_client);
    assert!(
        msgs.iter()
            .any(|m| m.contains("`recommend`") && m.contains("client")),
        "missing Client::recommend not reported: {msgs:?}"
    );

    // Excise every `warm` mention from the CLI frontend likewise.
    let mut no_cli = files.clone();
    no_cli[3].1 = no_cli[3].1.replace("warm", "w_a_r_m");
    let msgs = wire(&no_cli);
    assert!(
        msgs.iter()
            .any(|m| m.contains("`warm`") && m.contains("main.rs")),
        "missing warm CLI frontend not reported: {msgs:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer accepts arbitrary bytes (lossily decoded, as the
    /// workspace walker does for non-UTF-8 files) without panicking.
    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = audit::lexer::lex(&text);
    }

    /// The full per-file pipeline — lexing, block parsing, test-masking,
    /// suppression parsing, every scoped rule — never panics on
    /// arbitrary input, whatever path scope it lands in.
    #[test]
    fn audit_file_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        which in 0usize..6,
    ) {
        let paths = [
            "crates/memsim/src/tlb.rs",
            "crates/service/src/server.rs",
            "crates/mosmodel/src/persist.rs",
            "crates/harness/src/experiment.rs",
            "crates/recommend/src/engine.rs",
            "crates/elsewhere/src/lib.rs",
        ];
        let text = String::from_utf8_lossy(&bytes);
        let _ = audit_file(paths[which], &text);
    }

    /// The block parser is total on arbitrary bytes, and its tree
    /// round-trips to the original token spans: every block's open (and
    /// close, when matched) points at the right delimiter character,
    /// children nest strictly inside their parents, and unbalanced
    /// input surfaces as a `block-structure` diagnostic — never a crash.
    #[test]
    fn block_tree_round_trips_spans_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let path = "crates/service/src/fuzz.rs";
        let view = FileView::new(path, &text, &RULE_IDS);
        let tree = &view.blocks;
        prop_assert_eq!(tree.enclosing.len(), view.code.len());
        let delims = |k: DelimKind| match k {
            DelimKind::Brace => ("{", "}"),
            DelimKind::Paren => ("(", ")"),
            DelimKind::Bracket => ("[", "]"),
        };
        for (i, b) in tree.blocks.iter().enumerate() {
            let (open, close) = delims(b.kind);
            prop_assert_eq!(view.tokens[view.code[b.open]].text, open);
            if let Some(c) = b.close {
                prop_assert!(c > b.open);
                prop_assert_eq!(view.tokens[view.code[c]].text, close);
            }
            if let Some(p) = b.parent {
                prop_assert!(p < i);
                let parent = &tree.blocks[p];
                prop_assert!(parent.open < b.open);
                if let (Some(pc), Some(bc)) = (parent.close, b.close) {
                    prop_assert!(pc > bc);
                }
            }
        }
        for &u in &tree.unbalanced {
            prop_assert!(u < view.code.len());
        }
        // Unbalanced input in a scoped file is a diagnostic, not a
        // crash (unless the random bytes happened to spell a waiver).
        if !tree.unbalanced.is_empty() && view.suppressions.is_empty() {
            let diags = audit_file(path, &text);
            prop_assert!(diags.iter().any(|d| d.rule == "block-structure"));
        }
    }
}
