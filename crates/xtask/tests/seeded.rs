//! End-to-end demonstration of the acceptance criterion, now running
//! through the `iba-lint` engine that `cargo xtask lint` wraps: the
//! rules pass on the tree as committed and fail when a violation is
//! seeded into real source (an `unwrap()` added to
//! `crates/core/src/table.rs`).

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has two ancestors")
        .to_path_buf()
}

fn rules_of(report: &iba_lint::FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn real_table_rs_is_clean_until_an_unwrap_is_seeded() {
    let rel = "crates/core/src/table.rs";
    let source = std::fs::read_to_string(repo_root().join(rel)).expect("table.rs readable");

    // As committed: no findings.
    let clean = iba_lint::lint_source(rel, &source);
    assert!(
        clean.findings.is_empty(),
        "committed table.rs must lint clean: {:?}",
        clean.findings.first()
    );

    // Seed the violation from the acceptance criterion.
    let seeded = format!("{source}\npub fn seeded(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
    let report = iba_lint::lint_source(rel, &seeded);
    assert_eq!(
        rules_of(&report),
        vec!["no-panic"],
        "the seeded unwrap must be the one finding"
    );
    assert_eq!(report.findings[0].line as usize, seeded.lines().count());
}

#[test]
fn real_crate_roots_carry_forbid_unsafe() {
    let root = repo_root();
    for rel in [
        "crates/core/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/qos/src/lib.rs",
        "crates/verify/src/lib.rs",
        "crates/verify/src/main.rs",
        "crates/lint/src/lib.rs",
        "crates/xtask/src/lib.rs",
        "crates/xtask/src/main.rs",
        "crates/cli/src/main.rs",
    ] {
        assert!(iba_lint::is_crate_root(rel), "{rel} should be a crate root");
        let source = std::fs::read_to_string(root.join(rel)).expect("crate root readable");
        let report = iba_lint::lint_source(rel, &source);
        assert!(
            !rules_of(&report).contains(&"forbid-unsafe"),
            "{rel} lacks #![forbid(unsafe_code)]"
        );
    }
}

#[test]
fn seeded_occupancy_arithmetic_fails_outside_core() {
    let rel = "crates/cli/src/commands.rs";
    let source = std::fs::read_to_string(repo_root().join(rel)).expect("commands.rs readable");
    assert!(iba_lint::lint_source(rel, &source).findings.is_empty());

    let seeded = format!("{source}\nfn bad(t: &T) -> u64 {{ t.occupancy() << 3 }}\n");
    assert!(
        rules_of(&iba_lint::lint_source(rel, &seeded)).contains(&"no-raw-occupancy-arith"),
        "seeded raw occupancy arithmetic must be flagged"
    );
}

#[test]
fn seeded_hashmap_fails_in_qos_but_pragma_clears_it() {
    let rel = "crates/qos/src/cac.rs";
    let source = std::fs::read_to_string(repo_root().join(rel)).expect("cac.rs readable");
    assert!(iba_lint::lint_source(rel, &source).findings.is_empty());

    let seeded = format!("{source}\nuse std::collections::HashMap as SeededMap;\n");
    assert_eq!(
        rules_of(&iba_lint::lint_source(rel, &seeded)),
        vec!["no-unordered-iter"]
    );

    let allowed = format!(
        "{source}\n// lint: allow(no-unordered-iter) -- seeded test pragma\nuse std::collections::HashMap as SeededMap;\n"
    );
    let report = iba_lint::lint_source(rel, &allowed);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn lints_doc_catalog_matches_registry() {
    // The same cross-check `cargo xtask check` runs (lints-doc step),
    // exercised hermetically: every registered rule is documented with
    // its severity, and no ghost rules are documented.
    let doc = std::fs::read_to_string(repo_root().join("LINTS.md")).expect("LINTS.md readable");
    let rows = xtask::extract_table_rows(&doc);
    for rule in iba_lint::RULES {
        let row = rows.iter().find(|(n, _)| n == rule.name);
        let Some((_, rest)) = row else {
            panic!("rule `{}` is not documented in LINTS.md", rule.name);
        };
        assert!(
            rest.contains(rule.severity.name()),
            "LINTS.md row for `{}` must state severity `{}`",
            rule.name,
            rule.severity.name()
        );
    }
    for (name, _) in &rows {
        assert!(
            iba_lint::RULES.iter().any(|r| r.name == name),
            "LINTS.md documents unregistered rule `{name}`"
        );
    }
}
