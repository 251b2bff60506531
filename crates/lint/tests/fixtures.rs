//! Fixture tests: each fixture under `tests/fixtures/` is linted under a
//! synthetic workspace path that puts it in scope of one rule, and the test
//! asserts the exact pass/fail outcome — including suppression handling,
//! unused-suppression reporting, and the wire-format version-bump cases.

use stpm_lint::{check_format_lock, extract_wire_constants, lint_source, parse_lock, render_lock};

fn rules_hit(file: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(file, source)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn hot_path_allocation_is_flagged() {
    let source = include_str!("fixtures/fixture_hot_alloc_fail.rs");
    let diags = lint_source("crates/core/src/miner.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "hot-path-alloc");
    assert_eq!(
        diags[0].line, 5,
        "diagnostic should anchor the Vec::new line"
    );
    assert!(
        diags[0].message.contains("Vec::new"),
        "{}",
        diags[0].message
    );
}

#[test]
fn clean_hot_path_with_justified_suppression_passes() {
    let source = include_str!("fixtures/fixture_hot_alloc_pass.rs");
    let diags = lint_source("crates/core/src/support.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hot_path_marker_outside_registered_files_is_rejected() {
    // The rule's scope is a closed list: marking a function hot in a module
    // the rule does not cover is a configuration error, not a no-op.
    let source = include_str!("fixtures/fixture_hot_alloc_pass.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(
        diags.iter().any(|d| d.message.contains("hot-path")),
        "{diags:?}"
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let source = include_str!("fixtures/fixture_unused_suppression.rs");
    let diags = lint_source("crates/core/src/support.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unused-suppression");
}

#[test]
fn suppression_without_justification_is_flagged() {
    let source = "pub fn f() {\n    // lint:allow(hot-path-alloc)\n    let x = 1;\n}\n";
    let diags = lint_source("crates/core/src/support.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "suppression-syntax");
}

#[test]
fn panicking_decode_path_is_flagged() {
    let source = include_str!("fixtures/fixture_panic_decode_fail.rs");
    let rules = rules_hit("crates/core/src/snapshot.rs", source);
    assert_eq!(rules, ["no-panic-decode"]);
    let diags = lint_source("crates/core/src/snapshot.rs", source);
    // Raw indexing (buf[0], buf[1..5]), unwrap and assert! each count.
    assert!(diags.len() >= 3, "{diags:?}");
}

#[test]
fn typed_error_decode_path_passes() {
    let source = include_str!("fixtures/fixture_panic_decode_pass.rs");
    let diags = lint_source("crates/core/src/snapshot.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn decode_rule_only_applies_to_wire_format_modules() {
    // The same panicking source is fine in a module the rule does not
    // scope to (test helpers, miner internals with their own contracts).
    let source = include_str!("fixtures/fixture_panic_decode_fail.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_map_iteration_in_output_module_is_flagged() {
    let source = include_str!("fixtures/fixture_determinism_fail.rs");
    let rules = rules_hit("crates/core/src/report.rs", source);
    assert_eq!(rules, ["determinism"]);
}

#[test]
fn hash_map_iteration_outside_output_modules_passes() {
    let source = include_str!("fixtures/fixture_determinism_fail.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsynced_publish_truncate_and_ack_are_flagged() {
    let source = include_str!("fixtures/fixture_durable_fail.rs");
    let rules = rules_hit("src/lib.rs", source);
    assert_eq!(rules, ["durable-io"]);
    let diags = lint_source("src/lib.rs", source);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags[0].message.contains("rename"), "{}", diags[0].message);
    assert!(diags[1].message.contains("set_len"), "{}", diags[1].message);
    assert!(
        diags[2].message.contains("checkpoint"),
        "{}",
        diags[2].message
    );
}

#[test]
fn synced_publish_with_justified_suppression_passes() {
    let source = include_str!("fixtures/fixture_durable_pass.rs");
    let diags = lint_source("src/lib.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsynced_client_acknowledgment_is_flagged() {
    // Service tier: `.send`/`.respond` is the client-visible ack — firing
    // it while a WAL write is lexically unsynced is the exact bug class
    // the chaos tests hunt (acked-append loss on crash).
    let source = include_str!("fixtures/fixture_durable_service_fail.rs");
    let rules = rules_hit("crates/service/src/tenant.rs", source);
    assert_eq!(rules, ["durable-io"]);
    let diags = lint_source("crates/service/src/tenant.rs", source);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].message.contains("send"), "{}", diags[0].message);
    assert!(diags[1].message.contains("respond"), "{}", diags[1].message);
}

#[test]
fn synced_or_delegated_client_acknowledgment_passes() {
    let source = include_str!("fixtures/fixture_durable_service_pass.rs");
    let diags = lint_source("crates/service/src/service.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn durable_marker_outside_registered_files_is_rejected() {
    // Same closed-list policy as hot-path markers: durability contracts are
    // declared per-module, not sprinkled ad hoc.
    let source = include_str!("fixtures/fixture_durable_pass.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "durable-io" && d.message.contains("DURABLE_FILES")),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------------
// wire-format-freeze: the lock round-trips, and every drift case resolves
// the way the rule promises.
// ---------------------------------------------------------------------------

const FROZEN_V1: &str = r#"
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STPMSNAP";
pub const SNAPSHOT_VERSION: u16 = 1;
const SEC_CONFIG: u8 = 1;
const SEC_STATE: u8 = 3;
"#;

#[test]
fn lock_round_trips_through_render_and_parse() {
    let constants = extract_wire_constants(FROZEN_V1);
    assert_eq!(constants.len(), 4, "{constants:?}");
    let locked = parse_lock(&render_lock(&constants));
    assert_eq!(constants, locked);
    assert!(check_format_lock("snapshot.rs", &constants, &locked).is_empty());
}

#[test]
fn tag_change_without_version_bump_is_an_error() {
    let locked = extract_wire_constants(FROZEN_V1);
    let drifted = FROZEN_V1.replace("SEC_STATE: u8 = 3", "SEC_STATE: u8 = 7");
    let current = extract_wire_constants(&drifted);
    let diags = check_format_lock("snapshot.rs", &current, &locked);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "wire-format-freeze");
    assert!(
        diags[0].message.contains("SNAPSHOT_VERSION"),
        "the error must demand a version bump: {}",
        diags[0].message
    );
}

#[test]
fn tag_change_with_version_bump_demands_a_lock_refresh() {
    let locked = extract_wire_constants(FROZEN_V1);
    let bumped = FROZEN_V1
        .replace("SEC_STATE: u8 = 3", "SEC_STATE: u8 = 7")
        .replace("SNAPSHOT_VERSION: u16 = 1", "SNAPSHOT_VERSION: u16 = 2");
    let current = extract_wire_constants(&bumped);
    let diags = check_format_lock("snapshot.rs", &current, &locked);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("refresh the lock"),
        "{}",
        diags[0].message
    );
}

#[test]
fn version_bump_with_regenerated_lock_passes() {
    let bumped = FROZEN_V1
        .replace("SEC_STATE: u8 = 3", "SEC_STATE: u8 = 7")
        .replace("SNAPSHOT_VERSION: u16 = 1", "SNAPSHOT_VERSION: u16 = 2");
    let current = extract_wire_constants(&bumped);
    let locked = parse_lock(&render_lock(&current));
    assert!(check_format_lock("snapshot.rs", &current, &locked).is_empty());
}

#[test]
fn added_constant_without_version_bump_is_an_error() {
    let locked = extract_wire_constants(FROZEN_V1);
    let grown = format!("{FROZEN_V1}const SEC_EVENTS: u8 = 4;\n");
    let current = extract_wire_constants(&grown);
    let diags = check_format_lock("snapshot.rs", &current, &locked);
    assert!(!diags.is_empty(), "adding a section tag silently must fail");
}

// ---------------------------------------------------------------------------
// The committed workspace itself: clean lint, lock in sync.
// ---------------------------------------------------------------------------

#[test]
fn committed_workspace_is_clean() {
    let root = stpm_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("fixture test runs inside the workspace");
    let diags = stpm_lint::lint_workspace(&root);
    assert!(
        diags.is_empty(),
        "committed sources must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
