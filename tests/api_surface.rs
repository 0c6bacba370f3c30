//! API-surface snapshot for the session and service facades.
//!
//! The unified [`m2m_core::session`] entry points and the multi-tenant
//! [`m2m_core::service`] registry are the crate's outward contract;
//! callers build against them, so removing or reshaping an entry point
//! must be deliberate. This pins every `pub`
//! item signature in those two modules against a committed snapshot so
//! any addition, removal, or signature change shows up as a reviewable
//! diff instead of slipping into a release.
//!
//! Regenerate after an intentional surface change with:
//! `UPDATE_GOLDEN=1 cargo test -p m2m-core --test api_surface`

use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the snapshot lives in the
    // workspace-level tests/ directory next to this file.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/api_surface.txt")
}

fn source_path(module: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("src/{module}.rs"))
}

/// Extracts the declaration line of every `pub` item (functions, types,
/// enums, structs, consts, variants excluded) outside `#[cfg(test)]`
/// modules, normalized to single-space tokens. Multi-line signatures are
/// folded up to the opening brace/semicolon so only real signature
/// changes move the snapshot.
fn surface_of(module: &str) -> Vec<String> {
    let path = source_path(module);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut items = Vec::new();
    let mut lines = text.lines().peekable();
    let mut deprecated = false;
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break; // the test module is always last in these files
        }
        if trimmed.starts_with("#[") {
            // Fold a multi-line attribute to its closing bracket so its
            // arguments don't read as a surface-resetting item line.
            let mut attr = trimmed.to_string();
            let balance = |s: &str| {
                s.chars().fold(0i32, |n, c| match c {
                    '[' => n + 1,
                    ']' => n - 1,
                    _ => n,
                })
            };
            let mut depth = balance(&attr);
            while depth > 0 {
                let Some(next) = lines.next() else { break };
                attr.push(' ');
                attr.push_str(next.trim());
                depth += balance(next);
            }
            if attr.starts_with("#[deprecated") {
                deprecated = true;
            }
            continue;
        }
        let is_item = trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub struct ")
            || trimmed.starts_with("pub enum ")
            || trimmed.starts_with("pub const ")
            || trimmed.starts_with("pub type ")
            || trimmed.starts_with("pub trait ");
        if !is_item {
            if !trimmed.starts_with('#') && !trimmed.is_empty() && !trimmed.starts_with("//") {
                deprecated = false;
            }
            continue;
        }
        // Fold the signature until its body opens or the item ends.
        let mut sig = trimmed.to_string();
        while !sig.contains('{') && !sig.ends_with(';') {
            let Some(next) = lines.next() else { break };
            sig.push(' ');
            sig.push_str(next.trim());
        }
        let cut = sig.find('{').map_or(sig.len(), |i| i);
        let mut decl = sig[..cut].trim_end().trim_end_matches(';').to_string();
        decl = decl.split_whitespace().collect::<Vec<_>>().join(" ");
        if deprecated {
            decl = format!("[deprecated] {decl}");
            deprecated = false;
        }
        items.push(format!("{module}: {decl}"));
    }
    items
}

#[test]
fn public_surface_matches_the_committed_snapshot() {
    let mut surface = Vec::new();
    for module in ["session", "service"] {
        surface.extend(surface_of(module));
    }
    let rendered = surface.join("\n") + "\n";

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write api snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "the public API surface of session/service drifted from \
         tests/golden/api_surface.txt (bless intentional changes with \
         UPDATE_GOLDEN=1)"
    );
}
