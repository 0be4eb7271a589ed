//! Tier-1 is plain `cargo test -q` at the root, which runs the root
//! manifest's `default-members`. That list repeats `members`; a crate
//! added to one and not the other would build but drop out of tier-1
//! without a sign. This pins `default-members == members + "."`.

/// The quoted entries of the `key = [ ... ]` array in `manifest`.
fn array(manifest: &str, key: &str) -> Vec<String> {
    let head = format!("\n{key} = [");
    let start = manifest.find(&head).unwrap_or_else(|| panic!("no `{key}` array")) + head.len();
    let body = &manifest[start..start + manifest[start..].find(']').expect("array closes")];
    let mut entries: Vec<String> =
        body.split('"').skip(1).step_by(2).map(str::to_string).collect();
    entries.sort();
    entries
}

#[test]
fn default_members_are_the_root_and_every_member() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("root manifest");
    let mut expected = array(&manifest, "members");
    assert!(!expected.is_empty());
    expected.push(".".to_string());
    expected.sort();
    assert_eq!(array(&manifest, "default-members"), expected);
}
