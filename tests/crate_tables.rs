//! The crate tables in the facade's doc, README.md and DESIGN.md name
//! exactly the workspace's `crates/*` packages: none missing, and none
//! that was deleted or folded into another crate.

use std::collections::BTreeSet;

#[test]
fn crate_tables_name_exactly_the_workspace_crates() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let packages: BTreeSet<String> = std::fs::read_dir(crates)
        .unwrap()
        .filter_map(|dir| std::fs::read_to_string(dir.unwrap().path().join("Cargo.toml")).ok())
        .map(|toml| {
            toml.lines()
                .find_map(|l| l.strip_prefix("name = "))
                .unwrap()
                .trim_matches('"')
                .to_owned()
        })
        .collect();
    assert!(packages.contains("pmemflow-cluster"), "{packages:?}");

    // src/lib.rs: the first cell of each `//! | [`des`] | … |` row.
    let facade = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//! | "));
    let facade = facade
        .map(|row| {
            row.split(" |")
                .next()
                .unwrap()
                .trim_matches(['[', ']', '`'])
        })
        .filter(|name| *name != "crate")
        .map(|name| format!("pmemflow-{name}"));
    // README.md: each `* **`pmemflow-…`**` bullet.
    let readme = include_str!("../README.md")
        .lines()
        .filter_map(|l| l.strip_prefix("* **`"));
    let readme = readme.filter_map(|l| Some(l.split_once("`**")?.0.to_owned()));
    // DESIGN.md: each `  dir/  pmemflow-dir  …` line of the inventory.
    let design = include_str!("../DESIGN.md")
        .split("## 3. Crate inventory")
        .nth(1)
        .unwrap();
    let design = design.split("```").nth(1).unwrap().lines().filter_map(|l| {
        let (dir, rest) = l.strip_prefix("  ")?.split_once('/')?;
        let package = rest.split_whitespace().next()?;
        (package == format!("pmemflow-{dir}")).then(|| package.to_owned())
    });

    for (doc, named) in [
        ("src/lib.rs", facade.collect::<BTreeSet<_>>()),
        ("README.md", readme.collect()),
        ("DESIGN.md", design.collect()),
    ] {
        let missing: Vec<_> = packages.difference(&named).collect();
        let stale: Vec<_> = named.difference(&packages).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "{doc}'s crate table: missing {missing:?}, names no crate {stale:?}"
        );
    }
}
