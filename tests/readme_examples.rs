//! README's *Examples* table is the reproduction index: it must name
//! exactly the programs in `examples/`.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn readme_examples_table_lists_exactly_the_examples_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let on_disk: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let section = readme
        .split("\n## ")
        .find(|section| section.starts_with("Examples\n"))
        .expect("README has an `## Examples` section");
    // Table rows open with the example's name in backticks.
    let listed: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_owned)
        .collect();

    assert_eq!(listed, on_disk, "README *Examples* (left) vs examples/*.rs");
}
