//! Every module can be read on its own: no `crates/*/src/**/*.rs` file
//! holds more than [`MAX_LINES`] lines before its top-level `#[cfg(test)]`
//! item (the whole file when it has none). A module that outgrows the
//! bound is split along its layers, behind unchanged public paths.

use std::fs;
use std::path::{Path, PathBuf};

/// The most lines a module may hold before its tests.
const MAX_LINES: usize = 1_000;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_module_exceeds_the_line_bound_before_its_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/pins");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.contains(&root.join("crates/pins/src/lib.rs")), "the walk reads crates/*/src");
    files.sort();
    let mut over = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let lines = text.lines().take_while(|line| !line.starts_with("#[cfg(test)]")).count();
        if lines > MAX_LINES {
            let name = file.strip_prefix(root).unwrap_or(file);
            over.push(format!("{}: {lines} lines", name.display()));
        }
    }
    assert!(
        over.is_empty(),
        "modules over {MAX_LINES} lines before their tests:\n{}",
        over.join("\n")
    );
}
