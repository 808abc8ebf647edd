//! The public surface is pinned: `scripts/pub_surface.sh` counts the `pub`
//! items of every library crate, and its output must equal the committed
//! `tests/golden/pub_surface.txt`. A change that grows or shrinks a crate's
//! surface re-records the file with `BLESS=1 cargo test`, so the new count
//! is reviewed in `git diff`.

use std::path::Path;
use std::process::Command;

#[test]
fn public_surface_matches_its_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/pins");
    let out = Command::new("bash")
        .arg(root.join("scripts").join("pub_surface.sh"))
        .output()
        .expect("bash runs scripts/pub_surface.sh");
    assert!(out.status.success(), "pub_surface.sh: {}", String::from_utf8_lossy(&out.stderr));
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pub_surface.txt");
    enerj_pins::check(golden, &String::from_utf8_lossy(&out.stdout));
}
