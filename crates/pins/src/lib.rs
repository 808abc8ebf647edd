//! # enerj-pins: the one store of pinned bits
//!
//! A dev-dependency of the crates whose tests pin modeled bits. Every pin
//! is a committed text file: the digest tables and writer goldens under
//! `crates/*/tests/golden/`, and the text captures and reports under
//! `results/`. A test computes its text and hands it to [`check`], which
//! compares it with the committed file. `BLESS=1 cargo test` rewrites each
//! file whose comparison fails, so a deliberate change to the model is
//! re-recorded by one command and reviewed as one `git diff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// FNV-1a, as a [`Hasher`]: `write_u64` folds in one word least significant
/// byte first, `write_u128` its low word then its high word, and `finish`
/// reads the hash. `Digest::default()` starts at the offset basis.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Digest {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.write(&w.to_le_bytes());
    }

    fn write_u128(&mut self, w: u128) {
        self.write(&w.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The committed capture `results/<name>` at the repository root.
pub fn capture(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/pins");
    root.join("results").join(name)
}

/// Requires `actual` to equal the committed file at `path`, byte for byte.
///
/// With `BLESS` set in the environment, a file that differs or is missing
/// is rewritten with `actual` instead of failing the test. A file that
/// matches is never written, so blessing an unchanged tree is a no-op.
pub fn check(path: impl AsRef<Path>, actual: &str) {
    let path = path.as_ref();
    let committed = std::fs::read_to_string(path);
    if committed.as_deref().is_ok_and(|c| c == actual) {
        return;
    }
    if std::env::var_os("BLESS").is_some() {
        let write = std::fs::create_dir_all(path.parent().expect("a file path"))
            .and_then(|()| std::fs::write(path, actual));
        write.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let why = match committed {
        Err(e) => e.to_string(),
        Ok(c) => first_difference(&c, actual),
    };
    panic!(
        "{} differs from the measured text: {why}\nif the change is deliberate, \
         re-record every pin with `BLESS=1 cargo test` and review `git diff`",
        path.display()
    );
}

/// The first line on which `committed` and `actual` differ.
fn first_difference(committed: &str, actual: &str) -> String {
    let (mut c, mut a) = (committed.lines(), actual.lines());
    for n in 1.. {
        match (c.next(), a.next()) {
            (None, None) => break,
            (x, y) if x == y => {}
            (x, y) => {
                let [x, y] = [x, y].map(|l| l.unwrap_or("<end of file>"));
                return format!("line {n}\n  committed: {x}\n  measured:  {y}");
            }
        }
    }
    "the line endings differ".to_owned()
}

/// `report` with every `"wall_seconds"` and `"threads"` value replaced by
/// `_`: the two fields that vary between runs of one command.
pub fn mask(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(at) = rest.find("\":") {
        let (key, tail) = rest.split_at(at + 2);
        out.push_str(key);
        rest = tail;
        if key.ends_with("\"wall_seconds\":") || key.ends_with("\"threads\":") {
            let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
            out.push('_');
            rest = &rest[end..];
        }
    }
    out + rest
}

#[cfg(test)]
mod tests {
    use super::mask;

    #[test]
    fn mask_hides_wall_time_and_threads_only() {
        let report =
            r#"{"threads":12,"wall_seconds":0.250000,"trials":[{"wall_seconds":3}],"runs":3}"#;
        assert_eq!(
            mask(report),
            r#"{"threads":_,"wall_seconds":_,"trials":[{"wall_seconds":_}],"runs":3}"#
        );
    }
}
