//! Benchmark metadata and annotation-density measurement (Table 3).
//!
//! The paper reports, for each ported application, the lines of code, the
//! proportion of floating-point operations, the number of declarations, the
//! fraction annotated, and the endorsement count. For this reproduction the
//! numbers describe *our Rust ports*: each application module embeds its own
//! source text with `include_str!` and the counters below measure it —
//! a `let`/field/parameter binding is a declaration; a declaration whose
//! line mentions an `Approx`/`ApproxVec`/`Ctx` type is annotated; each
//! `endorse(`/`endorse_ctx(` call site is an endorsement.

use crate::qos::QosMetric;

/// Static description of one ported application.
#[derive(Debug, Clone)]
pub struct AppMeta {
    /// Benchmark name as it appears in Table 3.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The QoS metric used in Figure 5.
    pub metric: QosMetric,
    /// The module's own source text (for annotation counting).
    pub source: &'static str,
}

/// Annotation-density numbers measured from a port's source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationStats {
    /// Non-blank, non-comment lines of code.
    pub loc: usize,
    /// Declarations: `let` bindings, struct fields and `fn` parameters.
    pub total_decls: usize,
    /// Declarations mentioning an approximate type.
    pub annotated_decls: usize,
    /// `endorse(` / `endorse_ctx(` call sites.
    pub endorsements: usize,
}

impl AnnotationStats {
    /// Percentage of declarations that carry an approximation annotation.
    pub fn annotated_percent(&self) -> f64 {
        if self.total_decls == 0 {
            0.0
        } else {
            100.0 * self.annotated_decls as f64 / self.total_decls as f64
        }
    }
}

impl AppMeta {
    /// Measures annotation density over the embedded source.
    pub fn annotation_stats(&self) -> AnnotationStats {
        measure(self.source)
    }
}

/// Counts lines, declarations, annotations and endorsements in Rust source.
fn measure(source: &str) -> AnnotationStats {
    let mut loc = 0;
    let mut total_decls = 0;
    let mut annotated_decls = 0;
    let mut endorsements = 0;
    let mut in_tests = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            // Table 3 describes application code, not its test suite.
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        loc += 1;
        endorsements += trimmed.matches("endorse(").count();
        endorsements += trimmed.matches("endorse_ctx(").count();
        let decls = count_decls(trimmed);
        total_decls += decls;
        if decls > 0 && mentions_approx(trimmed) {
            annotated_decls += decls;
        }
    }
    AnnotationStats { loc, total_decls, annotated_decls, endorsements }
}

fn count_decls(line: &str) -> usize {
    let mut n = line.matches("let ").count();
    // Parameters and fields: `name: Type` pairs outside of `let`.
    if !line.contains("let ") {
        n += line.matches(": ").count();
    }
    n
}

fn mentions_approx(line: &str) -> bool {
    line.contains("Approx") || line.contains("Ctx<")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_simple_source() {
        let src = "
// a comment

fn demo(x: f64) {
    let a = Approx::new(x);
    let b = a + 1.0;
    let p = endorse(b);
    let q = p;
}
";
        let s = measure(src);
        assert_eq!(s.loc, 6);
        assert_eq!(s.total_decls, 5); // 4 lets + 1 param
        assert_eq!(s.annotated_decls, 1);
        assert_eq!(s.endorsements, 1);
        assert!((s.annotated_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn test_modules_are_excluded() {
        let src = "
let a = 1;
#[cfg(test)]
mod tests {
    let b = Approx::new(2);
}
";
        let s = measure(src);
        assert_eq!(s.total_decls, 1);
        assert_eq!(s.annotated_decls, 0);
    }

    #[test]
    fn empty_source_is_all_zero() {
        let s = measure("");
        assert_eq!(
            s,
            AnnotationStats { loc: 0, total_decls: 0, annotated_decls: 0, endorsements: 0 }
        );
        assert_eq!(s.annotated_percent(), 0.0);
    }
}
